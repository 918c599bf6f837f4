"""minilight: an event-driven, single-process web server (Lighttpd-like).

Architecture mirrors Lighttpd's: one process, a poll-based event loop
(``server_main_loop``, the function Ghavamnia et al. use as Lighttpd's
init/serving transition point), a config-driven init phase, and a
WebDAV module (PUT/DELETE/PROPFIND/MKCOL) gated by ``server.modules``.

The method dispatcher (``lh_handle_request``) is a switch over method
ids with one handler function per method; an unreachable dispatcher arm
labelled ``http_forbidden_entry`` responds ``403 Forbidden`` — the
redirect target DynaCut's fault handler points blocked features at, so
a disabled ``PUT`` yields a 403 instead of killing the server.
"""

from __future__ import annotations

from ..binfmt.linker import link_executable
from ..binfmt.self_format import SelfImage
from ..minic.codegen import compile_source

LIGHTTPD_BINARY = "minilight"
LIGHTTPD_PORT = 8080
LIGHTTPD_CONFIG_PATH = "/etc/lighttpd.conf"
DOCROOT = "/var/www"
INDEX_BODY = "<h1>it works</h1>"

DEFAULT_CONFIG = """\
server.port = 8080
server.document-root = /var/www
server.modules = mod_webdav
server.max-connections = 8
index-file = index.html
"""

READY_LINE = "minilight: server started"

#: symbol of the dispatcher's 403 arm (redirect target for blocked features)
FORBIDDEN_SYMBOL = "http_forbidden_entry"

LIGHTTPD_SOURCE = r"""
extern func exit;
extern func open;
extern func close;
extern func read;
extern func write;
extern func unlink;
extern func socket;
extern func bind;
extern func listen;
extern func accept;
extern func send;
extern func recv;
extern func poll;
extern func print;
extern func println;
extern func print_num;
extern func strlen;
extern func strcmp;
extern func strncmp;
extern func strcpy;
extern func strcat;
extern func memcpy;
extern func memset;
extern func atoi;
extern func itoa;
extern func strchr_idx;
extern func starts_with;
extern func getpid;

const MAXCONN = 8;
const RBUF = 1024;

const M_GET = 1;
const M_HEAD = 2;
const M_POST = 3;
const M_OPTIONS = 4;
const M_PUT = 5;
const M_DELETE = 6;
const M_PROPFIND = 7;
const M_MKCOL = 8;

// ------------------------------------------------------------- globals

var cfg_port = 8080;
var cfg_docroot[64];
var cfg_webdav = 0;
var cfg_maxconn = 0;
var cfg_index[32];

var listen_fd = 0;
var stat_requests = 0;

var conn_fds[64];            // MAXCONN u64 slots
var conn_len[64];
var conn_bufs[8192];         // MAXCONN * RBUF
var pollfds[72];

// ------------------------------------------------------------- init phase

func lh_read_config(buf, cap) {
    var fd = open("/etc/lighttpd.conf", 0);
    if (fd < 0) { return 0; }
    var n = read(fd, buf, cap - 1);
    close(fd);
    if (n < 0) { n = 0; }
    store8(buf + n, 0);
    return n;
}

func lh_parse_port(line) {
    if (starts_with(line, "server.port = ")) {
        cfg_port = atoi(line + 14);
        return 1;
    }
    return 0;
}

func lh_parse_docroot(line) {
    if (starts_with(line, "server.document-root = ")) {
        strcpy(cfg_docroot, line + 23);
        return 1;
    }
    return 0;
}

func lh_parse_modules(line) {
    if (starts_with(line, "server.modules = ")) {
        if (strchr_idx(line + 17, 'w') >= 0) {
            if (starts_with(line + 17, "mod_webdav")) { cfg_webdav = 1; }
        }
        return 1;
    }
    return 0;
}

func lh_parse_maxconn(line) {
    if (starts_with(line, "server.max-connections = ")) {
        cfg_maxconn = atoi(line + 25);
        return 1;
    }
    return 0;
}

func lh_parse_index(line) {
    if (starts_with(line, "index-file = ")) {
        strcpy(cfg_index, line + 13);
        return 1;
    }
    return 0;
}

func lh_load_config() {
    strcpy(cfg_docroot, "/var/www");
    strcpy(cfg_index, "index.html");
    var buf[1024];
    var n = lh_read_config(buf, 1024);
    var pos = 0;
    while (pos < n) {
        var rel = strchr_idx(buf + pos, 10);
        if (rel < 0) { break; }
        store8(buf + pos + rel, 0);
        var line = buf + pos;
        if (lh_parse_port(line)) { }
        else { if (lh_parse_docroot(line)) { }
        else { if (lh_parse_modules(line)) { }
        else { if (lh_parse_maxconn(line)) { }
        else { lh_parse_index(line); } } } }
        pos = pos + rel + 1;
    }
    return 0;
}

func lh_init_connections() {
    var i = 0;
    while (i < MAXCONN) {
        store64(conn_fds + 8 * i, 0);
        store64(conn_len + 8 * i, 0);
        i = i + 1;
    }
    return 0;
}

func lh_check_docroot() {
    var path[128];
    strcpy(path, cfg_docroot);
    strcat(path, "/");
    strcat(path, cfg_index);
    var fd = open(path, 0);
    if (fd >= 0) { close(fd); return 1; }
    return 0;
}

func lh_init_listener() {
    listen_fd = socket();
    if (bind(listen_fd, cfg_port) < 0) {
        println("minilight: bind failed");
        exit(1);
    }
    listen(listen_fd, 16);
    return 0;
}

func lh_print_banner() {
    print("minilight: pid=");
    print_num(getpid());
    print(" port=");
    print_num(cfg_port);
    print(" webdav=");
    print_num(cfg_webdav);
    println("");
    println("minilight: server started");
    return 0;
}

// ------------------------------------------------------------- responses

func status_text(code) {
    if (code == 200) { return "OK"; }
    if (code == 201) { return "Created"; }
    if (code == 204) { return "No Content"; }
    if (code == 207) { return "Multi-Status"; }
    if (code == 400) { return "Bad Request"; }
    if (code == 403) { return "Forbidden"; }
    if (code == 404) { return "Not Found"; }
    if (code == 405) { return "Method Not Allowed"; }
    return "Internal Server Error";
}

func send_response(fd, code, body, body_len) {
    var head[160];
    strcpy(head, "HTTP/1.0 ");
    itoa(code, head + 9);
    strcat(head, " ");
    strcat(head, status_text(code));
    strcat(head, "\r\nContent-Length: ");
    var lenbuf[24];
    itoa(body_len, lenbuf);
    strcat(head, lenbuf);
    strcat(head, "\r\n\r\n");
    send(fd, head, strlen(head));
    if (body_len > 0) { send(fd, body, body_len); }
    return 0;
}

func respond_error(fd, code) {
    var body[64];
    strcpy(body, "<h1>");
    itoa(code, body + 4);
    strcat(body, " ");
    strcat(body, status_text(code));
    strcat(body, "</h1>");
    return send_response(fd, code, body, strlen(body));
}

// ------------------------------------------------------------- handlers

func map_path(path, out) {
    strcpy(out, cfg_docroot);
    if (strcmp(path, "/") == 0) {
        strcat(out, "/");
        strcat(out, cfg_index);
        return 0;
    }
    strcat(out, path);
    return 0;
}

func http_get(fd, path) {
    var full[192];
    map_path(path, full);
    var file = open(full, 0);
    if (file < 0) { return respond_error(fd, 404); }
    var body[2048];
    var n = read(file, body, 2047);
    close(file);
    if (n < 0) { n = 0; }
    return send_response(fd, 200, body, n);
}

func http_head(fd, path) {
    var full[192];
    map_path(path, full);
    var file = open(full, 0);
    if (file < 0) { return respond_error(fd, 404); }
    close(file);
    return send_response(fd, 200, "", 0);
}

func http_post(fd, path, body, body_len) {
    // echo service: reflect the body back
    return send_response(fd, 200, body, body_len);
}

func http_options(fd) {
    var allow = "GET, HEAD, POST, OPTIONS, PUT, DELETE, PROPFIND, MKCOL";
    return send_response(fd, 200, allow, strlen(allow));
}

func dav_put(fd, path, body, body_len) {
    if (cfg_webdav == 0) { return respond_error(fd, 403); }
    var full[192];
    map_path(path, full);
    var file = open(full, 0x241);        // O_WRONLY|O_CREAT|O_TRUNC
    if (file < 0) { return respond_error(fd, 500); }
    write(file, body, body_len);
    close(file);
    return send_response(fd, 201, "", 0);
}

func dav_delete(fd, path) {
    if (cfg_webdav == 0) { return respond_error(fd, 403); }
    var full[192];
    map_path(path, full);
    if (unlink(full) < 0) { return respond_error(fd, 404); }
    return send_response(fd, 204, "", 0);
}

func dav_propfind(fd, path) {
    if (cfg_webdav == 0) { return respond_error(fd, 403); }
    var body[96];
    strcpy(body, "<multistatus><href>");
    strcat(body, path);
    strcat(body, "</href></multistatus>");
    return send_response(fd, 207, body, strlen(body));
}

func dav_mkcol(fd, path) {
    if (cfg_webdav == 0) { return respond_error(fd, 403); }
    return send_response(fd, 201, "", 0);
}

// ------------------------------------------------------------- dispatch

func method_id(s) {
    if (strcmp(s, "GET") == 0) { return M_GET; }
    if (strcmp(s, "HEAD") == 0) { return M_HEAD; }
    if (strcmp(s, "POST") == 0) { return M_POST; }
    if (strcmp(s, "OPTIONS") == 0) { return M_OPTIONS; }
    if (strcmp(s, "PUT") == 0) { return M_PUT; }
    if (strcmp(s, "DELETE") == 0) { return M_DELETE; }
    if (strcmp(s, "PROPFIND") == 0) { return M_PROPFIND; }
    if (strcmp(s, "MKCOL") == 0) { return M_MKCOL; }
    return 0;
}

func lh_handle_request(fd, method, path, body, body_len) {
    stat_requests = stat_requests + 1;
    switch (method) {
    case 1:
        http_get(fd, path);
        break;
    case 2:
        http_head(fd, path);
        break;
    case 3:
        http_post(fd, path, body, body_len);
        break;
    case 4:
        http_options(fd);
        break;
    case 5:
        dav_put(fd, path, body, body_len);
        break;
    case 6:
        dav_delete(fd, path);
        break;
    case 7:
        dav_propfind(fd, path);
        break;
    case 8:
        dav_mkcol(fd, path);
        break;
    case 99:
        // never dispatched: DynaCut's fault handler redirects blocked
        // features here so clients get a 403 instead of a dead server
        asm(".marker http_forbidden_entry");
        respond_error(fd, 403);
        break;
    default:
        respond_error(fd, 405);
    }
    return 0;
}

// ------------------------------------------------------------- parsing

// returns header length (offset of body) or -1 if incomplete
func find_body(buf, used) {
    var i = 0;
    while (i + 3 < used) {
        if (load8(buf + i) == 13 && load8(buf + i + 1) == 10
            && load8(buf + i + 2) == 13 && load8(buf + i + 3) == 10) {
            return i + 4;
        }
        i = i + 1;
    }
    return -1;
}

func parse_content_length(buf, header_len) {
    var i = 0;
    while (i < header_len) {
        if (starts_with(buf + i, "Content-Length: ")) {
            return atoi(buf + i + 16);
        }
        var rel = strchr_idx(buf + i, 10);
        if (rel < 0) { break; }
        i = i + rel + 1;
    }
    return 0;
}

func process_request(fd, buf, header_len, body_len) {
    var method_buf[16];
    var path_buf[128];
    var sp1 = strchr_idx(buf, ' ');
    if (sp1 < 0 || sp1 >= 15) { respond_error(fd, 400); return 0; }
    memcpy(method_buf, buf, sp1);
    store8(method_buf + sp1, 0);
    var rest = buf + sp1 + 1;
    var sp2 = strchr_idx(rest, ' ');
    if (sp2 < 0 || sp2 >= 127) { respond_error(fd, 400); return 0; }
    memcpy(path_buf, rest, sp2);
    store8(path_buf + sp2, 0);
    var method = method_id(method_buf);
    lh_handle_request(fd, method, path_buf, buf + header_len, body_len);
    return 0;
}

// ------------------------------------------------------------- event loop

func close_conn(i) {
    var fd = load64(conn_fds + 8 * i);
    if (fd) { close(fd); }
    store64(conn_fds + 8 * i, 0);
    store64(conn_len + 8 * i, 0);
    return 0;
}

func conn_readable(i) {
    var fd = load64(conn_fds + 8 * i);
    var used = load64(conn_len + 8 * i);
    var buf = conn_bufs + i * RBUF;
    var n = recv(fd, buf + used, RBUF - 1 - used);
    if (n <= 0) { close_conn(i); return 0; }
    used = used + n;
    store64(conn_len + 8 * i, used);
    store8(buf + used, 0);
    var header_len = find_body(buf, used);
    if (header_len < 0) {
        if (used >= RBUF - 1) { respond_error(fd, 400); close_conn(i); }
        return 0;
    }
    var body_len = parse_content_length(buf, header_len);
    if (used < header_len + body_len) { return 0; }     // body incomplete
    process_request(fd, buf, header_len, body_len);
    close_conn(i);                                      // HTTP/1.0: one shot
    return 0;
}

func accept_conn() {
    var fd = accept(listen_fd);
    if (fd < 0) { return 0; }
    var i = 0;
    while (i < MAXCONN) {
        if (load64(conn_fds + 8 * i) == 0) {
            store64(conn_fds + 8 * i, fd);
            store64(conn_len + 8 * i, 0);
            return 1;
        }
        i = i + 1;
    }
    close(fd);
    return 0;
}

func server_main_loop() {
    while (1) {
        store64(pollfds, listen_fd);
        var count = 1;
        var i = 0;
        while (i < MAXCONN) {
            var fd = load64(conn_fds + 8 * i);
            if (fd) {
                store64(pollfds + 8 * count, fd);
                count = count + 1;
            }
            i = i + 1;
        }
        var ready = poll(pollfds, count);
        if (ready < 0) { continue; }
        if (ready == 0) { accept_conn(); continue; }
        var target = load64(pollfds + 8 * ready);
        i = 0;
        while (i < MAXCONN) {
            if (load64(conn_fds + 8 * i) == target) { conn_readable(i); break; }
            i = i + 1;
        }
    }
    return 0;
}

func main(argc, argv) {
    lh_load_config();
    lh_init_connections();
    lh_check_docroot();
    lh_init_listener();
    lh_print_banner();
    server_main_loop();
    return 0;
}
"""


def build_minilight(libc: SelfImage) -> SelfImage:
    """Compile and link the minilight executable against ``libc``."""
    module = compile_source(LIGHTTPD_SOURCE, "minilight.o", entry=True)
    return link_executable([module], LIGHTTPD_BINARY, libraries=[libc])


def install_default_config(
    fs, index_body: str = INDEX_BODY, port: int = LIGHTTPD_PORT
) -> None:
    """Stage the lighttpd config and a docroot with an index file."""
    config = DEFAULT_CONFIG.replace(
        f"server.port = {LIGHTTPD_PORT}", f"server.port = {port}"
    )
    fs.write_file(LIGHTTPD_CONFIG_PATH, config)
    fs.write_file(f"{DOCROOT}/index.html", index_body)
