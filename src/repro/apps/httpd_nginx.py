"""mininginx: a master/worker web server (Nginx-like).

Architecture mirrors Nginx's:

* a **master** process parses the config, creates the listening socket,
  forks worker processes (``ngx_spawn_worker``), then sits in a
  ``waitpid`` loop; when a worker dies it *respawns* it via ``fork`` —
  the exact behaviour Blind-ROP needs (crash the worker, get a fresh
  one with the same address space) and the exact behaviour DynaCut's
  init-code removal disables (post-init, the only traced ``fork`` PLT
  entry executions were during initialization);
* a **worker** (``ngx_worker_process_cycle``, named after the paper's
  transition-point function) accepts one connection at a time, parses
  the request, and dispatches through ``ngx_handle_request`` — a switch
  with a WebDAV module (PUT/DELETE) and a ``ngx_forbidden_entry``
  redirect arm, modelled on the ``ngx_http_dav_handler`` of Listing 1;
* the worker's request-line parser copies the URL into a fixed 64-byte
  buffer without a bound check — the memory-corruption primitive the
  BROP simulation crashes workers with.
"""

from __future__ import annotations

from ..binfmt.linker import link_executable
from ..binfmt.self_format import SelfImage
from ..minic.codegen import compile_source

NGINX_BINARY = "mininginx"
NGINX_PORT = 8081
NGINX_CONFIG_PATH = "/etc/nginx.conf"
DOCROOT = "/var/www"
INDEX_BODY = "<h1>nginx-like</h1>"

DEFAULT_CONFIG = """\
worker_processes 1
listen 8081
root /var/www
dav_methods PUT DELETE
worker_respawn on
index index.html
"""

READY_LINE = "mininginx: master ready"
WORKER_LINE = "mininginx: worker running"

#: symbol of the dispatcher's 403 arm (redirect target for blocked features)
FORBIDDEN_SYMBOL = "ngx_forbidden_entry"

NGINX_SOURCE = r"""
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
extern func fork;
extern func waitpid;
extern func print;
extern func println;
extern func print_num;
extern func strlen;
extern func strcmp;
extern func strcpy;
extern func strcat;
extern func memcpy;
extern func memset;
extern func atoi;
extern func itoa;
extern func strchr_idx;
extern func starts_with;
extern func getpid;

const RBUF = 1024;

const M_GET = 1;
const M_HEAD = 2;
const M_POST = 3;
const M_OPTIONS = 4;
const M_PUT = 5;
const M_DELETE = 6;

// ------------------------------------------------------------- globals

var cfg_workers = 1;
var cfg_port = 8081;
var cfg_root[64];
var cfg_dav_put = 0;
var cfg_dav_delete = 0;
var cfg_respawn = 0;
var cfg_index[32];

var listen_fd = 0;
var stat_requests = 0;
var workers_spawned = 0;

// ------------------------------------------------------------- init phase

func ngx_read_config(buf, cap) {
    var fd = open("/etc/nginx.conf", 0);
    if (fd < 0) { return 0; }
    var n = read(fd, buf, cap - 1);
    close(fd);
    if (n < 0) { n = 0; }
    store8(buf + n, 0);
    return n;
}

func ngx_parse_workers(line) {
    if (starts_with(line, "worker_processes ")) {
        cfg_workers = atoi(line + 17);
        return 1;
    }
    return 0;
}

func ngx_parse_listen(line) {
    if (starts_with(line, "listen ")) { cfg_port = atoi(line + 7); return 1; }
    return 0;
}

func ngx_parse_root(line) {
    if (starts_with(line, "root ")) { strcpy(cfg_root, line + 5); return 1; }
    return 0;
}

func ngx_parse_dav(line) {
    if (starts_with(line, "dav_methods ")) {
        var rest = line + 12;
        if (strchr_idx(rest, 'P') >= 0) { cfg_dav_put = 1; }
        if (strchr_idx(rest, 'D') >= 0) { cfg_dav_delete = 1; }
        return 1;
    }
    return 0;
}

func ngx_parse_respawn(line) {
    if (starts_with(line, "worker_respawn ")) {
        if (strcmp(line + 15, "on") == 0) { cfg_respawn = 1; }
        return 1;
    }
    return 0;
}

func ngx_parse_index(line) {
    if (starts_with(line, "index ")) { strcpy(cfg_index, line + 6); return 1; }
    return 0;
}

func ngx_load_config() {
    strcpy(cfg_root, "/var/www");
    strcpy(cfg_index, "index.html");
    var buf[1024];
    var n = ngx_read_config(buf, 1024);
    var pos = 0;
    while (pos < n) {
        var rel = strchr_idx(buf + pos, 10);
        if (rel < 0) { break; }
        store8(buf + pos + rel, 0);
        var line = buf + pos;
        if (ngx_parse_workers(line)) { }
        else { if (ngx_parse_listen(line)) { }
        else { if (ngx_parse_root(line)) { }
        else { if (ngx_parse_dav(line)) { }
        else { if (ngx_parse_respawn(line)) { }
        else { ngx_parse_index(line); } } } } }
        pos = pos + rel + 1;
    }
    return 0;
}

func ngx_init_listener() {
    listen_fd = socket();
    if (bind(listen_fd, cfg_port) < 0) {
        println("mininginx: bind failed");
        exit(1);
    }
    listen(listen_fd, 16);
    return 0;
}

func ngx_print_banner() {
    print("mininginx: master pid=");
    print_num(getpid());
    print(" port=");
    print_num(cfg_port);
    println("");
    println("mininginx: master ready");
    return 0;
}

// ------------------------------------------------------------- responses

func ngx_status_text(code) {
    if (code == 200) { return "OK"; }
    if (code == 201) { return "Created"; }
    if (code == 204) { return "No Content"; }
    if (code == 400) { return "Bad Request"; }
    if (code == 403) { return "Forbidden"; }
    if (code == 404) { return "Not Found"; }
    if (code == 405) { return "Method Not Allowed"; }
    return "Internal Server Error";
}

func ngx_send_response(fd, code, body, body_len) {
    var head[160];
    strcpy(head, "HTTP/1.0 ");
    itoa(code, head + 9);
    strcat(head, " ");
    strcat(head, ngx_status_text(code));
    strcat(head, "\r\nServer: mininginx\r\nContent-Length: ");
    var lenbuf[24];
    itoa(body_len, lenbuf);
    strcat(head, lenbuf);
    strcat(head, "\r\n\r\n");
    send(fd, head, strlen(head));
    if (body_len > 0) { send(fd, body, body_len); }
    return 0;
}

func ngx_respond_error(fd, code) {
    var body[64];
    strcpy(body, "<h1>");
    itoa(code, body + 4);
    strcat(body, " ");
    strcat(body, ngx_status_text(code));
    strcat(body, "</h1>");
    return ngx_send_response(fd, code, body, strlen(body));
}

// ------------------------------------------------------------- handlers

func ngx_map_path(path, out) {
    strcpy(out, cfg_root);
    if (strcmp(path, "/") == 0) {
        strcat(out, "/");
        strcat(out, cfg_index);
        return 0;
    }
    strcat(out, path);
    return 0;
}

func ngx_http_get(fd, path) {
    var full[192];
    ngx_map_path(path, full);
    var file = open(full, 0);
    if (file < 0) { return ngx_respond_error(fd, 404); }
    var body[2048];
    var n = read(file, body, 2047);
    close(file);
    if (n < 0) { n = 0; }
    return ngx_send_response(fd, 200, body, n);
}

func ngx_http_head(fd, path) {
    var full[192];
    ngx_map_path(path, full);
    var file = open(full, 0);
    if (file < 0) { return ngx_respond_error(fd, 404); }
    close(file);
    return ngx_send_response(fd, 200, "", 0);
}

func ngx_http_post(fd, path, body, body_len) {
    return ngx_send_response(fd, 200, body, body_len);
}

func ngx_http_options(fd) {
    var allow = "GET, HEAD, POST, OPTIONS, PUT, DELETE";
    return ngx_send_response(fd, 200, allow, strlen(allow));
}

func ngx_dav_put(fd, path, body, body_len) {
    if (cfg_dav_put == 0) { return ngx_respond_error(fd, 403); }
    var full[192];
    ngx_map_path(path, full);
    var file = open(full, 0x241);
    if (file < 0) { return ngx_respond_error(fd, 500); }
    write(file, body, body_len);
    close(file);
    return ngx_send_response(fd, 201, "", 0);
}

func ngx_dav_delete(fd, path) {
    if (cfg_dav_delete == 0) { return ngx_respond_error(fd, 403); }
    var full[192];
    ngx_map_path(path, full);
    if (unlink(full) < 0) { return ngx_respond_error(fd, 404); }
    return ngx_send_response(fd, 204, "", 0);
}

// ------------------------------------------------------------- dispatch

func ngx_method_id(s) {
    if (strcmp(s, "GET") == 0) { return M_GET; }
    if (strcmp(s, "HEAD") == 0) { return M_HEAD; }
    if (strcmp(s, "POST") == 0) { return M_POST; }
    if (strcmp(s, "OPTIONS") == 0) { return M_OPTIONS; }
    if (strcmp(s, "PUT") == 0) { return M_PUT; }
    if (strcmp(s, "DELETE") == 0) { return M_DELETE; }
    return 0;
}

// modelled on ngx_http_dav_handler (Listing 1 in the paper)
func ngx_handle_request(fd, method, path, body, body_len) {
    stat_requests = stat_requests + 1;
    switch (method) {
    case 1:
        ngx_http_get(fd, path);
        break;
    case 2:
        ngx_http_head(fd, path);
        break;
    case 3:
        ngx_http_post(fd, path, body, body_len);
        break;
    case 4:
        ngx_http_options(fd);
        break;
    case 5:
        ngx_dav_put(fd, path, body, body_len);
        break;
    case 6:
        ngx_dav_delete(fd, path);
        break;
    case 99:
        // redirect target for DynaCut-blocked methods: NGX_DECLINED-style
        asm(".marker ngx_forbidden_entry");
        ngx_respond_error(fd, 403);
        break;
    default:
        ngx_respond_error(fd, 405);
    }
    return 0;
}

// ------------------------------------------------------------- worker

func ngx_find_body(buf, used) {
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

func ngx_content_length(buf, header_len) {
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

func ngx_process_request(fd, buf, header_len, body_len) {
    var method_buf[16];
    var path_buf[64];
    var sp1 = strchr_idx(buf, ' ');
    if (sp1 < 0 || sp1 >= 15) { ngx_respond_error(fd, 400); return 0; }
    memcpy(method_buf, buf, sp1);
    store8(method_buf + sp1, 0);
    var rest = buf + sp1 + 1;
    var sp2 = strchr_idx(rest, ' ');
    if (sp2 < 0) { ngx_respond_error(fd, 400); return 0; }
    // BUG: no bound check against the 64-byte path buffer — a long URL
    // smashes the worker's stack (the BROP crash primitive)
    memcpy(path_buf, rest, sp2);
    store8(path_buf + sp2, 0);
    var method = ngx_method_id(method_buf);
    ngx_handle_request(fd, method, path_buf, buf + header_len, body_len);
    return 0;
}

func ngx_worker_handle_conn(fd) {
    var buf[1024];
    var used = 0;
    while (used < RBUF - 1) {
        var n = recv(fd, buf + used, RBUF - 1 - used);
        if (n <= 0) { close(fd); return 0; }
        used = used + n;
        store8(buf + used, 0);
        var header_len = ngx_find_body(buf, used);
        if (header_len < 0) { continue; }
        var body_len = ngx_content_length(buf, header_len);
        if (used < header_len + body_len) { continue; }
        ngx_process_request(fd, buf, header_len, body_len);
        close(fd);
        return 0;
    }
    ngx_respond_error(fd, 400);
    close(fd);
    return 0;
}

func ngx_worker_process_cycle() {
    println("mininginx: worker running");
    while (1) {
        var fd = accept(listen_fd);
        if (fd < 0) { continue; }
        ngx_worker_handle_conn(fd);
    }
    return 0;
}

// ------------------------------------------------------------- master

func ngx_spawn_worker() {
    var pid = fork();
    if (pid == 0) {
        ngx_worker_process_cycle();
        exit(0);
    }
    workers_spawned = workers_spawned + 1;
    return pid;
}

func ngx_master_cycle() {
    while (1) {
        var dead = waitpid(0);
        if (dead < 0) { break; }          // no children left
        println("mininginx: worker exited");
        if (cfg_respawn) {
            ngx_spawn_worker();
            println("mininginx: worker respawned");
        } else {
            println("mininginx: not respawning, shutting down");
            break;
        }
    }
    return 0;
}

func main(argc, argv) {
    ngx_load_config();
    ngx_init_listener();
    var i = 0;
    while (i < cfg_workers) {
        ngx_spawn_worker();
        i = i + 1;
    }
    ngx_print_banner();
    ngx_master_cycle();
    return 0;
}
"""


def build_mininginx(libc: SelfImage) -> SelfImage:
    """Compile and link the mininginx executable against ``libc``."""
    module = compile_source(NGINX_SOURCE, "mininginx.o", entry=True)
    return link_executable([module], NGINX_BINARY, libraries=[libc])


def install_default_config(
    fs, index_body: str = INDEX_BODY, port: int = NGINX_PORT
) -> None:
    """Stage the nginx config and a docroot with an index file."""
    config = DEFAULT_CONFIG.replace(f"listen {NGINX_PORT}", f"listen {port}")
    fs.write_file(NGINX_CONFIG_PATH, config)
    fs.write_file(f"{DOCROOT}/index.html", index_body)
