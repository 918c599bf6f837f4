"""miniredis: a Redis-6.2-flavoured in-memory key-value store.

Single-threaded, event-driven (poll loop), with:

* a config-driven **initialization phase** (several distinct functions
  that never run again, feeding the init-code-removal experiments);
* a **command dispatcher** with one handler function per command — the
  big switch the paper's feature customization targets;
* **vulnerable handlers** modelled on the Redis CVEs of Table 1:

  - ``STRALGO LCS`` truncates the length product to 8 bits before its
    bounds check (CVE-2021-32625 / CVE-2021-29477 integer overflow),
    so crafted operands smash the stack;
  - ``SETRANGE`` misses the offset bound check (CVE-2019-10192/10193),
    allowing out-of-bounds stores;
  - ``CONFIG SET loglevel`` strcpy's into a fixed buffer adjacent to a
    function pointer (CVE-2016-8339 buffer overflow), hijacking a
    later indirect call.

Protocol: inline commands, one per line (``SET k v\\n``); replies are
single-line simplified RESP (``+OK``, ``:N``, ``$v``, ``-ERR ...``).
"""

from __future__ import annotations

from ..binfmt.linker import link_executable
from ..binfmt.self_format import SelfImage
from ..minic.codegen import compile_source

REDIS_BINARY = "miniredis"
REDIS_PORT = 6379
REDIS_CONFIG_PATH = "/etc/redis.conf"

DEFAULT_CONFIG = """\
port 6379
maxmemory 1048576
maxclients 8
appendonly no
loglevel notice
save 900
"""

#: the line the server prints when initialization completes
READY_LINE = "Ready to accept connections"

REDIS_SOURCE = r"""
extern func exit;
extern func open;
extern func close;
extern func read;
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
extern func memcpy;
extern func memset;
extern func atoi;
extern func itoa;
extern func strchr_idx;
extern func starts_with;
extern func getpid;

const MAXCLIENTS = 8;
const CBUF = 512;
const NSLOTS = 64;
const KEYSZ = 64;
const VALSZ = 256;

// ------------------------------------------------------------- globals

var cfg_port = 6379;
var cfg_maxmemory = 0;
var cfg_maxclients = 0;
var cfg_appendonly = 0;
var cfg_save_secs = 0;
var cfg_loglevel[16];
var cfg_apply_fn;            // function pointer in bss, right after the buffer

var listen_fd = 0;
var stat_commands = 0;
var stat_connections = 0;

var db_used[64];
var db_keys[4096];           // NSLOTS * KEYSZ
var db_vals[16384];          // NSLOTS * VALSZ

var cli_fds[64];             // MAXCLIENTS u64 slots
var cli_len[64];
var cli_bufs[4096];          // MAXCLIENTS * CBUF
var pollfds[72];             // (MAXCLIENTS + 1) u64 slots

// ------------------------------------------------------------- init phase

func config_read_file(buf, cap) {
    var fd = open("/etc/redis.conf", 0);
    if (fd < 0) { return 0; }
    var n = read(fd, buf, cap - 1);
    close(fd);
    if (n < 0) { n = 0; }
    store8(buf + n, 0);
    return n;
}

func config_parse_port(line) {
    if (starts_with(line, "port ")) { cfg_port = atoi(line + 5); return 1; }
    return 0;
}

func config_parse_maxmemory(line) {
    if (starts_with(line, "maxmemory ")) {
        cfg_maxmemory = atoi(line + 10);
        return 1;
    }
    return 0;
}

func config_parse_maxclients(line) {
    if (starts_with(line, "maxclients ")) {
        cfg_maxclients = atoi(line + 11);
        return 1;
    }
    return 0;
}

func config_parse_appendonly(line) {
    if (starts_with(line, "appendonly ")) {
        if (strcmp(line + 11, "yes") == 0) { cfg_appendonly = 1; }
        return 1;
    }
    return 0;
}

func config_parse_loglevel(line) {
    if (starts_with(line, "loglevel ")) {
        strcpy(cfg_loglevel, line + 9);
        return 1;
    }
    return 0;
}

func config_parse_save(line) {
    if (starts_with(line, "save ")) { cfg_save_secs = atoi(line + 5); return 1; }
    return 0;
}

func load_config() {
    var buf[1024];
    var n = config_read_file(buf, 1024);
    var pos = 0;
    while (pos < n) {
        var rel = strchr_idx(buf + pos, 10);
        if (rel < 0) { break; }
        store8(buf + pos + rel, 0);
        var line = buf + pos;
        if (config_parse_port(line)) { }
        else { if (config_parse_maxmemory(line)) { }
        else { if (config_parse_maxclients(line)) { }
        else { if (config_parse_appendonly(line)) { }
        else { if (config_parse_loglevel(line)) { }
        else { config_parse_save(line); } } } } }
        pos = pos + rel + 1;
    }
    return 0;
}

func init_db() {
    memset(db_used, 0, NSLOTS);
    memset(db_keys, 0, NSLOTS * KEYSZ);
    memset(db_vals, 0, NSLOTS * VALSZ);
    return 0;
}

func init_clients() {
    var i = 0;
    while (i < MAXCLIENTS) {
        store64(cli_fds + 8 * i, 0);
        store64(cli_len + 8 * i, 0);
        i = i + 1;
    }
    return 0;
}

func init_stats() {
    stat_commands = 0;
    stat_connections = 0;
    cfg_apply_fn = config_apply_default;
    return 0;
}

func init_listener() {
    listen_fd = socket();
    if (bind(listen_fd, cfg_port) < 0) {
        println("bind failed");
        exit(1);
    }
    listen(listen_fd, 16);
    return 0;
}

func print_banner() {
    print("miniredis pid=");
    print_num(getpid());
    print(" port=");
    print_num(cfg_port);
    println("");
    println("Ready to accept connections");
    return 0;
}

// ------------------------------------------------------------- database

func db_find(key) {
    var i = 0;
    while (i < NSLOTS) {
        if (db_used[i]) {
            if (strcmp(db_keys + i * KEYSZ, key) == 0) { return i; }
        }
        i = i + 1;
    }
    return -1;
}

func db_alloc(key) {
    var slot = db_find(key);
    if (slot >= 0) { return slot; }
    var i = 0;
    while (i < NSLOTS) {
        if (db_used[i] == 0) {
            db_used[i] = 1;
            strcpy(db_keys + i * KEYSZ, key);
            store8(db_vals + i * VALSZ, 0);
            return i;
        }
        i = i + 1;
    }
    return -1;
}

// ------------------------------------------------------------- replies

func reply_raw(fd, s) { return send(fd, s, strlen(s)); }

func reply_ok(fd) { return reply_raw(fd, "+OK\n"); }

func reply_err(fd, msg) {
    send(fd, "-ERR ", 5);
    send(fd, msg, strlen(msg));
    return send(fd, "\n", 1);
}

func reply_int(fd, n) {
    var buf[40];
    store8(buf, ':');
    var len = itoa(n, buf + 1);
    store8(buf + 1 + len, 10);
    return send(fd, buf, len + 2);
}

func reply_bulk(fd, s) {
    send(fd, "$", 1);
    send(fd, s, strlen(s));
    return send(fd, "\n", 1);
}

func reply_nil(fd) { return reply_raw(fd, "$-1\n"); }

// ------------------------------------------------------------- commands

func cmd_ping(fd, argc, argv) {
    if (argc > 1) { return reply_bulk(fd, load64(argv + 8)); }
    return reply_raw(fd, "+PONG\n");
}

func cmd_echo(fd, argc, argv) {
    if (argc < 2) { return reply_err(fd, "wrong number of arguments"); }
    return reply_bulk(fd, load64(argv + 8));
}

func cmd_get(fd, argc, argv) {
    if (argc < 2) { return reply_err(fd, "wrong number of arguments"); }
    var slot = db_find(load64(argv + 8));
    if (slot < 0) { return reply_nil(fd); }
    return reply_bulk(fd, db_vals + slot * VALSZ);
}

func cmd_set(fd, argc, argv) {
    if (argc < 3) { return reply_err(fd, "wrong number of arguments"); }
    var slot = db_alloc(load64(argv + 8));
    if (slot < 0) { return reply_err(fd, "out of memory"); }
    var value = load64(argv + 16);
    if (strlen(value) >= VALSZ) { return reply_err(fd, "value too large"); }
    strcpy(db_vals + slot * VALSZ, value);
    return reply_ok(fd);
}

func cmd_del(fd, argc, argv) {
    if (argc < 2) { return reply_err(fd, "wrong number of arguments"); }
    var slot = db_find(load64(argv + 8));
    if (slot < 0) { return reply_int(fd, 0); }
    db_used[slot] = 0;
    return reply_int(fd, 1);
}

func cmd_exists(fd, argc, argv) {
    if (argc < 2) { return reply_err(fd, "wrong number of arguments"); }
    if (db_find(load64(argv + 8)) >= 0) { return reply_int(fd, 1); }
    return reply_int(fd, 0);
}

func cmd_strlen(fd, argc, argv) {
    if (argc < 2) { return reply_err(fd, "wrong number of arguments"); }
    var slot = db_find(load64(argv + 8));
    if (slot < 0) { return reply_int(fd, 0); }
    return reply_int(fd, strlen(db_vals + slot * VALSZ));
}

func cmd_append(fd, argc, argv) {
    if (argc < 3) { return reply_err(fd, "wrong number of arguments"); }
    var slot = db_alloc(load64(argv + 8));
    if (slot < 0) { return reply_err(fd, "out of memory"); }
    var val = db_vals + slot * VALSZ;
    var cur = strlen(val);
    var extra = load64(argv + 16);
    if (cur + strlen(extra) >= VALSZ) { return reply_err(fd, "value too large"); }
    strcpy(val + cur, extra);
    return reply_int(fd, strlen(val));
}

func cmd_incr(fd, argc, argv) {
    if (argc < 2) { return reply_err(fd, "wrong number of arguments"); }
    var slot = db_alloc(load64(argv + 8));
    if (slot < 0) { return reply_err(fd, "out of memory"); }
    var val = db_vals + slot * VALSZ;
    var n = atoi(val) + 1;
    itoa(n, val);
    return reply_int(fd, n);
}

func cmd_decr(fd, argc, argv) {
    if (argc < 2) { return reply_err(fd, "wrong number of arguments"); }
    var slot = db_alloc(load64(argv + 8));
    if (slot < 0) { return reply_err(fd, "out of memory"); }
    var val = db_vals + slot * VALSZ;
    var n = atoi(val) - 1;
    itoa(n, val);
    return reply_int(fd, n);
}

// CVE-2019-10192/10193 analogue: the offset bound check is missing, so
// crafted offsets store bytes far outside the value arena.
func cmd_setrange(fd, argc, argv) {
    if (argc < 4) { return reply_err(fd, "wrong number of arguments"); }
    var slot = db_alloc(load64(argv + 8));
    if (slot < 0) { return reply_err(fd, "out of memory"); }
    var offset = atoi(load64(argv + 16));
    var value = load64(argv + 24);
    var val = db_vals + slot * VALSZ;
    // BUG: no "offset + strlen(value) <= VALSZ" check
    var i = 0;
    var n = strlen(value);
    while (i < n) {
        store8(val + offset + i, load8(value + i));
        i = i + 1;
    }
    return reply_int(fd, offset + n);
}

func cmd_getrange(fd, argc, argv) {
    if (argc < 4) { return reply_err(fd, "wrong number of arguments"); }
    var slot = db_find(load64(argv + 8));
    if (slot < 0) { return reply_bulk(fd, ""); }
    var val = db_vals + slot * VALSZ;
    var from = atoi(load64(argv + 16));
    var to = atoi(load64(argv + 24));
    var len = strlen(val);
    if (from < 0) { from = 0; }
    if (to >= len) { to = len - 1; }
    if (from > to) { return reply_bulk(fd, ""); }
    var out[260];
    memcpy(out, val + from, to - from + 1);
    store8(out + (to - from + 1), 0);
    return reply_bulk(fd, out);
}

// CVE-2021-32625 / CVE-2021-29477 analogue: the DP matrix size check
// uses a product truncated to 8 bits, so 16x16 operands pass the check
// and the fill loop smashes the stack frame.
func cmd_stralgo(fd, argc, argv) {
    if (argc < 4) { return reply_err(fd, "wrong number of arguments"); }
    if (strcmp(load64(argv + 8), "LCS") != 0) {
        return reply_err(fd, "unknown STRALGO algorithm");
    }
    var a = load64(argv + 16);
    var b = load64(argv + 24);
    var la = strlen(a);
    var lb = strlen(b);
    var need = (la * lb) & 255;      // BUG: 8-bit truncation of the product
    var matrix[64];
    if (need >= 64) { return reply_err(fd, "operands too long"); }
    var real = la * lb;
    var i = 0;
    while (i < real) {               // writes past matrix when real >= 64
        store8(matrix + i, 0);
        i = i + 1;
    }
    // common-prefix length as a stand-in for the LCS computation
    var common = 0;
    while (common < la && common < lb) {
        if (load8(a + common) != load8(b + common)) { break; }
        common = common + 1;
    }
    return reply_int(fd, common);
}

func config_apply_default() { return 0; }

// CVE-2016-8339 analogue: unbounded strcpy into a 16-byte buffer that
// sits directly before a function pointer called right after.
func cmd_config(fd, argc, argv) {
    if (argc < 2) { return reply_err(fd, "wrong number of arguments"); }
    var sub = load64(argv + 8);
    if (strcmp(sub, "GET") == 0) {
        if (argc < 3) { return reply_err(fd, "wrong number of arguments"); }
        var what = load64(argv + 16);
        if (strcmp(what, "maxmemory") == 0) { return reply_int(fd, cfg_maxmemory); }
        if (strcmp(what, "port") == 0) { return reply_int(fd, cfg_port); }
        if (strcmp(what, "loglevel") == 0) { return reply_bulk(fd, cfg_loglevel); }
        return reply_nil(fd);
    }
    if (strcmp(sub, "SET") == 0) {
        if (argc < 4) { return reply_err(fd, "wrong number of arguments"); }
        var what = load64(argv + 16);
        var value = load64(argv + 24);
        if (strcmp(what, "maxmemory") == 0) {
            cfg_maxmemory = atoi(value);
            return reply_ok(fd);
        }
        if (strcmp(what, "loglevel") == 0) {
            strcpy(cfg_loglevel, value);   // BUG: no length check
            var apply = cfg_apply_fn;
            apply();
            return reply_ok(fd);
        }
        return reply_err(fd, "unsupported parameter");
    }
    return reply_err(fd, "unknown CONFIG subcommand");
}

func cmd_flushall(fd, argc, argv) {
    init_db();
    return reply_ok(fd);
}

func cmd_dbsize(fd, argc, argv) {
    var count = 0;
    var i = 0;
    while (i < NSLOTS) {
        if (db_used[i]) { count = count + 1; }
        i = i + 1;
    }
    return reply_int(fd, count);
}

func cmd_info(fd, argc, argv) {
    var buf[128];
    strcpy(buf, "commands=");
    itoa(stat_commands, buf + 9);
    return reply_bulk(fd, buf);
}

func cmd_shutdown(fd, argc, argv) {
    reply_ok(fd);
    exit(0);
    return 0;
}

// ------------------------------------------------------------- dispatch

func split_ws(line, argv, max) {
    var argc = 0;
    var pos = 0;
    while (argc < max) {
        while (load8(line + pos) == ' ') { pos = pos + 1; }
        if (load8(line + pos) == 0) { break; }
        store64(argv + 8 * argc, line + pos);
        argc = argc + 1;
        while (load8(line + pos) != ' ' && load8(line + pos) != 0) {
            pos = pos + 1;
        }
        if (load8(line + pos) == 0) { break; }
        store8(line + pos, 0);
        pos = pos + 1;
    }
    return argc;
}

func dispatch(fd, argc, argv) {
    stat_commands = stat_commands + 1;
    var cmd = load64(argv);
    if (strcmp(cmd, "PING") == 0) { cmd_ping(fd, argc, argv); return 0; }
    if (strcmp(cmd, "ECHO") == 0) { cmd_echo(fd, argc, argv); return 0; }
    if (strcmp(cmd, "GET") == 0) { cmd_get(fd, argc, argv); return 0; }
    if (strcmp(cmd, "SET") == 0) { cmd_set(fd, argc, argv); return 0; }
    if (strcmp(cmd, "DEL") == 0) { cmd_del(fd, argc, argv); return 0; }
    if (strcmp(cmd, "EXISTS") == 0) { cmd_exists(fd, argc, argv); return 0; }
    if (strcmp(cmd, "STRLEN") == 0) { cmd_strlen(fd, argc, argv); return 0; }
    if (strcmp(cmd, "APPEND") == 0) { cmd_append(fd, argc, argv); return 0; }
    if (strcmp(cmd, "INCR") == 0) { cmd_incr(fd, argc, argv); return 0; }
    if (strcmp(cmd, "DECR") == 0) { cmd_decr(fd, argc, argv); return 0; }
    if (strcmp(cmd, "SETRANGE") == 0) { cmd_setrange(fd, argc, argv); return 0; }
    if (strcmp(cmd, "GETRANGE") == 0) { cmd_getrange(fd, argc, argv); return 0; }
    if (strcmp(cmd, "STRALGO") == 0) { cmd_stralgo(fd, argc, argv); return 0; }
    if (strcmp(cmd, "CONFIG") == 0) { cmd_config(fd, argc, argv); return 0; }
    if (strcmp(cmd, "FLUSHALL") == 0) { cmd_flushall(fd, argc, argv); return 0; }
    if (strcmp(cmd, "DBSIZE") == 0) { cmd_dbsize(fd, argc, argv); return 0; }
    if (strcmp(cmd, "INFO") == 0) { cmd_info(fd, argc, argv); return 0; }
    if (strcmp(cmd, "SHUTDOWN") == 0) { cmd_shutdown(fd, argc, argv); return 0; }
    asm(".marker redis_unknown_cmd");
    reply_err(fd, "unknown command");
    return 0;
}

func process_line(fd, line) {
    // strip trailing \r
    var len = strlen(line);
    if (len > 0 && load8(line + len - 1) == 13) { store8(line + len - 1, 0); }
    if (load8(line) == 0) { return 0; }
    var argv[64];
    var argc = split_ws(line, argv, 8);
    if (argc == 0) { return 0; }
    dispatch(fd, argc, argv);
    return 0;
}

// ------------------------------------------------------------- event loop

func close_client(i) {
    var fd = load64(cli_fds + 8 * i);
    if (fd) { close(fd); }
    store64(cli_fds + 8 * i, 0);
    store64(cli_len + 8 * i, 0);
    return 0;
}

func handle_readable(i) {
    var fd = load64(cli_fds + 8 * i);
    var used = load64(cli_len + 8 * i);
    var buf = cli_bufs + i * CBUF;
    var n = recv(fd, buf + used, CBUF - 1 - used);
    if (n <= 0) { close_client(i); return 0; }
    used = used + n;
    store8(buf + used, 0);
    while (1) {
        var idx = strchr_idx(buf, 10);
        if (idx < 0) { break; }
        store8(buf + idx, 0);
        process_line(fd, buf);
        var rest = used - idx - 1;
        memcpy(buf, buf + idx + 1, rest);
        used = rest;
        store8(buf + used, 0);
    }
    if (used >= CBUF - 1) { used = 0; }      // overlong line: drop it
    store64(cli_len + 8 * i, used);
    return 0;
}

func accept_client() {
    var fd = accept(listen_fd);
    if (fd < 0) { return 0; }
    var i = 0;
    while (i < MAXCLIENTS) {
        if (load64(cli_fds + 8 * i) == 0) {
            store64(cli_fds + 8 * i, fd);
            store64(cli_len + 8 * i, 0);
            stat_connections = stat_connections + 1;
            return 1;
        }
        i = i + 1;
    }
    close(fd);                               // table full
    return 0;
}

func event_loop() {
    while (1) {
        store64(pollfds, listen_fd);
        var count = 1;
        var i = 0;
        while (i < MAXCLIENTS) {
            var fd = load64(cli_fds + 8 * i);
            if (fd) {
                store64(pollfds + 8 * count, fd);
                count = count + 1;
            }
            i = i + 1;
        }
        var ready = poll(pollfds, count);
        if (ready < 0) { continue; }
        if (ready == 0) { accept_client(); continue; }
        var target = load64(pollfds + 8 * ready);
        i = 0;
        while (i < MAXCLIENTS) {
            if (load64(cli_fds + 8 * i) == target) { handle_readable(i); break; }
            i = i + 1;
        }
    }
    return 0;
}

func main(argc, argv) {
    load_config();
    init_db();
    init_clients();
    init_stats();
    init_listener();
    print_banner();
    event_loop();
    return 0;
}
"""


def build_miniredis(libc: SelfImage) -> SelfImage:
    """Compile and link the miniredis executable against ``libc``."""
    module = compile_source(REDIS_SOURCE, "miniredis.o", entry=True)
    return link_executable([module], REDIS_BINARY, libraries=[libc])


def install_default_config(fs, port: int = REDIS_PORT) -> None:
    """Write the default redis config into a kernel filesystem."""
    config = DEFAULT_CONFIG.replace(f"port {REDIS_PORT}", f"port {port}")
    fs.write_file(REDIS_CONFIG_PATH, config)
