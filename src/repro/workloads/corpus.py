"""Profiling corpora: the request sets DynaCut's §3.1 profiles trace.

DynaCut finds a feature's code by tracing a *wanted* request set and
an *undesired* one and diffing the coverage, so the requests a profile
sends decide the removal set: coverage-based debloating is only as
good as its corpus.  Each profile the repository makes is one named
:class:`Corpus` in :data:`CORPORA`, and :func:`profile` is the one
boot → trace → nudge → diff recipe that runs it.  Editing a corpus
moves every committed result made with it.

A request is one string: a miniredis command line (``"SET a 1"``) or
``METHOD PATH [BODY]`` for the web servers (``"PUT /probe.txt x"``);
:func:`send` turns it into the client call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, NamedTuple

from ..apps import (
    LIGHTTPD_PORT,
    NGINX_PORT,
    REDIS_PORT,
    get_benchmark,
    httpd_lighttpd,
    httpd_nginx,
    kvstore,
    nginx_worker,
    stage_lighttpd,
    stage_nginx,
    stage_redis,
    stage_spec,
)
from ..apps.spec import INIT_DONE_LINE
from ..core import FeatureBlocks, TraceDiff, init_only_blocks
from ..core.initphase import InitPhaseReport
from ..kernel.kernel import Kernel
from ..kernel.process import Process
from ..tracing import BlockTracer, CoverageTrace, merge_traces
from ..tracing.drcov import BlockRecord
from .http_client import HttpClient, HttpResponse
from .redis_client import RedisClient

#: instruction bound of a traced boot; a bound never shortens a quantum,
#: so it only decides when a boot that never gets ready gives up
BOOT_BOUND = 20_000_000
#: instruction bound of a SPEC run to exit
EXIT_BOUND = 120_000_000


@dataclass(frozen=True)
class Corpus:
    """What one profile sends to one guest."""

    #: ``redis``, ``lighttpd``, ``nginx`` or a SPEC benchmark name
    app: str
    #: trace the boot and nudge at the ready line (the init phase)
    trace_init: bool = False
    #: ``(path, text)`` files written before serving
    files: tuple[tuple[str, str], ...] = ()
    #: the wanted requests, traced as one phase
    wanted: tuple[str, ...] = ()
    #: the undesired feature's name; ``None`` profiles no feature
    feature: str | None = None
    #: the feature's requests, traced after the wanted phase
    feature_requests: tuple[str, ...] = ()
    #: SPEC argv iteration count
    iterations: int | None = None
    #: SPEC instructions run after init; ``None`` runs to exit
    budget: int | None = None

    def against(self, command: str) -> Corpus:
        """This corpus profiling the miniredis ``command`` as its feature.

        The feature is the command word; wanted commands sharing it are
        dropped, so the undesired feature stays out of the wanted trace.
        """
        word = command.split()[0]
        wanted = tuple(w for w in self.wanted if w.split()[0] != word)
        return replace(
            self, wanted=wanted, feature=word, feature_requests=(command,)
        )


class _Server(NamedTuple):
    stage: Callable[..., Process]
    binary: str
    port: int
    client: Callable[[Kernel, int], HttpClient | RedisClient]
    ready_line: str
    #: the worker's ready line, for a master + worker tree
    worker_line: str | None = None


_SERVERS = {
    "redis": _Server(stage_redis, kvstore.REDIS_BINARY, REDIS_PORT,
                     RedisClient, kvstore.READY_LINE),
    "lighttpd": _Server(stage_lighttpd, httpd_lighttpd.LIGHTTPD_BINARY,
                        LIGHTTPD_PORT, HttpClient, httpd_lighttpd.READY_LINE),
    "nginx": _Server(stage_nginx, httpd_nginx.NGINX_BINARY, NGINX_PORT,
                     HttpClient, httpd_nginx.READY_LINE,
                     httpd_nginx.WORKER_LINE),
}


def send(client: HttpClient | RedisClient, request: str) -> HttpResponse | str:
    """Send one request string; return the client's reply."""
    if isinstance(client, RedisClient):
        return client.command(request)
    method, path, *body = request.split(" ", 2)
    return client.request(method, path, *body)


@dataclass
class Profile:
    """One corpus run: the traced guest and its coverage."""

    corpus: Corpus
    kernel: Kernel
    root: Process
    #: the client that sent the corpus (``None`` for SPEC)
    client: HttpClient | RedisClient | None
    binary: str
    init_trace: CoverageTrace | None
    #: the wanted phase (for SPEC, the run after init)
    wanted_trace: CoverageTrace
    feature_trace: CoverageTrace | None
    feature: FeatureBlocks | None

    @cached_property
    def serving_trace(self) -> CoverageTrace:
        """Everything traced after init."""
        if self.feature_trace is None:
            return self.wanted_trace
        return merge_traces([self.wanted_trace, self.feature_trace])

    @cached_property
    def init_report(self) -> InitPhaseReport:
        if self.init_trace is None:
            raise ValueError(f"{self.corpus.app} profile did not trace init")
        return init_only_blocks(self.init_trace, self.serving_trace, self.binary)

    @property
    def blocks(self) -> list[BlockRecord]:
        """The removal set: the feature's blocks, else the init-only code."""
        if self.feature is not None:
            return list(self.feature.blocks)
        return list(self.init_report.init_only)


def _run_to(kernel: Kernel, predicate: Callable[[], bool], what: str) -> None:
    if not kernel.run_until(predicate, max_instructions=BOOT_BOUND):
        raise RuntimeError(f"{what} never printed its ready line")


def _dump(tracers: list[BlockTracer], last: bool) -> CoverageTrace:
    """Nudge (or, for the ``last`` phase, finish) every tracer in order,
    each after quiescing its server."""
    traces = [
        tracer.finish() if last else tracer.nudge_dump() for tracer in tracers
    ]
    return traces[0] if len(traces) == 1 else merge_traces(traces)


def profile(corpus: Corpus) -> Profile:
    """Boot ``corpus.app`` on a scratch kernel and trace the corpus.

    Servers are traced from the ready line (or, with ``trace_init``,
    from spawn, nudged at the ready line), then through the wanted
    requests and the feature's; each nudge quiesces the server first.
    A master + worker server traces both processes.  SPEC guests trace
    init, then run ``budget`` instructions (or to exit) unquiesced.
    """
    if corpus.app not in _SERVERS:
        return _profile_spec(corpus)
    server = _SERVERS[corpus.app]
    kernel = Kernel()
    init_trace = None
    if corpus.trace_init:
        root = server.stage(kernel, run_to_ready=False)
        tracers = [BlockTracer(kernel, root).attach()]
        _run_to(kernel, lambda: server.ready_line in root.stdout_text(),
                corpus.app)
        if server.worker_line is not None:
            worker = nginx_worker(kernel, root)
            tracers.append(BlockTracer(kernel, worker).attach())
            _run_to(kernel, lambda: server.worker_line in worker.stdout_text(),
                    f"{corpus.app} worker")
        init_trace = _dump(tracers, last=False)
    else:
        root = server.stage(kernel)
        procs = [root]
        if server.worker_line is not None:
            procs.append(nginx_worker(kernel, root))
        tracers = [BlockTracer(kernel, proc).attach() for proc in procs]
    client = server.client(kernel, server.port)
    for path, text in corpus.files:
        kernel.fs.write_file(path, text)
    for request in corpus.wanted:
        send(client, request)
    has_feature = corpus.feature is not None
    wanted = _dump(tracers, last=not has_feature)
    undesired = feature = None
    if has_feature:
        for request in corpus.feature_requests:
            send(client, request)
        undesired = _dump(tracers, last=True)
        feature = TraceDiff(server.binary).feature_blocks(
            corpus.feature, [wanted], [undesired]
        )
    return Profile(corpus, kernel, root, client, server.binary, init_trace,
                   wanted, undesired, feature)


def _profile_spec(corpus: Corpus) -> Profile:
    binary = get_benchmark(corpus.app).binary
    kernel = Kernel()
    root = stage_spec(kernel, corpus.app, iterations=corpus.iterations,
                      run_to_init=False)
    tracer = BlockTracer(kernel, root).attach()
    _run_to(kernel, lambda: INIT_DONE_LINE in root.stdout_text(), corpus.app)
    init_trace = tracer.nudge_dump(quiesce=False)
    if corpus.budget is None:
        kernel.run_until(lambda: not root.alive, max_instructions=EXIT_BOUND)
    else:
        kernel.run(max_instructions=corpus.budget)
    serving = tracer.finish(quiesce=False)
    return Profile(corpus, kernel, root, None, binary, init_trace, serving,
                   None, None)


# ----------------------------------------------------------------------
# the registry: every profile a committed result or a tool makes

WEB_SERVERS = ("lighttpd", "nginx")
#: the web servers' ``dav-write`` feature: one well-formed DAV write
DAV_WRITE = {"feature": "dav-write",
             "feature_requests": ("PUT /probe.txt x", "DELETE /probe.txt")}
#: a page the dynalint and figure profiles serve next to the index
ABOUT_PAGE = (("/var/www/about.html", "<p>about</p>"),)
#: the web servers' request mix, without the DAV methods
HTTP_MIX = ("GET /missing.html", "HEAD /", "OPTIONS /", "POST /echo abcd")

#: iterations long enough that a mid-run rewrite finds the process alive
SPEC_ITERATIONS = {
    "600.perlbench_s": 40,
    "605.mcf_s": 400,
    "620.omnetpp_s": 40,
    "623.xalancbmk_s": 40,
    "625.x264_s": 10,
    "631.deepsjeng_s": 30,
    "641.leela_s": 2500,
}
#: instructions the figure and dynalint SPEC profiles run after init
SPEC_BUDGET = 1_500_000
#: SPEC guests of the dynalint study
DYNALINT_SPEC = ("600.perlbench_s", "605.mcf_s", "625.x264_s")

_FIGURES_REDIS = Corpus(
    "redis", trace_init=True,
    wanted=("PING", "SET a 1", "GET a", "DEL a", "EXISTS a", "DBSIZE",
            "INCR n", "APPEND a x", "STRLEN a"),
)

CORPORA: dict[str, Corpus] = {
    # the fleet's removal sets (FleetController, every fleet campaign)
    **{f"fleet-{app}": Corpus(app, wanted=("GET /", *HTTP_MIX), **DAV_WRITE)
       for app in WEB_SERVERS},
    "fleet-redis": Corpus("redis",
                          wanted=("PING", "GET a", "DEL a", "EXISTS a", "DBSIZE"),
                          feature="SET", feature_requests=("SET a 1",)),
    # ``dynalint_cli demo``, the quickstart rewrite
    "demo-redis": Corpus("redis",
                         wanted=("PING", "GET greeting", "DEL greeting", "DBSIZE"),
                         feature="SET", feature_requests=("SET greeting hello",)),
    # the refinement studies: thin wanted profiles that over-claim the
    # feature (the dynaflow-refinement record, and the
    # dynalint-refinement record for lighttpd)
    "dynalint-redis": Corpus("redis", trace_init=True,
                             wanted=("PING", "GET greeting"),
                             feature="set-write",
                             feature_requests=("SET greeting hello",
                                               "APPEND greeting x")),
    **{f"dynalint-{app}": Corpus(app, trace_init=True, files=ABOUT_PAGE,
                                 wanted=("GET /", "GET /about.html"),
                                 **DAV_WRITE)
       for app in WEB_SERVERS},
    **{f"dynalint-{name}": Corpus(name, trace_init=True, iterations=2,
                                  budget=SPEC_BUDGET)
       for name in DYNALINT_SPEC},
    # the chaos campaign
    "chaos-redis": Corpus("redis", wanted=("PING", "GET a", "DEL a", "EXISTS a"),
                          feature="SET", feature_requests=("SET a 1",)),
    "chaos-lighttpd": Corpus("lighttpd", wanted=("GET /", "HEAD /", "OPTIONS /"),
                             feature="dav-write",
                             feature_requests=("PUT /chaos.txt x",
                                               "DELETE /chaos.txt")),
    # the paper figures, tables and ablations (repro.experiments)
    "figures-redis": _FIGURES_REDIS,
    "figures-redis-set": _FIGURES_REDIS.against("SET probe v"),
    **{f"figures-{app}{suffix}": Corpus(app, trace_init=True, files=ABOUT_PAGE,
                                        wanted=("GET /", "GET /", "GET /",
                                                "GET /about.html", *HTTP_MIX),
                                        **feature)
       for app in WEB_SERVERS for suffix, feature in (("", {}), ("-dav", DAV_WRITE))},
    **{f"figures-{name}": Corpus(name, trace_init=True, iterations=iterations,
                                 budget=SPEC_BUDGET)
       for name, iterations in SPEC_ITERATIONS.items()},
    **{f"figures-{name}-exit": Corpus(name, trace_init=True, iterations=iterations)
       for name, iterations in SPEC_ITERATIONS.items()},
    # the transaction-overhead record
    "transaction-redis": Corpus("redis", wanted=("PING", "GET a", "DEL a"),
                                feature="SET", feature_requests=("SET a 1",)),
}
