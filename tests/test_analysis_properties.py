"""Properties of static CFG recovery and of the classifications kept
with it.

DynaLint's removal-set refinement maps dynamic BlockRecords onto static
CFG blocks; the mapping is only sound if every block the tracer ever
observes starts at a static block leader.  This is exercised over the
three servers, two SPEC kernels, and hypothesis-generated MiniC
programs.  Refinement keeps each classification in the image's store
entry, so a stored verdict must be what a fresh classification of the
same sets says.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.analysis import build_cfg, classify_block_starts
from repro.analysis.cfg import image_analyses
from repro.analysis.reachability import _classified
from repro.apps import get_benchmark, redis_image, stage_spec
from repro.apps.spec.common import INIT_DONE_LINE
from repro.kernel import Kernel
from repro.tracing import BlockTracer, CoverageTrace

from .helpers import build_minic

_CFG_CACHE: dict[str, frozenset[int]] = {}


def _leaders_of(image) -> frozenset[int]:
    starts = _CFG_CACHE.get(image.name)
    if starts is None:
        starts = frozenset(build_cfg(image).block_starts())
        _CFG_CACHE[image.name] = starts
    return starts


def missing_leaders(kernel: Kernel, trace: CoverageTrace) -> list[tuple[str, int]]:
    """Traced (module, offset) pairs that are not static CFG leaders."""
    missing = []
    for record in trace.blocks:
        image = kernel.binaries.get(record.module)
        if image is None:       # [anon] and other unregistered regions
            continue
        if record.offset not in _leaders_of(image):
            missing.append((record.module, record.offset))
    return missing


def _trace_server(stager, client_factory, requests):
    kernel = Kernel()
    proc = stager(kernel)
    client = client_factory(kernel)
    tracer = BlockTracer(kernel, proc).attach()
    for request in requests:
        client(*request) if isinstance(request, tuple) else client(request)
    trace = tracer.finish()
    assert len(trace.blocks) > 50       # the workload really ran
    return kernel, trace


class TestServerCoverage:
    def test_lighttpd_blocks_are_static_leaders(self):
        from repro.apps import LIGHTTPD_PORT, stage_lighttpd
        from repro.workloads import HttpClient

        kernel, trace = _trace_server(
            stage_lighttpd,
            lambda k: HttpClient(k, LIGHTTPD_PORT).request,
            [("GET", "/"), ("GET", "/about.html"), ("PUT", "/upload"),
             ("DELETE", "/index.html"), ("GET", "/missing")],
        )
        assert missing_leaders(kernel, trace) == []

    def test_nginx_blocks_are_static_leaders(self):
        from repro.apps import NGINX_PORT, nginx_worker, stage_nginx
        from repro.workloads import HttpClient

        kernel = Kernel()
        master = stage_nginx(kernel)
        worker = nginx_worker(kernel, master)   # requests run here
        client = HttpClient(kernel, NGINX_PORT)
        tracer = BlockTracer(kernel, worker).attach()
        for method, path in [("GET", "/"), ("GET", "/index.html"),
                             ("POST", "/submit"), ("GET", "/nope")]:
            client.request(method, path)
        trace = tracer.finish()
        assert len(trace.blocks) > 50
        assert missing_leaders(kernel, trace) == []

    def test_redis_blocks_are_static_leaders(self):
        from repro.apps import REDIS_PORT, stage_redis
        from repro.workloads import RedisClient

        kernel, trace = _trace_server(
            stage_redis,
            lambda k: RedisClient(k, REDIS_PORT).command,
            ["PING", "SET k v", "GET k", "DEL k", "DBSIZE", "GET missing"],
        )
        assert missing_leaders(kernel, trace) == []


class TestSpecCoverage:
    def _trace_benchmark(self, name):
        kernel = Kernel()
        proc = stage_spec(kernel, name, iterations=1, run_to_init=False)
        tracer = BlockTracer(kernel, proc).attach()
        kernel.run_until(
            lambda: INIT_DONE_LINE in proc.stdout_text(),
            max_instructions=10_000_000,
        )
        kernel.run_until(lambda: not proc.alive, max_instructions=30_000_000)
        trace = tracer.finish(quiesce=False)
        assert not proc.alive
        binary = get_benchmark(name).binary
        assert any(r.module == binary for r in trace.blocks)
        return kernel, trace

    def test_mcf_blocks_are_static_leaders(self):
        kernel, trace = self._trace_benchmark("605.mcf_s")
        assert missing_leaders(kernel, trace) == []

    def test_leela_blocks_are_static_leaders(self):
        kernel, trace = self._trace_benchmark("641.leela_s")
        assert missing_leaders(kernel, trace) == []


class TestGeneratedPrograms:
    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(2, 9),
        st.lists(st.integers(-9, 9), min_size=1, max_size=4),
    )
    def test_minic_blocks_are_static_leaders(self, bound, constants):
        terms = " + ".join(f"f({c}, i)" for c in constants)
        source = f"""
func f(c, i) {{
    if (c < 0) {{ return i - c; }}
    if (i % 2 == 0) {{ return c + i; }}
    return c * 2;
}}
func main() {{
    var acc = 0;
    var i = 0;
    while (i < {bound}) {{
        acc = acc + {terms};
        i = i + 1;
    }}
    return acc % 251;
}}
"""
        image = build_minic(source, f"gen{bound}_{len(constants)}",
                            with_libc=False)
        # names repeat across hypothesis examples with different code
        _CFG_CACHE.pop(image.name, None)
        kernel = Kernel()
        kernel.register_binary(image)
        proc = kernel.spawn(image.name)
        tracer = BlockTracer(kernel, proc).attach()
        kernel.run(max_instructions=2_000_000, until=lambda: not proc.alive)
        trace = tracer.finish(quiesce=False)
        assert not proc.alive
        assert missing_leaders(kernel, trace) == []


class TestStoredClassifications:
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_stored_verdicts_equal_a_fresh_classification(self, data):
        analyses = image_analyses(redis_image())
        starts = sorted(analyses.cfg.block_starts())
        block = st.sampled_from(starts)
        removed = data.draw(st.sets(block, min_size=1, max_size=60))
        entries = data.draw(st.sets(st.sampled_from(sorted(removed))))
        roots = data.draw(st.none() | st.frozensets(block, max_size=60))
        extra_edges = data.draw(st.none() | st.dictionaries(
            block, st.lists(block, min_size=1, max_size=4).map(tuple),
            max_size=8,
        ))
        stored = _classified(analyses, removed, entries, roots, extra_edges)
        fresh = classify_block_starts(
            analyses.cfg, set(removed), set(entries),
            roots=None if roots is None else set(roots),
            extra_edges=extra_edges,
        )
        assert dict(stored.verdicts) == fresh
        # the same sets again: the store answers, with the same verdicts
        again = _classified(
            analyses, set(removed), set(entries), roots, extra_edges
        )
        assert again is stored
