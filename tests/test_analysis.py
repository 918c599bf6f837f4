"""Tests for static CFG recovery, PLT analysis and the analysis caches."""

from __future__ import annotations

from collections import Counter

from repro import telemetry
from repro.analysis import (
    build_cfg,
    cached_cfg,
    executed_plt_entries,
    plt_entries_in_blocks,
    plt_entry_at,
    total_basic_blocks,
)
from repro.analysis.cfg import _CFG_CACHE
from repro.analysis.dataflow import analyze_image_flow
from repro.analysis.dataflow.valueset import _FLOW_CACHE
from repro.apps import stage_lighttpd
from repro.binfmt import PLT_STUB_SIZE
from repro.kernel import Kernel
from repro.telemetry import (
    TelemetryHub,
    prometheus_snapshot,
    recording,
    to_jsonl,
)
from repro.tracing import BlockRecord, BlockTracer

from .helpers import build_minic


class TestCfg:
    def test_straight_line_is_few_blocks(self):
        image = build_minic(
            "func main() { return 3; }", "straight", with_libc=False
        )
        cfg = build_cfg(image)
        assert cfg.block_count >= 2  # _start shim + main

    def test_branches_split_blocks(self):
        flat = build_minic("func main() { return 1; }", "flat", with_libc=False)
        branchy = build_minic(
            "func main(argc, argv) { if (argc > 1) { return 1; } "
            "if (argc > 2) { return 2; } return 3; }",
            "branchy",
            with_libc=False,
        )
        assert build_cfg(branchy).block_count > build_cfg(flat).block_count

    def test_blocks_do_not_overlap(self):
        image = build_minic(
            "func f(x) { if (x) { return 1; } return 2; }\n"
            "func main() { return f(0) + f(1); }",
            "olap",
            with_libc=False,
        )
        cfg = build_cfg(image)
        blocks = sorted(cfg.blocks)
        for a, b in zip(blocks, blocks[1:]):
            assert a.end <= b.start

    def test_every_executed_block_is_a_static_leader(self):
        image = build_minic(
            "func fact(n) { if (n <= 1) { return 1; } return n * fact(n - 1); }\n"
            "func main() { return fact(6) % 251; }",
            "factorial",
            with_libc=False,
        )
        kernel = Kernel()
        kernel.register_binary(image)
        proc = kernel.spawn("factorial")
        tracer = BlockTracer(kernel, proc).attach()
        kernel.run_until(lambda: not proc.alive)
        trace = tracer.finish()
        leaders = build_cfg(image).block_starts()
        for block in trace.module_blocks("factorial"):
            assert block.offset in leaders, hex(block.offset)

    def test_unreached_functions_still_counted(self):
        image = build_minic(
            "func dead() { return 9; }\nfunc main() { return 1; }",
            "withdead",
            with_libc=False,
        )
        cfg = build_cfg(image)
        dead_addr = image.symbol_address("dead")
        assert cfg.block_at(dead_addr) is not None

    def test_edges_present_for_conditionals(self):
        image = build_minic(
            "func main(argc, argv) { if (argc) { return 1; } return 0; }",
            "edges",
            with_libc=False,
        )
        cfg = build_cfg(image)
        # at least one block has two successors (taken + fallthrough)
        assert any(len(succ) == 2 for succ in cfg.edges.values())

    def test_total_basic_blocks_helper(self):
        image = build_minic("func main() { return 0; }", "tb", with_libc=False)
        assert total_basic_blocks(image) == build_cfg(image).block_count

    def test_plt_stubs_are_blocks(self, redis_binary):
        cfg = build_cfg(redis_binary)
        starts = cfg.block_starts()
        for name, stub in redis_binary.plt_entries.items():
            assert stub in starts, f"plt stub for {name} not a block"


class TestPltAnalysis:
    def test_plt_entry_at(self, redis_binary):
        name, stub = next(iter(redis_binary.plt_entries.items()))
        assert plt_entry_at(redis_binary, stub) == name
        assert plt_entry_at(redis_binary, stub + PLT_STUB_SIZE - 1) == name

    def test_plt_entry_at_miss(self, redis_binary):
        assert plt_entry_at(redis_binary, 0x1) is None

    def test_blocks_map_to_entries(self, redis_binary):
        name, stub = next(iter(redis_binary.plt_entries.items()))
        blocks = [BlockRecord(redis_binary.name, stub, PLT_STUB_SIZE)]
        assert name in plt_entries_in_blocks(redis_binary, blocks)

    def test_executed_plt_entries_from_trace(self, redis_server, redis_binary):
        kernel, proc, client = redis_server
        tracer = BlockTracer(kernel, proc).attach()
        client.ping()
        trace = tracer.finish()
        executed = executed_plt_entries(redis_binary, trace)
        # PING replies through send -> the send PLT entry must be hot
        assert "send" in executed
        assert "recv" in executed


def _staged_binaries():
    kernel = Kernel()
    stage_lighttpd(kernel)
    return list(kernel.binaries.values())


def _lookups(binaries):
    for binary in binaries:
        cached_cfg(binary)
        analyze_image_flow(binary)
        analyze_image_flow(binary, cached_cfg(binary))


class TestDigestCacheTelemetry:
    """What the analysis caches report depends on the recording alone."""

    def _record(self, binaries):
        hub = TelemetryHub(lambda: 0)
        with recording(hub):
            _lookups(binaries)
        return to_jsonl(hub), prometheus_snapshot(hub.registry)

    def test_cold_and_warm_recordings_export_the_same(self):
        binaries = _staged_binaries()
        _CFG_CACHE.clear()
        _FLOW_CACHE.clear()
        cold_events, cold_snapshot = self._record(binaries)
        warm_events, warm_snapshot = self._record(binaries)
        assert cold_events == warm_events
        assert cold_snapshot == warm_snapshot
        # a recording's first lookup of each image is its miss
        for cache in ("cfg", "dynaflow"):
            for outcome in ("hits", "misses"):
                sample = f'dynacut_{cache}_cache_{outcome}{{image="minilight"}} 1'
                assert sample in warm_snapshot
        assert 'dynacut_dynaflow_blocks_analyzed{image="minilight"}' in (
            warm_snapshot
        )

    def test_unrecorded_lookups_report_the_store(self, monkeypatch):
        binaries = _staged_binaries()
        _lookups(binaries)
        tally: Counter[str] = Counter()
        count = telemetry.count

        def tallying(name, n=1, **labels):
            tally[name] += n
            return count(name, n, **labels)

        monkeypatch.setattr(telemetry, "count", tallying)
        for binary in binaries:
            cached_cfg(binary)
            analyze_image_flow(binary)
        assert tally == {
            "cfg_cache_hits": len(binaries),
            "dynaflow_cache_hits": len(binaries),
        }
