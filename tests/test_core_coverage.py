"""Tests for coverage graphs, tracediff, and init-phase identification."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import CoverageGraph, init_only_blocks, tracediff
from repro.tracing import BlockRecord, CoverageTrace

_records = st.builds(
    BlockRecord,
    module=st.sampled_from(["app", "libc.so"]),
    offset=st.integers(0, 2048),
    size=st.integers(1, 16),
)


def _trace(records) -> CoverageTrace:
    trace = CoverageTrace()
    for record in records:
        trace.add(record)
    return trace


def _graph(records) -> CoverageGraph:
    return CoverageGraph.from_traces(_trace(records))


class TestCoverageGraphAlgebra:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(_records, max_size=40), st.lists(_records, max_size=40))
    def test_difference_semantics(self, a, b):
        ga, gb = _graph(a), _graph(b)
        diff = ga.difference(gb)
        assert diff.blocks == ga.blocks - gb.blocks
        # difference preserves ga's ordering
        positions = {rec: i for i, rec in enumerate(ga.order)}
        order_keys = [positions[rec] for rec in diff.order]
        assert order_keys == sorted(order_keys)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_records, max_size=40), st.lists(_records, max_size=40))
    def test_union_and_intersection(self, a, b):
        ga, gb = _graph(a), _graph(b)
        assert ga.union(gb).blocks == ga.blocks | gb.blocks
        assert ga.intersection(gb).blocks == ga.blocks & gb.blocks

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_records, max_size=40))
    def test_difference_with_self_is_empty(self, a):
        graph = _graph(a)
        assert len(graph.difference(graph)) == 0

    def test_restrict_and_exclude_modules(self):
        graph = _graph([
            BlockRecord("app", 0, 4),
            BlockRecord("libc.so", 8, 4),
        ])
        assert len(graph.restrict_to_module("app")) == 1
        assert len(graph.without_modules({"libc.so"})) == 1
        assert graph.modules() == ["app", "libc.so"]

    def test_total_size(self):
        graph = _graph([BlockRecord("app", 0, 4), BlockRecord("app", 8, 6)])
        assert graph.total_size() == 10


class TestTraceDiff:
    def _wanted(self):
        return _trace([
            BlockRecord("app", 0, 4),      # shared dispatcher
            BlockRecord("app", 16, 4),     # GET handler
            BlockRecord("libc.so", 0, 4),
        ])

    def _undesired(self):
        return _trace([
            BlockRecord("app", 0, 4),       # shared dispatcher
            BlockRecord("app", 64, 8),      # PUT arm (unique, first)
            BlockRecord("app", 80, 8),      # PUT handler body
            BlockRecord("libc.so", 32, 4),  # library helper (filtered)
        ])

    def test_unique_blocks_identified(self):
        feature = tracediff("put", [self._wanted()], [self._undesired()], "app")
        assert {b.offset for b in feature.blocks} == {64, 80}

    def test_entry_is_first_executed(self):
        feature = tracediff("put", [self._wanted()], [self._undesired()], "app")
        assert feature.entry.offset == 64

    def test_library_blocks_filtered(self):
        feature = tracediff("put", [self._wanted()], [self._undesired()], "app")
        assert all(b.module == "app" for b in feature.blocks)

    def test_no_overlap_with_wanted(self):
        feature = tracediff("put", [self._wanted()], [self._undesired()], "app")
        wanted_blocks = self._wanted().blocks
        assert not (set(feature.blocks) & wanted_blocks)

    def test_multiple_wanted_traces_merge(self):
        extra = _trace([BlockRecord("app", 80, 8)])  # covers the PUT body
        feature = tracediff(
            "put", [self._wanted(), extra], [self._undesired()], "app"
        )
        assert {b.offset for b in feature.blocks} == {64}

    def test_feature_size_accounting(self):
        feature = tracediff("put", [self._wanted()], [self._undesired()], "app")
        assert feature.total_size() == 16

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_records, max_size=30), st.lists(_records, max_size=30))
    def test_invariant_disjoint_from_wanted(self, wanted, undesired):
        feature = tracediff("f", [_trace(wanted)], [_trace(undesired)], "app")
        wanted_set = _trace(wanted).blocks
        assert not (set(feature.blocks) & wanted_set)
        assert all(b.module == "app" for b in feature.blocks)


class TestInitPhase:
    def test_init_only_subset(self):
        init = _trace([
            BlockRecord("app", 0, 4),
            BlockRecord("app", 16, 4),
            BlockRecord("app", 32, 4),
        ])
        serving = _trace([
            BlockRecord("app", 0, 4),       # executed in both phases
            BlockRecord("app", 64, 4),
        ])
        report = init_only_blocks(init, serving, "app")
        assert {b.offset for b in report.init_only} == {16, 32}
        assert report.init_executed == 3
        assert report.serving_executed == 2
        assert report.total_executed == 4
        assert abs(report.removable_fraction - 0.5) < 1e-9

    def test_module_scoping(self):
        init = _trace([BlockRecord("libc.so", 0, 4), BlockRecord("app", 0, 4)])
        serving = _trace([])
        report = init_only_blocks(init, serving, "app")
        assert {b.module for b in report.init_only} == {"app"}

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_records, max_size=30), st.lists(_records, max_size=30))
    def test_invariants(self, init, serving):
        init_trace, serving_trace = _trace(init), _trace(serving)
        report = init_only_blocks(init_trace, serving_trace, "app")

        def byte_set(records):
            out = set()
            for record in records:
                if record.module == "app":
                    out.update(range(record.offset, record.offset + record.size))
            return out

        init_bytes = byte_set(init_trace.blocks)
        serving_bytes = byte_set(serving_trace.blocks)
        removable = byte_set(report.init_only)
        # removable bytes executed during init and never while serving
        assert removable == init_bytes - serving_bytes
        # ranges are maximal: no two are adjacent or overlapping
        ranges = sorted((b.offset, b.size) for b in report.init_only)
        for (s1, z1), (s2, __) in zip(ranges, ranges[1:]):
            assert s1 + z1 < s2
        # removed blocks are real init-trace blocks with removable entries
        for block in report.removed_blocks:
            assert block in init_trace.blocks
            assert block.offset in removable

    def test_empty_phases(self):
        report = init_only_blocks(_trace([]), _trace([]), "app")
        assert report.removable_count == 0
        assert report.removable_fraction == 0.0
