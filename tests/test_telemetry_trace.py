"""Unit tests for DynaTrace: per-request tracing and attribution.

Covers the span-tree construction and incremental phase accounting of
:class:`TraceContext`, trap-window pairing, the ambient no-op API, the
structural-recomputation identity of :func:`attribute_traces`, exact
nearest-rank percentiles, histogram quantiles (registry + Prometheus
round-trip), the structural span IDs of the aggregate
:class:`SpanTracer`, and the driver-level properties: failover-event
attribution and byte-identical same-seed trace exports.
"""

from __future__ import annotations

import pytest

from repro.apps import REDIS_PORT, stage_redis
from repro.kernel import Kernel
from repro.kernel.network import SocketDescriptor
from repro.telemetry import (
    MetricsRegistry,
    RequestTracer,
    SpanTracer,
    TelemetryHub,
    TraceError,
    attribute_traces,
    parse_prometheus,
    percentile,
    prometheus_snapshot,
    quantile_from_buckets,
    read_trace_jsonl,
    recording,
    to_trace_jsonl,
)
from repro.telemetry import trace
from repro.telemetry.trace import leg_phase
from repro.workloads import (
    SECOND_NS,
    RedisClient,
    run_request_timeline,
)


class FakeClock:
    def __init__(self, t: int = 0):
        self.t = t

    def __call__(self) -> int:
        return self.t

    def advance(self, ns: int) -> None:
        self.t += ns


@pytest.fixture(autouse=True)
def _no_leaked_context():
    yield
    assert trace.current() is None


class TestTraceContext:
    def test_phases_sum_to_wall_and_identity_holds(self):
        clock = FakeClock()
        tracer = RequestTracer()
        ctx = tracer.begin(clock, index=0)
        with ctx.stall("rollout-step-0"):
            clock.advance(100)
            trace.note_rewrite(40)
        with ctx.leg("dispatch"):
            with ctx.leg("mesh.hop", shard="host-0"):
                with ctx.aux("route", "route"):
                    clock.advance(5)
                ctx.note_trap_delivered(7, clock.t, 0x400100)
                clock.advance(8)
                ctx.note_trap_returned(7, clock.t)
                clock.advance(30)
        tracer.finish(ctx, ok=True)

        assert ctx.phases == {
            "route": 5, "serve": 30, "hop": 0, "trap": 8,
            "rewrite-stall": 40, "control": 60, "shed": 0,
        }
        assert ctx.wall_ns == 143
        assert ctx.root.attrs["wall_ns"] == ctx.root.attrs["observed_ns"] == 143
        report = attribute_traces(tracer)
        assert report["summary"]["identity_violations"] == 0
        assert report["requests"][0]["phases"] == {
            "route": 5, "serve": 30, "trap": 8,
            "rewrite-stall": 40, "control": 60,
        }

    def test_app_level_error_leg_is_serve_time(self):
        clock = FakeClock()
        tracer = RequestTracer()
        ctx = tracer.begin(clock)
        with ctx.leg("dispatch"):
            with pytest.raises(ValueError):
                with ctx.leg("mesh.hop", shard="host-0"):
                    clock.advance(12)
                    raise ValueError("application-level failure")
            with ctx.leg("mesh.hop", shard="host-1"):
                clock.advance(20)
        tracer.finish(ctx, ok=True)
        # a generic error is not a routing error: both legs are serve
        assert ctx.phases["serve"] == 32
        assert ctx.phases["hop"] == 0
        assert ctx.hops == 0

    def test_routing_error_statuses_classify_as_hop(self):
        assert leg_phase("mesh.hop", "error:NoBackendAvailable") == "hop"
        assert leg_phase("mesh.hop", "error:InjectedFault") == "hop"
        assert leg_phase("mesh.hop", "ok") == "serve"
        assert leg_phase("dispatch", "error:NoBackendAvailable") == "serve"

    def test_leg_wrapping_hops_contributes_no_self_time(self):
        clock = FakeClock()
        tracer = RequestTracer()
        ctx = tracer.begin(clock)
        with ctx.leg("dispatch"):
            clock.advance(3)         # driver-side overhead around the hop
            with ctx.leg("mesh.hop", clock=clock, shard="host-0"):
                clock.advance(50)
            clock.advance(2)
        tracer.finish(ctx, ok=True)
        # the dispatch wrapper spans clock domains: only the hop counts
        assert ctx.phases["serve"] == 50
        assert ctx.wall_ns == 50

    def test_trap_marks_pair_lifo_per_pid(self):
        clock = FakeClock()
        tracer = RequestTracer()
        ctx = tracer.begin(clock)
        with ctx.leg("dispatch"):
            ctx.note_trap_delivered(1, 10, 0xA)
            ctx.note_trap_delivered(1, 14, 0xB)    # nested delivery
            ctx.note_trap_returned(1, 20)          # closes 0xB: 6 ns
            ctx.note_trap_returned(1, 30)          # closes 0xA: 20 ns
            clock.advance(40)
        tracer.finish(ctx, ok=True)
        traps = [s for s in ctx.spans if s.name == "trap"]
        assert [(s.attrs["address"], s.duration_ns) for s in traps] == [
            (0xB, 6), (0xA, 20),
        ]
        assert ctx.phases["trap"] == 26
        assert ctx.unmatched_traps == 0

    def test_unmatched_marks_are_counted_not_guessed(self):
        clock = FakeClock()
        tracer = RequestTracer()
        ctx = tracer.begin(clock)
        ctx.note_trap_delivered(5, 0, 0xC)   # never sigreturns
        ctx.note_trap_returned(99, 10)       # sigreturn with no mark: ignored
        tracer.finish(ctx, ok=True)
        assert ctx.traps == 0
        assert ctx.unmatched_traps == 1
        assert ctx.root.attrs["unmatched_traps"] == 1

    def test_nested_begin_raises(self):
        tracer = RequestTracer()
        ctx = tracer.begin(FakeClock())
        with pytest.raises(TraceError):
            tracer.begin(FakeClock())
        tracer.finish(ctx, ok=True)

    def test_finish_with_open_span_raises(self):
        clock = FakeClock()
        tracer = RequestTracer()
        ctx = tracer.begin(clock)
        with ctx.leg("dispatch"):
            with pytest.raises(TraceError):
                ctx.finish(ok=True)
        # clean up the ambient slot for the leak check
        tracer.finish(ctx, ok=True)

    def test_outcome_tag_wins_over_ok_flag(self):
        tracer = RequestTracer()
        ctx = tracer.begin(FakeClock())
        trace.tag_outcome("shed")
        tracer.finish(ctx, ok=False)
        assert ctx.outcome == "shed"
        assert ctx.root.attrs["outcome"] == "shed"
        assert ctx.root.status == "error"

    def test_stall_rewrite_clamped_to_self_time(self):
        clock = FakeClock()
        tracer = RequestTracer()
        ctx = tracer.begin(clock)
        with ctx.stall("step"):
            clock.advance(10)
            trace.note_rewrite(25)   # reported cost exceeds elapsed stall
        tracer.finish(ctx, ok=True)
        assert ctx.phases["rewrite-stall"] == 10
        assert ctx.phases["control"] == 0
        assert attribute_traces(tracer)["summary"]["identity_violations"] == 0


class TestAmbientApi:
    def test_noops_without_active_context(self):
        with trace.leg_span("dispatch") as span:
            assert span is None
        with trace.aux_span("nudge", "shed") as span:
            assert span is None
        trace.tag_outcome("served")
        trace.note_trap_delivered(1, 0, 0)
        trace.note_trap_returned(1, 0)
        trace.note_rewrite(100)
        trace.note_member_failover()

    def test_ambient_spans_reach_the_active_context(self):
        clock = FakeClock()
        tracer = RequestTracer()
        ctx = tracer.begin(clock)
        with trace.leg_span("dispatch"):
            with trace.aux_span("route", "route"):
                clock.advance(4)
            trace.note_member_failover()
            clock.advance(6)
        tracer.finish(ctx, ok=True)
        assert ctx.phases["route"] == 4
        assert ctx.phases["serve"] == 6
        assert ctx.intra_failovers == 1

    def test_finish_emits_wall_and_phase_metrics(self):
        hub = TelemetryHub()
        with recording(hub):
            tracer = RequestTracer()
            clock = FakeClock()
            ctx = tracer.begin(clock)
            with ctx.leg("dispatch"):
                clock.advance(11)
            tracer.finish(ctx, ok=True)
        reg = hub.registry
        assert reg.counter_value("traced_requests_total", outcome="ok") == 1
        hist = reg.histogram("request_wall_ns", outcome="ok")
        assert hist.count == 1 and hist.total == 11
        assert reg.histogram("request_phase_ns", phase="serve").total == 11


class TestRequestTracerIds:
    def test_ids_are_monotonic_across_traces(self):
        tracer = RequestTracer()
        for index in range(3):
            ctx = tracer.begin(FakeClock(), index=index)
            with ctx.leg("dispatch"):
                pass
            tracer.finish(ctx, ok=True)
        assert [ctx.trace_id for ctx in tracer.traces] == [1, 2, 3]
        span_ids = [span.span_id for span in tracer.spans()]
        assert span_ids == sorted(span_ids) == list(range(1, 7))

    def test_request_walls_in_trace_order(self):
        tracer = RequestTracer()
        for ns in (7, 3):
            clock = FakeClock()
            ctx = tracer.begin(clock)
            with ctx.leg("dispatch"):
                clock.advance(ns)
            tracer.finish(ctx, ok=True)
        assert tracer.request_walls() == [7, 3]


class TestSpanTracerStructuralIds:
    """Satellite: the aggregate tracer records parents by span ID."""

    def test_same_name_siblings_have_distinct_identities(self):
        clock = FakeClock()
        tracer = SpanTracer(clock)
        with tracer.span("outer"):
            with tracer.span("step"):
                clock.advance(1)
            with tracer.span("step"):
                clock.advance(2)
        # finished-order is close-order; resolve by name/id instead
        spans = {span.span_id: span for span in tracer.finished}
        steps = [s for s in tracer.finished if s.name == "step"]
        root = next(s for s in tracer.finished if s.name == "outer")
        assert len({s.span_id for s in tracer.finished}) == 3
        for step in steps:
            assert step.parent_id == root.span_id
            assert step.parent == "outer"
            assert spans[step.parent_id].name == "outer"
        assert root.parent_id is None

    def test_span_ids_serialize(self):
        clock = FakeClock()
        tracer = SpanTracer(clock)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner = next(s for s in tracer.finished if s.name == "inner")
        payload = inner.to_dict()
        assert payload["span_id"] == inner.span_id
        assert payload["parent_id"] == inner.parent_id


class TestQuantiles:
    """Satellite: exact-value histogram quantiles + Prometheus export."""

    def test_quantile_interpolates_within_buckets(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", bounds=(10, 20, 30))
        for value in (2, 4, 6, 8, 12, 14, 16, 18, 22, 24):
            hist.observe(value)
        # rank 5 falls at the end of the first bucket (4 obs in (0,10],
        # running 4, need rank 5 of 10): second bucket interpolates
        assert hist.quantile(0.5) == pytest.approx(12.5)
        assert hist.quantile(0.0) == 2       # clamped to observed min
        assert hist.quantile(1.0) == 24      # clamped to observed max

    def test_quantile_none_when_empty_and_validates_q(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat")
        assert hist.quantile(0.5) is None
        hist.observe(1)
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_quantile_from_buckets_plus_inf_tail(self):
        # all mass beyond the last finite bound: fall back to hi
        value = quantile_from_buckets(
            (10,), [0, 4], count=4, q=0.99, lo=50, hi=90
        )
        assert value == 90

    def test_snapshot_includes_percentiles(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", bounds=(100,))
        for value in range(1, 11):
            hist.observe(value)
        snap = reg.snapshot()["histograms"]["lat"]
        assert {"p50", "p95", "p99"} <= set(snap)
        assert snap["p50"] == hist.quantile(0.5)

    def test_prometheus_quantile_family_round_trips(self):
        reg = MetricsRegistry()
        hist = reg.histogram("request_wall_ns", bounds=(10, 100), outcome="ok")
        for value in (5, 50, 500):
            hist.observe(value)
        text = prometheus_snapshot(reg)
        assert '# TYPE dynacut_request_wall_ns_quantile gauge' in text
        values = parse_prometheus(text)
        key = 'dynacut_request_wall_ns_quantile{outcome="ok",q="0.5"}'
        assert key in values
        assert values[key] == hist.quantile(0.5)

    def test_empty_histogram_renders_no_quantiles(self):
        reg = MetricsRegistry()
        reg.histogram("lat")
        text = prometheus_snapshot(reg)
        assert "_quantile" not in text
        parse_prometheus(text)


class TestPercentile:
    def test_nearest_rank_is_an_observed_value(self):
        values = [17, 3, 99, 42, 8]
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert percentile(values, q) in values
        assert percentile(values, 0.5) == 17
        assert percentile(values, 1.0) == 99
        assert percentile(values, 0.0) == 3

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1], 1.5)


class TestTraceExport:
    def _synthetic(self) -> RequestTracer:
        tracer = RequestTracer()
        clock = FakeClock()
        ctx = tracer.begin(clock, index=0)
        with ctx.leg("dispatch"):
            with ctx.leg("mesh.hop", shard="host-0", hop=0):
                clock.advance(21)
        tracer.finish(ctx, ok=True)
        return tracer

    def test_jsonl_round_trip(self):
        tracer = self._synthetic()
        text = to_trace_jsonl(tracer)
        spans = read_trace_jsonl(text)
        assert to_trace_jsonl(spans) == text
        assert attribute_traces(spans)["summary"]["identity_violations"] == 0

    def test_span_stream_is_pinned(self):
        """Byte-level pin of the request-span export format."""
        clock = FakeClock(1_000)
        tracer = RequestTracer()
        ctx = tracer.begin(clock, index=0)
        with ctx.stall("rollout-step-0"):
            clock.advance(100)
            trace.note_rewrite(40)
        with ctx.leg("dispatch"):
            with ctx.leg("mesh.hop", shard="host-0", hop=0):
                with ctx.aux("route", "route", frontend=6378) as span:
                    clock.advance(5)
                    span.attrs["backend"] = 6379
                ctx.note_trap_delivered(7, clock.t, 0x400100)
                clock.advance(8)
                ctx.note_trap_returned(7, clock.t)
                clock.advance(30)
        tracer.finish(ctx, ok=True)
        assert to_trace_jsonl(tracer) == "".join(line + "\n" for line in (
            '{"attrs": {"hops": 0, "index": 0, "intra_failovers": 0, '
            '"observed_ns": 143, "ok": true, "outcome": "ok", "phases": '
            '{"control": 60, "rewrite-stall": 40, "route": 5, "serve": 30, '
            '"trap": 8}, "traps": 1, "unmatched_traps": 0, "wall_ns": 143}, '
            '"duration_ns": 143, "end_ns": 1143, "name": "request", '
            '"parent_id": null, "span_id": 1, "start_ns": 1000, '
            '"status": "ok", "trace_id": 1}',
            '{"attrs": {"label": "rollout-step-0", "rewrite_ns": 40}, '
            '"duration_ns": 100, "end_ns": 1100, "name": "stall", '
            '"parent_id": 1, "span_id": 2, "start_ns": 1000, '
            '"status": "ok", "trace_id": 1}',
            '{"attrs": {}, "duration_ns": 43, "end_ns": 1143, '
            '"name": "dispatch", "parent_id": 1, "span_id": 3, '
            '"start_ns": 1100, "status": "ok", "trace_id": 1}',
            '{"attrs": {"hop": 0, "shard": "host-0"}, "duration_ns": 43, '
            '"end_ns": 1143, "name": "mesh.hop", "parent_id": 3, '
            '"span_id": 4, "start_ns": 1100, "status": "ok", "trace_id": 1}',
            '{"attrs": {"backend": 6379, "frontend": 6378, "phase": "route"}, '
            '"duration_ns": 5, "end_ns": 1105, "name": "route", '
            '"parent_id": 4, "span_id": 5, "start_ns": 1100, '
            '"status": "ok", "trace_id": 1}',
            '{"attrs": {"address": 4194560, "pid": 7}, "duration_ns": 8, '
            '"end_ns": 1113, "name": "trap", "parent_id": 4, "span_id": 6, '
            '"start_ns": 1105, "status": "ok", "trace_id": 1}',
        ))

    def test_attribute_traces_rejects_rootless_stream(self):
        tracer = self._synthetic()
        orphans = [s for s in tracer.spans() if s.parent_id is not None]
        with pytest.raises(ValueError):
            attribute_traces(orphans)

    def test_attribute_traces_rejects_pipeline_spans(self):
        pipeline = SpanTracer(FakeClock())
        with pipeline.span("request"):
            pass
        assert pipeline.finished[0].trace_id is None
        with pytest.raises(ValueError, match="belongs to no request"):
            attribute_traces(pipeline.finished)


def _traced_redis_run() -> tuple[RequestTracer, object]:
    kernel = Kernel()
    proc = stage_redis(kernel)
    client = RedisClient(kernel, REDIS_PORT)
    client.set("hot", "1")
    tracer = RequestTracer()
    result = run_request_timeline(
        kernel, lambda: client.get("hot") == "1",
        duration_ns=1 * SECOND_NS, tracer=tracer, max_requests=50,
    )
    return tracer, result


class TestDriverTracing:
    """Satellite: driver-level tracing and failover attribution."""

    def test_every_request_is_traced_with_identity(self):
        tracer, result = _traced_redis_run()
        assert len(tracer.traces) == result.total_requests > 0
        report = attribute_traces(tracer)
        assert report["summary"]["identity_violations"] == 0
        assert report["summary"]["requests"] == result.total_requests
        # single kernel: observed duration equals attributed wall time
        for record in report["requests"]:
            assert record["wall_ns"] == record["observed_ns"]

    def test_same_seed_exports_are_byte_identical(self):
        first, __ = _traced_redis_run()
        second, __ = _traced_redis_run()
        assert to_trace_jsonl(first) == to_trace_jsonl(second) != ""

    def test_failover_events_record_offset_and_count(self):
        kernel = Kernel()
        stage_redis(kernel)
        # a second backend whose listener is bound but orphaned (owner
        # crashed): the pool's view is stale until a dispatch bounces
        dead_port = REDIS_PORT + 1
        dead_sock = SocketDescriptor()
        assert kernel.net.bind(dead_sock, dead_port)
        assert kernel.net.listen(dead_sock)
        kernel.net.ports[dead_port].orphaned = True
        pool = kernel.net.register_frontend(
            6378, backends=[dead_port, REDIS_PORT]
        )
        client = RedisClient(kernel, 6378)
        tracer = RequestTracer()
        result = run_request_timeline(
            kernel, lambda: client.get("hot") is None,
            duration_ns=1 * SECOND_NS, max_requests=20,
            failover_meter=lambda: pool.total_failovers,
            tracer=tracer,
        )
        # the first pick landed on the orphaned backend exactly once:
        # the pool marked it down and routed around it, inside one request
        assert pool.total_failovers == 1
        assert result.failed_over_requests == 1
        assert result.failover_events == [(result.failover_events[0][0], 1)]
        offset, delta = result.failover_events[0]
        assert 0 <= offset <= 1 * SECOND_NS and delta == 1
        # ...and that same request's trace carries the failover tag
        flagged = [
            ctx for ctx in tracer.traces
            if ctx.root.attrs["intra_failovers"]
        ]
        assert len(flagged) == 1
        assert flagged[0].intra_failovers == 1

    def test_untraced_run_matches_traced_run_virtually(self):
        def run(tracer):
            kernel = Kernel()
            stage_redis(kernel)
            client = RedisClient(kernel, REDIS_PORT)
            client.set("hot", "1")
            result = run_request_timeline(
                kernel, lambda: client.get("hot") == "1",
                duration_ns=1 * SECOND_NS, tracer=tracer, max_requests=50,
            )
            return result, kernel.clock_ns

        traced, traced_clock = run(RequestTracer())
        plain, plain_clock = run(None)
        assert traced.total_requests == plain.total_requests
        assert traced_clock == plain_clock
        assert [p.completed for p in traced.points] == [
            p.completed for p in plain.points
        ]
