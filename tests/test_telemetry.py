"""Unit tests for the DynaScope telemetry layer.

Covers the metrics registry, the span tracer, the hub (label scopes,
event stream, clock binding), the ambient module-level API, and both
exporters — including the determinism and reconstruction properties
the observability layer promises.
"""

from __future__ import annotations

import json

import pytest

from repro import telemetry
from repro.telemetry import (
    MetricsRegistry,
    SpanTracer,
    TelemetryError,
    TelemetryEvent,
    TelemetryHub,
    labelset,
    parse_prometheus,
    prometheus_snapshot,
    read_jsonl,
    recording,
    summarize_events,
    to_jsonl,
)


class TestLabelSet:
    def test_sorted_and_stringified(self):
        assert labelset({"port": 9000, "app": "x"}) == (
            ("app", "x"), ("port", "9000"),
        )

    def test_order_insensitive(self):
        assert labelset({"a": 1, "b": 2}) == labelset({"b": 2, "a": 1})


class TestRegistry:
    def test_counter_get_or_create(self):
        reg = MetricsRegistry()
        reg.counter("requests", port=1).inc()
        reg.counter("requests", port=1).inc(2)
        reg.counter("requests", port=2).inc()
        assert reg.counter_value("requests", port=1) == 3
        assert reg.counter_value("requests", port=2) == 1
        assert reg.counter_value("requests", port=3) == 0

    def test_counter_rejects_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("n").inc(-1)

    def test_sum_counters_over_family(self):
        reg = MetricsRegistry()
        reg.counter("hits", instance="a").inc(2)
        reg.counter("hits", instance="b").inc(3)
        reg.counter("other").inc(100)
        assert reg.sum_counters("hits") == 5

    def test_counters_by_label(self):
        reg = MetricsRegistry()
        reg.counter("dispatch", port=9000).inc(4)
        reg.counter("dispatch", port=9001).inc(1)
        assert reg.counters_by_label("dispatch", "port") == {
            "9000": 4, "9001": 1,
        }

    def test_gauge_set_and_add(self):
        reg = MetricsRegistry()
        reg.gauge("depth").set(3)
        reg.gauge("depth").add(-1)
        assert reg.gauge_value("depth") == 2

    def test_histogram_buckets_and_stats(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", bounds=(10, 100))
        for value in (5, 50, 500):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == 555
        assert hist.min == 5
        assert hist.max == 500
        assert hist.mean == 185
        assert hist.cumulative_buckets() == [
            ("10", 1), ("100", 2), ("+Inf", 3),
        ]

    def test_time_series_records_in_order(self):
        reg = MetricsRegistry()
        series = reg.series("rps", instance="a")
        series.record(1_000, 10.0)
        series.record(2_000, 12.0)
        assert series.last == 12.0
        assert series.points(scale_x=0.001) == [(1.0, 10.0), (2.0, 12.0)]

    def test_series_matching_sorted(self):
        reg = MetricsRegistry()
        reg.series("rps", instance="b").record(0, 1)
        reg.series("rps", instance="a").record(0, 2)
        labels = [dict(s.labels)["instance"] for s in reg.series_matching("rps")]
        assert labels == ["a", "b"]

    def test_snapshot_is_sorted_and_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a", x=1).inc()
        reg.histogram("h").observe(7)
        snap = reg.snapshot()
        assert list(snap["counters"]) == sorted(snap["counters"])
        json.dumps(snap)


class TestSpanTracer:
    def test_nesting_parent_and_depth(self):
        clock = {"t": 0}
        tracer = SpanTracer(lambda: clock["t"])
        with tracer.span("outer"):
            clock["t"] = 10
            with tracer.span("inner"):
                clock["t"] = 25
        inner, outer = tracer.finished
        assert inner.parent == "outer" and inner.depth == 1
        assert inner.start_ns == 10 and inner.duration_ns == 15
        assert outer.parent is None and outer.duration_ns == 25

    def test_exception_closes_span_with_error_status(self):
        tracer = SpanTracer(lambda: 0)
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (span,) = tracer.finished
        assert span.status == "error:RuntimeError"
        assert span.end_ns is not None

    def test_mid_span_attributes(self):
        tracer = SpanTracer(lambda: 0)
        with tracer.span("stage") as span:
            span.set("pages", 4)
        assert tracer.finished[0].attrs == {"pages": 4}


class TestHub:
    def test_emit_uses_bound_clock(self):
        clock = {"t": 42}
        hub = TelemetryHub(lambda: clock["t"])
        event = hub.emit("journal", "begin")
        assert event.clock_ns == 42
        clock["t"] = 43
        assert hub.emit("journal", "commit").clock_ns == 43

    def test_label_scope_merges_into_everything(self):
        hub = TelemetryHub(lambda: 0)
        with hub.labels(instance="web-0"):
            hub.count("traps_total")
            event = hub.emit("traps", "sync", total=1)
        assert event.label("instance") == "web-0"
        assert hub.registry.counter_value("traps_total", instance="web-0") == 1

    def test_nested_scopes_merge_and_unwind(self):
        hub = TelemetryHub(lambda: 0)
        with hub.labels(instance="a"):
            with hub.labels(phase="commit"):
                assert hub.active_labels() == {
                    "instance": "a", "phase": "commit",
                }
            assert hub.active_labels() == {"instance": "a"}
        assert hub.active_labels() == {}

    def test_finished_span_becomes_event_and_histogram(self):
        clock = {"t": 0}
        hub = TelemetryHub(lambda: clock["t"])
        with hub.span("customize"):
            clock["t"] = 5_000_000
        (event,) = [e for e in hub.events if e.kind == "span"]
        assert event.name == "customize"
        assert event.field("duration_ns") == 5_000_000
        hist = hub.registry.histogram("span_ns", span="customize")
        assert hist.count == 1

    def test_pipeline_span_events_are_pinned(self):
        """Byte-level pin of the ``span`` events a hub emits."""
        clock = {"t": 10}
        hub = TelemetryHub(lambda: clock["t"])
        with hub.span("customize", attempt=1):
            clock["t"] = 25
            with hub.span("customize.rewrite", attempt=1) as span:
                span.set("blocks", 3)
                clock["t"] = 40
            with pytest.raises(RuntimeError):
                with hub.span("customize.restore", attempt=1):
                    clock["t"] = 55
                    raise RuntimeError("restore failed")
            clock["t"] = 60
        assert [event.to_dict() for event in hub.events] == [
            {
                "clock_ns": 40, "kind": "span", "name": "customize.rewrite",
                "labels": {},
                "fields": {
                    "attempt": 1, "blocks": 3, "depth": 1, "duration_ns": 15,
                    "parent": "customize", "parent_id": 1, "span_id": 2,
                    "start_ns": 25, "status": "ok",
                },
            },
            {
                "clock_ns": 55, "kind": "span", "name": "customize.restore",
                "labels": {},
                "fields": {
                    "attempt": 1, "depth": 1, "duration_ns": 15,
                    "parent": "customize", "parent_id": 1, "span_id": 3,
                    "start_ns": 40, "status": "error:RuntimeError",
                },
            },
            {
                "clock_ns": 60, "kind": "span", "name": "customize",
                "labels": {},
                "fields": {
                    "attempt": 1, "depth": 0, "duration_ns": 50,
                    "parent": None, "parent_id": None, "span_id": 1,
                    "start_ns": 10, "status": "ok",
                },
            },
        ]

    def test_event_json_round_trip(self):
        hub = TelemetryHub(lambda: 7)
        original = hub.emit(
            "rewrite", "report", labels={"instance": "i"}, cost=3,
        )
        clone = TelemetryEvent.from_dict(json.loads(original.to_json()))
        assert clone == original


class TestAmbientApi:
    def test_helpers_are_noops_without_hub(self):
        assert telemetry.hub() is None
        telemetry.count("nothing")
        telemetry.emit("journal", "begin")
        telemetry.sample("s", 0, 1.0)
        with telemetry.span("quiet"):
            pass
        with telemetry.label_scope(instance="x"):
            pass

    def test_recording_installs_and_removes(self):
        hub = TelemetryHub(lambda: 0)
        with recording(hub):
            assert telemetry.hub() is hub
            telemetry.count("seen")
        assert telemetry.hub() is None
        assert hub.registry.counter_value("seen") == 1

    def test_double_install_raises(self):
        first, second = TelemetryHub(), TelemetryHub()
        with recording(first):
            with pytest.raises(TelemetryError):
                with recording(second):
                    pass


def _recorded_hub() -> TelemetryHub:
    clock = {"t": 0}
    hub = TelemetryHub(lambda: clock["t"])
    with hub.labels(instance="web-0"):
        hub.count("dispatch_total", port=9000)
        hub.emit("dispatch", "balanced", labels={"port": 9000})
        hub.observe("rewrite_ns", 2_000_000)
        hub.sample("traps_seen", 10, 1.0)
    hub.gauge_set("fleet_size", 4)
    return hub


class TestExporters:
    def test_jsonl_round_trip(self):
        hub = _recorded_hub()
        events = read_jsonl(to_jsonl(hub))
        assert events == hub.events

    def test_jsonl_accepts_hub_or_events(self):
        hub = _recorded_hub()
        assert to_jsonl(hub) == to_jsonl(hub.events)

    def test_prometheus_snapshot_parses(self):
        text = prometheus_snapshot(_recorded_hub().registry)
        values = parse_prometheus(text)
        assert values['dynacut_dispatch_total{instance="web-0",port="9000"}'] == 1
        assert values["dynacut_fleet_size"] == 4
        bucket = 'dynacut_rewrite_ns_bucket{instance="web-0",le="+Inf"}'
        assert values[bucket] == 1

    def test_prometheus_snapshot_is_deterministic(self):
        assert prometheus_snapshot(_recorded_hub().registry) == (
            prometheus_snapshot(_recorded_hub().registry)
        )

    def test_parse_rejects_untyped_sample(self):
        with pytest.raises(ValueError):
            parse_prometheus("lonely_metric 1\n")

    def test_parse_rejects_unclosed_labels(self):
        with pytest.raises(ValueError):
            parse_prometheus('# TYPE m counter\nm{a="b 1\n')

    def test_parse_rejects_malformed_type_header(self):
        with pytest.raises(ValueError):
            parse_prometheus("# TYPE m sideways\nm 1\n")

    def test_parse_rejects_a_family_typed_twice(self):
        # two snapshots pasted together: a scrape rejects the second
        # TYPE header, and the second sample would overwrite the first
        text = prometheus_snapshot(_recorded_hub().registry)
        with pytest.raises(ValueError, match="typed twice"):
            parse_prometheus(text + text)

    def test_parse_rejects_a_repeated_sample(self):
        with pytest.raises(ValueError, match="repeated sample"):
            parse_prometheus("# TYPE m counter\nm 1\nm 2\n")

    def test_empty_registry_renders_empty(self):
        assert prometheus_snapshot(MetricsRegistry()) == ""


class TestSummarizeEvents:
    def test_traps_take_last_value_not_max(self):
        # recovery from a committed image legitimately resets traps_seen
        hub = TelemetryHub(lambda: 0)
        hub.emit("traps", "sync", labels={"instance": "a"}, total=3)
        hub.emit("traps", "sync", labels={"instance": "a"}, total=0)
        assert summarize_events(hub.events)["traps"] == {"a": 0}

    def test_failover_and_dispatch_counted_by_port(self):
        hub = TelemetryHub(lambda: 0)
        for __ in range(3):
            hub.emit("dispatch", "balanced", labels={"port": 9000})
        hub.emit("failover", "routed-around", labels={"port": 9001})
        summary = summarize_events(hub.events)
        assert summary["dispatch"] == {"by_port": {"9000": 3}, "total": 3}
        assert summary["failovers"] == {"by_port": {"9001": 1}, "total": 1}

    def test_rewrite_sessions_aggregated_per_instance(self):
        hub = TelemetryHub(lambda: 0)
        hub.emit(
            "rewrite", "report", labels={"instance": "a"},
            outcome="committed", attempts=1, total_ns=100,
        )
        hub.emit(
            "rewrite", "report", labels={"instance": "a"},
            outcome="rolled-back", attempts=2, total_ns=50,
        )
        summary = summarize_events(hub.events)["rewrites"]["a"]
        assert summary["sessions"] == 2
        assert summary["committed"] == 1
        assert summary["rolled_back"] == 1
        assert summary["attempts"] == 3
        assert summary["total_ns"] == 150

    def test_drift_and_span_sections(self):
        hub = TelemetryHub(lambda: 0)
        hub.emit("drift", "traps", labels={"instance": "a"}, hits=2)
        hub.emit("drift", "triggered", action="ignore")
        hub.emit(
            "span", "customize", duration_ns=10, status="error:Boom",
        )
        summary = summarize_events(hub.events)
        assert summary["drift"] == {"attributed_traps": 2, "triggered": True}
        assert summary["spans"]["customize"]["errors"] == 1
