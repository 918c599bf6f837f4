"""Exporters over a recorded run: JSONL event log + Prometheus text.

Two complementary views of one :class:`~repro.telemetry.hub.TelemetryHub`:

* :func:`to_jsonl` — the **full event stream**, one JSON object per
  line, in emission order.  This is the replayable artifact: every
  number the fleet/supervisor CLIs report can be reconstructed from it
  alone (see :func:`summarize_events`), so campaign JSON files only
  need to commit digests.
* :func:`prometheus_snapshot` — a point-in-time text rendering of the
  metrics registry in the Prometheus exposition format (``# TYPE``
  headers, ``family{label="v"} value`` samples, cumulative histogram
  buckets).  :func:`parse_prometheus` round-trips it, which is what
  the CI telemetry job asserts; :func:`prometheus_runs` renders several
  runs as one exposition, each sample labelled with its run.

Both renderings iterate instruments in sorted order and carry only
virtual-clock timestamps, so equal seeds produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Mapping, Sequence

from .hub import TelemetryEvent, TelemetryHub
from .registry import SUMMARY_QUANTILES, LabelSet, MetricsRegistry, labels_text
from .trace import PHASES, RequestTracer, leg_phase
from .tracer import Span


# ----------------------------------------------------------------------
# JSONL event stream

def to_jsonl(hub_or_events: TelemetryHub | Iterable[TelemetryEvent]) -> str:
    """Render the event stream as one JSON object per line."""
    events = (
        hub_or_events.events
        if isinstance(hub_or_events, TelemetryHub)
        else hub_or_events
    )
    return "".join(event.to_json() + "\n" for event in events)


def read_jsonl(text: str) -> list[TelemetryEvent]:
    """Parse a JSONL event stream back into events."""
    return [
        TelemetryEvent.from_dict(json.loads(line))
        for line in text.splitlines()
        if line.strip()
    ]


# ----------------------------------------------------------------------
# request-trace stream

def to_trace_jsonl(source: RequestTracer | Iterable[Span]) -> str:
    """Render finished request traces as one span object per line.

    Spans are ordered by ``(trace_id, span_id)`` and serialized with
    sorted keys and sorted attrs, so equal seeds export byte-identical
    trace streams (what every campaign's replay checks).
    """
    spans = source.spans() if isinstance(source, RequestTracer) else source
    return "".join(
        json.dumps(span.to_dict(), sort_keys=True, default=str) + "\n"
        for span in spans
    )


def read_trace_jsonl(text: str) -> list[Span]:
    """Parse a trace stream back into spans."""
    return [
        Span.from_dict(json.loads(line))
        for line in text.splitlines()
        if line.strip()
    ]


# ----------------------------------------------------------------------
# Prometheus text exposition

#: the prefix of every exported metric family
PREFIX = "dynacut_"


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def _families(
    registry: MetricsRegistry, prefix: str, extra: LabelSet = ()
) -> dict[str, list[str]]:
    """Each family's ``# TYPE`` header then its samples, in sorted
    order; the ``extra`` labels ride on every sample."""
    families: dict[str, list[str]] = {}

    def add(family: str, kind: str, sample_lines: list[str]) -> None:
        if family not in families:
            families[family] = [f"# TYPE {family} {kind}"]
        families[family].extend(sample_lines)

    def labelled(labels: LabelSet, **more: str) -> str:
        return labels_text(tuple(sorted((*labels, *extra, *more.items()))))

    for (name, labels), counter in sorted(registry.counters.items()):
        family = prefix + _sanitize(name)
        add(family, "counter", [f"{family}{labelled(labels)} {counter.value}"])
    for (name, labels), gauge in sorted(registry.gauges.items()):
        family = prefix + _sanitize(name)
        add(family, "gauge", [f"{family}{labelled(labels)} {gauge.value:g}"])
    for (name, labels), hist in sorted(registry.histograms.items()):
        family = prefix + _sanitize(name)
        sample_lines = [
            f"{family}_bucket{labelled(labels, le=le)} {cumulative}"
            for le, cumulative in hist.cumulative_buckets()
        ]
        sample_lines.append(f"{family}_sum{labelled(labels)} {hist.total:g}")
        sample_lines.append(f"{family}_count{labelled(labels)} {hist.count}")
        add(family, "histogram", sample_lines)
        if hist.count:
            # estimated quantiles ride along as a sibling gauge family
            # (own TYPE header, so the strict parser round-trips them)
            qfamily = family + "_quantile"
            qlines = []
            for q in SUMMARY_QUANTILES:
                value = hist.quantile(q)
                assert value is not None
                qlines.append(f"{qfamily}{labelled(labels, q=f'{q:g}')} {value:g}")
            add(qfamily, "gauge", qlines)
    return families


def _render(families: dict[str, list[str]]) -> str:
    out = [line for family in sorted(families) for line in families[family]]
    return "\n".join(out) + "\n" if out else ""


def prometheus_snapshot(registry: MetricsRegistry, prefix: str = PREFIX) -> str:
    """The registry in Prometheus text format (sorted, deterministic)."""
    return _render(_families(registry, prefix))


def prometheus_runs(registries: Mapping[str, MetricsRegistry]) -> str:
    """Several runs' registries as **one** exposition, by run label.

    Each family appears once, under one ``# TYPE`` header, and every
    sample carries a ``run="<label>"`` label, so a scrape (or
    :func:`parse_prometheus`) keeps every run's samples apart.  Within
    a family, samples follow the order of ``registries``.
    """
    merged: dict[str, list[str]] = {}
    for label, registry in registries.items():
        runs = _families(registry, PREFIX, (("run", label),))
        for family, (header, *samples) in runs.items():
            merged.setdefault(family, [header]).extend(samples)
    return _render(merged)


def parse_prometheus(text: str) -> dict[str, float]:
    """Parse a text snapshot into ``{'family{labels}': value}``.

    Strict enough for the CI assertion: every non-comment line must be
    ``name[{labels}] value`` with a float value, every ``{`` closed,
    every family preceded by a ``# TYPE`` header, and no family typed
    twice and no sample given twice (a scrape rejects both, and a
    repeated sample would overwrite the first).
    """
    values: dict[str, float] = {}
    typed: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in ("counter", "gauge", "histogram"):
                raise ValueError(f"line {lineno}: malformed TYPE header: {line!r}")
            if parts[2] in typed:
                raise ValueError(
                    f"line {lineno}: family {parts[2]} typed twice: {line!r}"
                )
            typed.add(parts[2])
            continue
        if line.startswith("#"):
            continue
        key, __, raw = line.rpartition(" ")
        if not key:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        if "{" in key and not key.endswith("}"):
            raise ValueError(f"line {lineno}: unclosed label set: {line!r}")
        family = key.split("{", 1)[0]
        base = family
        for suffix in ("_bucket", "_sum", "_count"):
            if family.endswith(suffix) and family[: -len(suffix)] in typed:
                base = family[: -len(suffix)]
        if base not in typed:
            raise ValueError(f"line {lineno}: sample without TYPE header: {line!r}")
        if key in values:
            raise ValueError(f"line {lineno}: repeated sample: {line!r}")
        values[key] = float(raw)
    return values


# ----------------------------------------------------------------------
# critical-path attribution over request traces

def percentile(values: Sequence[int | float], q: float) -> float:
    """Exact nearest-rank percentile over raw per-request values.

    This is what campaign p99s are computed from — the sorted list of
    per-request ``wall_ns`` values, **not** a bucketed aggregate — so
    the reported tail latency is a value some request actually paid.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile must be in [0, 1], got {q}")
    if not values:
        raise ValueError("cannot take a percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def _recompute_phases(
    spans: list[Span], children: dict[int, list[Span]]
) -> dict[str, int]:
    """Re-derive the phase decomposition structurally from a span tree.

    Independent of the incremental accounting
    :class:`~repro.telemetry.trace.TraceContext` performs as spans
    close — agreeing with it on every request is the accounting
    identity :func:`attribute_traces` enforces.
    """
    phases = {phase: 0 for phase in PHASES}
    for span in spans:
        kids = children.get(span.span_id, [])
        inner = sum(kid.duration_ns for kid in kids)
        self_ns = max(0, span.duration_ns - inner)
        if span.name == "request":
            continue  # the root's own time is its children's
        if span.name == "trap":
            phases["trap"] += span.duration_ns
        elif span.name == "stall":
            rewrite_ns = min(int(span.attrs.get("rewrite_ns", 0)), self_ns)
            phases["rewrite-stall"] += rewrite_ns
            phases["control"] += self_ns - rewrite_ns
        elif "phase" in span.attrs:
            phases[str(span.attrs["phase"])] += self_ns
        else:
            # a leg: dispatch / mesh.hop; one that wrapped cross-host
            # hop legs is plumbing across clock domains — no self-time
            if any(kid.name == "mesh.hop" for kid in kids):
                continue
            phases[leg_phase(span.name, span.status)] += self_ns
    return phases


def attribute_traces(source: RequestTracer | Iterable[Span]) -> dict:
    """Decompose every traced request's wall time into named phases.

    Returns ``{"requests": [...], "summary": {...}}`` where each request
    record carries the recomputed phase decomposition and its identity
    verdict: the structural recomputation must equal the phases the
    live context recorded, and their sum must equal the recorded
    ``wall_ns``.  The summary aggregates phase totals, outcome counts,
    and exact nearest-rank latency percentiles over per-request walls.
    """
    spans = list(source.spans() if isinstance(source, RequestTracer) else source)
    by_trace: dict[int, list[Span]] = {}
    for span in spans:
        if span.trace_id is None:
            raise ValueError(f"span {span.name!r} belongs to no request")
        by_trace.setdefault(span.trace_id, []).append(span)

    records = []
    walls: list[int] = []
    phase_totals = {phase: 0 for phase in PHASES}
    outcomes: dict[str, int] = {}
    violations = 0
    for trace_id in sorted(by_trace):
        tree = sorted(by_trace[trace_id], key=lambda span: span.span_id)
        roots = [span for span in tree if span.parent_id is None]
        if len(roots) != 1 or roots[0].name != "request":
            raise ValueError(f"trace {trace_id} has no unique request root")
        root = roots[0]
        children: dict[int, list[Span]] = {}
        for span in tree:
            if span.parent_id is not None:
                children.setdefault(span.parent_id, []).append(span)
        computed = _recompute_phases(tree, children)
        recorded = {phase: 0 for phase in PHASES}
        recorded.update({
            str(k): int(v)
            for k, v in dict(root.attrs.get("phases", {})).items()
        })
        wall_ns = int(root.attrs["wall_ns"])
        identity_ok = (
            computed == recorded and sum(computed.values()) == wall_ns
        )
        violations += 0 if identity_ok else 1
        outcome = str(root.attrs.get("outcome", "ok"))
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        walls.append(wall_ns)
        for phase, ns in computed.items():
            phase_totals[phase] += ns
        records.append({
            "trace_id": trace_id,
            "start_ns": root.start_ns,
            "outcome": outcome,
            "ok": bool(root.attrs.get("ok", True)),
            "wall_ns": wall_ns,
            "observed_ns": int(root.attrs.get("observed_ns", root.duration_ns)),
            "phases": {k: v for k, v in sorted(computed.items()) if v},
            "traps": int(root.attrs.get("traps", 0)),
            "hops": int(root.attrs.get("hops", 0)),
            "identity_ok": identity_ok,
        })

    summary = {
        "requests": len(records),
        "identity_violations": violations,
        "outcomes": dict(sorted(outcomes.items())),
        "phase_totals_ns": {
            phase: phase_totals[phase] for phase in PHASES
        },
        "latency_ns": (
            {
                "p50": percentile(walls, 0.5),
                "p95": percentile(walls, 0.95),
                "p99": percentile(walls, 0.99),
                "max": float(max(walls)),
                "mean": sum(walls) / len(walls),
            }
            if walls else None
        ),
    }
    return {"requests": records, "summary": summary}


# ----------------------------------------------------------------------
# event-stream reconstruction

def summarize_events(events: Iterable[TelemetryEvent]) -> dict:
    """Rebuild the CLI-reported aggregates from the event stream alone.

    The acceptance contract of the observability layer: per-instance
    trap counts, failover/dispatch totals, and rewrite-cost summaries
    computed *only* from the recorded events must equal what the live
    controller/supervisor objects reported for the same seed.
    """
    kinds: dict[str, int] = {}
    traps: dict[str, int] = {}
    failovers: dict[str, int] = {}
    dispatch: dict[str, int] = {}
    rewrites: dict[str, dict] = {}
    journal_phases: dict[str, int] = {}
    supervisor: dict[str, int] = {}
    health: dict[str, int] = {}
    drift_traps = 0
    drift_triggered = False
    spans: dict[str, dict] = {}

    for event in events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
        instance = event.label("instance", "")
        if event.kind == "traps":
            # every traps_seen mutation emits the post-sync value, so
            # the last event per instance IS the live counter (recovery
            # from a committed image legitimately resets it — a max
            # would disagree with the controller after a crash)
            traps[instance] = int(event.field("total", 0))
        elif event.kind == "failover":
            port = event.label("port", "?")
            failovers[port] = failovers.get(port, 0) + 1
        elif event.kind == "dispatch":
            port = event.label("port", "?")
            dispatch[port] = dispatch.get(port, 0) + 1
        elif event.kind == "rewrite":
            summary = rewrites.setdefault(
                instance,
                {
                    "sessions": 0, "committed": 0, "rolled_back": 0,
                    "attempts": 0, "checkpoint_ns": 0, "restore_ns": 0,
                    "patch_ns": 0, "total_ns": 0, "blocks_patched": 0,
                    "blocks_restored": 0, "bytes_wiped": 0,
                },
            )
            summary["sessions"] += 1
            outcome = str(event.field("outcome", ""))
            if outcome == "committed":
                summary["committed"] += 1
            else:
                summary["rolled_back"] += 1
            summary["attempts"] += int(event.field("attempts", 0))
            for cost in (
                "checkpoint_ns", "restore_ns", "patch_ns", "total_ns",
                "blocks_patched", "blocks_restored", "bytes_wiped",
            ):
                summary[cost] += int(event.field(cost, 0))
        elif event.kind == "journal":
            journal_phases[event.name] = journal_phases.get(event.name, 0) + 1
        elif event.kind == "supervisor":
            supervisor[event.name] = supervisor.get(event.name, 0) + 1
        elif event.kind == "health":
            health[event.name] = health.get(event.name, 0) + 1
        elif event.kind == "drift":
            if event.name == "traps":
                drift_traps += int(event.field("hits", 0))
            elif event.name == "triggered":
                drift_triggered = True
        elif event.kind == "span":
            entry = spans.setdefault(
                event.name, {"count": 0, "total_ns": 0, "errors": 0}
            )
            entry["count"] += 1
            entry["total_ns"] += int(event.field("duration_ns", 0))
            if str(event.field("status", "ok")) != "ok":
                entry["errors"] += 1

    return {
        "events": sum(kinds.values()),
        "kinds": dict(sorted(kinds.items())),
        "traps": dict(sorted(traps.items())),
        "failovers": {
            "by_port": dict(sorted(failovers.items())),
            "total": sum(failovers.values()),
        },
        "dispatch": {
            "by_port": dict(sorted(dispatch.items())),
            "total": sum(dispatch.values()),
        },
        "rewrites": dict(sorted(rewrites.items())),
        "journal_phases": dict(sorted(journal_phases.items())),
        "supervisor_events": dict(sorted(supervisor.items())),
        "health_transitions": dict(sorted(health.items())),
        "drift": {"attributed_traps": drift_traps, "triggered": drift_triggered},
        "spans": dict(sorted(spans.items())),
    }
