"""DynaScope: unified tracing, metrics, and timeline export.

The paper's evaluation is built on *observed* behavior — throughput
timelines around live rewriting, trap counts, rewrite cost breakdowns.
This package is the one substrate those observations flow through:

* :class:`~repro.telemetry.registry.MetricsRegistry` — labeled
  counters, gauges, histograms, and per-instance time series;
* :class:`~repro.telemetry.tracer.SpanTracer` — nested virtual-clock
  spans over the checkpoint → rewrite → restore pipeline, recorded as
  :class:`~repro.telemetry.tracer.Span` records with no ``trace_id``;
* :class:`~repro.telemetry.hub.TelemetryHub` — the per-run recording
  context combining both with a structured event stream;
* :class:`~repro.telemetry.trace.RequestTracer` — per-request span
  trees (DynaTrace), the same ``Span`` record under a ``trace_id``,
  with phase attribution;
* :mod:`~repro.telemetry.export` — JSONL event log + Prometheus text
  snapshot, and :func:`~repro.telemetry.export.summarize_events` to
  reconstruct every CLI-reported aggregate from the stream alone.

Instrumentation follows the ambient-plan idiom of :mod:`repro.faults`:
hot paths call the module-level helpers below (``count``, ``emit``,
``span`` …), which are **no-ops unless a hub is installed** — one
``is None`` test when telemetry is off.  Install a hub for a run with::

    hub = TelemetryHub(clock=lambda: kernel.clock_ns)
    with recording(hub):
        ...   # every instrumented layer records into `hub`

Determinism rules (load-bearing, tested):

* timestamps come from the bound virtual clock only — never wall time;
* label sets are sorted at creation; every export iterates in sorted
  order.  Two runs with the same :class:`~repro.faults.FaultPlan` seed
  therefore produce byte-identical snapshots and event streams.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Callable, Iterator

from .export import (
    attribute_traces,
    parse_prometheus,
    percentile,
    prometheus_runs,
    prometheus_snapshot,
    read_jsonl,
    read_trace_jsonl,
    summarize_events,
    to_jsonl,
    to_trace_jsonl,
)
from .hub import TelemetryEvent, TelemetryHub
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeSeries,
    labelset,
    quantile_from_buckets,
)
from .trace import PHASES, RequestTracer, TraceContext
from .tracer import Span, SpanTracer, TraceError

_active: TelemetryHub | None = None


class TelemetryError(RuntimeError):
    """Misuse of the telemetry API (double install)."""


def _activate(hub: TelemetryHub) -> None:
    global _active
    if _active is not None and _active is not hub:
        raise TelemetryError("another TelemetryHub is already recording")
    _active = hub


def _deactivate(hub: TelemetryHub) -> None:
    global _active
    if _active is hub:
        _active = None


def hub() -> TelemetryHub | None:
    """The ambient hub, or None when nothing is recording."""
    return _active


@contextmanager
def recording(hub: TelemetryHub) -> Iterator[TelemetryHub]:
    """Install ``hub`` as the ambient recording context."""
    _activate(hub)
    try:
        yield hub
    finally:
        _deactivate(hub)


# ----------------------------------------------------------------------
# instrumentation-site helpers (no-ops without an active hub)

def emit(
    kind: str,
    name: str,
    clock_ns: int | None = None,
    labels: dict[str, object] | None = None,
    **fields: object,
) -> None:
    if _active is not None:
        _active.emit(kind, name, clock_ns=clock_ns, labels=labels, **fields)


def count(name: str, n: int = 1, **labels: object) -> None:
    if _active is not None:
        _active.count(name, n, **labels)


def gauge_set(name: str, value: float, **labels: object) -> None:
    if _active is not None:
        _active.gauge_set(name, value, **labels)


def observe(name: str, value: float, **labels: object) -> None:
    if _active is not None:
        _active.observe(name, value, **labels)


def sample(name: str, clock_ns: int, value: float, **labels: object) -> None:
    if _active is not None:
        _active.sample(name, clock_ns, value, **labels)


def span(name: str, clock: Callable[[], int] | None = None, **attrs: object):
    """Span context manager; a cheap null context when not recording."""
    if _active is None:
        return nullcontext()
    return _active.span(name, clock=clock, **attrs)


def label_scope(**labels: object):
    """Ambient label scope; null context when not recording."""
    if _active is None:
        return nullcontext()
    return _active.labels(**labels)


__all__ = [
    "PHASES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RequestTracer",
    "Span",
    "SpanTracer",
    "TelemetryError",
    "TelemetryEvent",
    "TelemetryHub",
    "TimeSeries",
    "TraceContext",
    "TraceError",
    "attribute_traces",
    "count",
    "emit",
    "gauge_set",
    "hub",
    "label_scope",
    "labelset",
    "observe",
    "parse_prometheus",
    "percentile",
    "prometheus_runs",
    "prometheus_snapshot",
    "quantile_from_buckets",
    "read_jsonl",
    "read_trace_jsonl",
    "recording",
    "sample",
    "span",
    "summarize_events",
    "to_jsonl",
    "to_trace_jsonl",
]
