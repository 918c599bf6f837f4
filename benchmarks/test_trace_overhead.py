"""Host-time overhead of per-request tracing on the Figure 8 timeline.

Runs the ``trace-overhead`` record's timeline
(:func:`repro.experiments.trace_overhead.timeline`) untraced and with a
:class:`~repro.telemetry.RequestTracer`, in :data:`PAIRS` pairs that
alternate which runs first, and pins:

* tracing is **virtually invisible**: each pair's runs serve the same
  requests into the same per-bucket timeline and end on the same
  virtual clock;
* tracing is **cheap in host time**: the median of the pairs'
  traced/untraced ratios is at most 1.10.  Runs are timed in DynaBench
  reference seconds (CPU time corrected for the host's current speed,
  :mod:`perfbench.hostclock`); a ratio compares the two runs of one
  pair, and the median keeps one fast or slow outlier from deciding.

The record commits the virtual-time figures; this writes the host times
to the uncommitted ``results/trace_overhead_host.json``.  Run with
``PYTHONPATH=src python -m pytest -q benchmarks/test_trace_overhead.py``.
"""

from __future__ import annotations

import json
import pathlib
from statistics import median

from perfbench.hostclock import HostClock
from repro.experiments.trace_overhead import timeline
from repro.telemetry import RequestTracer

PAIRS = 8
BOUND = 0.10
RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"


def _timed(clock: HostClock, tracer: RequestTracer | None):
    """One timeline run: its result, final virtual clock and reference s."""
    run = timeline(tracer)
    start = clock.reading()
    result, virtual_ns = run()
    elapsed = clock.reference(
        clock.since(start), clock.slowness(start[0], clock.now())
    )
    return result, virtual_ns, elapsed


def test_trace_overhead():
    pairs = []
    with HostClock() as clock:
        for pair in range(PAIRS):
            if pair % 2:
                traced = _timed(clock, RequestTracer())
                base = _timed(clock, None)
            else:
                base = _timed(clock, None)
                traced = _timed(clock, RequestTracer())
            pairs.append((base, traced))

    # --- virtual behavior identical, pair by pair ---------------------
    for (base, base_ns, __), (traced, traced_ns, __) in pairs:
        assert traced.total_requests == base.total_requests
        assert traced.failed_requests == base.failed_requests
        assert traced_ns == base_ns
        assert [p.completed for p in traced.points] == [
            p.completed for p in base.points
        ]

    # --- host-time overhead: the median of the per-pair ratios --------
    ratios = [traced[2] / base[2] for base, traced in pairs]
    overhead = median(ratios) - 1
    (RESULTS / "trace_overhead_host.json").write_text(json.dumps({
        "pairs": PAIRS,
        "base_reference_s": [base[2] for base, __ in pairs],
        "traced_reference_s": [traced[2] for __, traced in pairs],
        "ratios": ratios,
        "overhead": overhead,
    }, indent=2) + "\n")
    assert overhead <= BOUND, f"tracing overhead {overhead * 100:.1f}% > 10%"
