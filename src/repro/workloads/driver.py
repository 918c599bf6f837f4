"""Throughput-timeline driver (the redis-benchmark of Figure 8).

Sends a closed-loop stream of requests against a guest server and
records completions per virtual-time bucket.  Scheduled events (e.g.
"disable SET at t=20s, re-enable at t=48s") run between requests; a
DynaCut rewrite advances the virtual clock by the full service
interruption, which shows up as a dip in the affected bucket — exactly
the shape of the paper's Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

from .. import telemetry
from ..telemetry import RequestTracer, trace

SECOND_NS = 1_000_000_000


class _ClockConfig(Protocol):
    syscall_cost_ns: int


class VirtualClock(Protocol):
    """What the driver actually needs from a "kernel".

    A readable/writable virtual clock plus the syscall cost used to
    nudge past synchronous errors.  A real
    :class:`~repro.kernel.kernel.Kernel` satisfies this, and so does
    :class:`~repro.mesh.MeshClock` — the mesh facade whose reads return
    the max over member kernels and whose writes raise lagging ones —
    so one driver measures both a single machine and a sharded mesh.
    """

    clock_ns: int
    config: _ClockConfig


@dataclass(frozen=True)
class TimelineEvent:
    """An action to run once the virtual clock passes ``at_ns``."""

    at_ns: int
    label: str
    action: Callable[[], None]


@dataclass
class TimelinePoint:
    """One bucket of the measured timeline."""

    start_ns: int
    completed: int

    @property
    def start_s(self) -> float:
        return self.start_ns / SECOND_NS


@dataclass
class TimelineResult:
    points: list[TimelinePoint] = field(default_factory=list)
    events_fired: list[tuple[int, str]] = field(default_factory=list)
    total_requests: int = 0
    failed_requests: int = 0
    #: (offset ns, error repr) for requests that raised instead of
    #: returning False — connection refused to a drained/mid-customize
    #: backend, dropped replies, protocol errors
    errors: list[tuple[int, str]] = field(default_factory=list)
    #: requests that succeeded only after the balancer failed over away
    #: from a dead backend — served, but distinct from clean successes
    failed_over_requests: int = 0
    #: (offset ns, failover count) per request that observed failovers
    failover_events: list[tuple[int, int]] = field(default_factory=list)

    @property
    def served(self) -> int:
        """Requests that succeeded, over every bucket."""
        return sum(point.completed for point in self.points)

    @property
    def accounted(self) -> bool:
        """The accounting identity: every request was served or failed."""
        return self.total_requests == self.served + self.failed_requests

    def throughput_series(self, bucket_ns: int) -> list[tuple[float, float]]:
        """(bucket start seconds, requests/second) pairs."""
        scale = SECOND_NS / bucket_ns
        return [(p.start_s, p.completed * scale) for p in self.points]

    def min_bucket(self) -> int:
        return min((p.completed for p in self.points), default=0)

    def max_bucket(self) -> int:
        return max((p.completed for p in self.points), default=0)


def run_request_timeline(
    kernel: VirtualClock,
    request_once: Callable[[], bool],
    duration_ns: int,
    bucket_ns: int = SECOND_NS,
    events: list[TimelineEvent] | None = None,
    max_requests: int = 1_000_000,
    tolerate_errors: bool = True,
    failover_meter: Callable[[], int] | None = None,
    tracer: RequestTracer | None = None,
) -> TimelineResult:
    """Drive ``request_once`` in a closed loop for ``duration_ns``.

    ``request_once`` issues one request and returns whether it
    succeeded; it is responsible for running the kernel until its reply
    arrives (both clients in this package do).

    With ``tolerate_errors`` (the default), an exception out of
    ``request_once`` counts as a failed request and is logged in
    :attr:`TimelineResult.errors` instead of aborting the run — a
    connection refused by a drained or mid-customization backend must
    show up as a dip, not kill the workload.  Exceptions advance the
    virtual clock by nothing on their own, so a refused connect cannot
    spin the loop forever: the clock is nudged by one syscall cost per
    error.  Pass ``tolerate_errors=False`` to re-raise (debugging).

    ``failover_meter`` (e.g. ``lambda: pool.total_failovers``) is
    sampled around every request; a request during which the meter
    advanced is counted in :attr:`TimelineResult.failed_over_requests`
    — served, but only because the balancer routed around a dead
    backend.  Failovers are accounted separately from failures: the
    accounting identity ``total = sum(buckets) + failed`` still holds.

    With a ``tracer`` (a :class:`~repro.telemetry.RequestTracer`) every
    loop iteration runs under its own
    :class:`~repro.telemetry.TraceContext`: due timeline events fire
    *inside* the context as ``stall`` spans (closed-loop honesty — the
    request that waited for a rewrite is the one that pays for it), the
    request itself is a ``dispatch`` leg, and the error nudge is a
    ``shed`` span, so every virtual nanosecond the loop advances is
    attributed to exactly one request phase.  Tracing never changes the
    virtual timeline: the same seed produces the same buckets, events,
    and final clock with tracing on or off (pinned by the overhead
    benchmark).
    """
    events = sorted(events or [], key=lambda e: e.at_ns)
    pending = list(events)
    start = kernel.clock_ns
    end = start + duration_ns
    result = TimelineResult()
    buckets: dict[int, int] = {}

    while kernel.clock_ns < end and result.total_requests < max_requests:
        context = (
            tracer.begin(
                lambda: kernel.clock_ns, index=result.total_requests
            )
            if tracer is not None
            else None
        )
        ok = False
        try:
            while pending and kernel.clock_ns - start >= pending[0].at_ns:
                event = pending.pop(0)
                with trace.stall_span(event.label):
                    event.action()
                result.events_fired.append(
                    (kernel.clock_ns - start, event.label)
                )
            meter_before = failover_meter() if failover_meter is not None else 0
            try:
                with trace.leg_span("dispatch"):
                    ok = request_once()
            except Exception as exc:  # noqa: BLE001 — failed request, not a bug
                if not tolerate_errors:
                    raise
                ok = False
                result.errors.append((kernel.clock_ns - start, repr(exc)))
                # a synchronous refusal burns no guest work; charge one
                # kernel entry so an all-backends-down window still ends
                with trace.aux_span("error-nudge", "shed"):
                    kernel.clock_ns += kernel.config.syscall_cost_ns
        finally:
            if context is not None:
                tracer.finish(context, ok=ok)
        if failover_meter is not None:
            delta = failover_meter() - meter_before
            if delta > 0:
                result.failed_over_requests += 1
                result.failover_events.append((kernel.clock_ns - start, delta))
        result.total_requests += 1
        if ok:
            # a request issued inside the window may complete just past
            # its end; account it to the final bucket
            bucket = min(
                (kernel.clock_ns - start) // bucket_ns,
                -(-duration_ns // bucket_ns) - 1,
            )
            buckets[bucket] = buckets.get(bucket, 0) + 1
        else:
            result.failed_requests += 1

    n_buckets = max(1, -(-duration_ns // bucket_ns))
    result.points = [
        TimelinePoint(index * bucket_ns, buckets.get(index, 0))
        for index in range(n_buckets)
    ]
    telemetry.count("workload_requests_total", result.total_requests)
    telemetry.count("workload_failed_total", result.failed_requests)
    telemetry.count("workload_failed_over_total", result.failed_over_requests)
    scale = SECOND_NS / bucket_ns
    for point in result.points:
        telemetry.sample(
            "throughput_rps", start + point.start_ns, point.completed * scale
        )
    telemetry.emit(
        "workload", "timeline",
        clock_ns=kernel.clock_ns,
        start_ns=start,
        duration_ns=duration_ns,
        bucket_ns=bucket_ns,
        total_requests=result.total_requests,
        failed_requests=result.failed_requests,
        failed_over_requests=result.failed_over_requests,
        errors=len(result.errors),
        events_fired=len(result.events_fired),
        min_bucket=result.min_bucket(),
        max_bucket=result.max_bucket(),
    )
    return result
