"""DynaTrace: per-request distributed tracing with phase attribution.

A hub's pipeline spans answer "how long do rewrites take *in
aggregate*"; this module answers "**which request** paid for that
trap / cross-host hop / rewrite stall".  One :class:`TraceContext`
follows a single request through every tier it crosses — the workload
driver's closed loop, the mesh frontend's hop sequence, the intra-host
balancer route, guest trap handling — and yields a causally-linked
span tree with deterministic IDs.  Request spans are the same
:class:`~repro.telemetry.tracer.Span` record the hub keeps, opened on
one :class:`~repro.telemetry.tracer.SpanTracer` stack per
:class:`RequestTracer` and stamped with the request's ``trace_id``.

**Determinism.**  Trace IDs are a monotonic counter of the owning
:class:`RequestTracer`, and span IDs one of its span stack, so they
stay monotonic across requests; timestamps are virtual-clock
reads.  No wall clock, no randomness: equal seeds export byte-identical
trace streams (tested).

**Clock domains.**  A mesh request crosses kernels whose clocks are
incomparable (the data path never syncs — see
:class:`~repro.mesh.controller.MeshClock`).  Every span is therefore
timed on the clock of the tier that owns it: hop/route/trap spans on
the serving host's kernel clock, stall/dispatch/shed spans on the
driver's clock.  The canonical per-request cost is **wall_ns = the sum
of attributed phase times** (critical-path accounting, the same move
real distributed tracers make across machines); the root span's own
duration is kept as ``observed_ns``.  On a single kernel the two are
exactly equal; under a mesh a request served by a *lagging* host can
legitimately show ``wall_ns > observed_ns`` because serving it did not
advance mesh-max time.

**Phases.**  Each request's wall time decomposes into:

* ``route``  — intra-host balancer resolution (frontend-port hop);
* ``serve``  — guest service time on the shard that answered;
* ``hop``    — failed cross-host legs paid before the answer;
* ``trap``   — int3 delivery → ``rt_sigreturn`` windows inside a leg;
* ``rewrite-stall`` — event time attributable to live DynaCut
  transactions (measured from actual :class:`RewriteReport` costs);
* ``control`` — remaining between-request event time (heartbeats,
  probes, recovery);
* ``shed``   — the error nudge paid when every candidate was down.

The **accounting identity** (enforced by
:func:`~repro.telemetry.export.attribute_traces`): phases recomputed
structurally from the serialized span tree must equal the phases the
live context accumulated as spans closed, and their sum must equal the
recorded ``wall_ns`` — two independent code paths agreeing on every
request.  The campaign adds the count identity on top: traced requests
== the frontend's ``issued``, split by outcome exactly as
``served + failed_over + shed``.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable, ContextManager, Iterator

from .. import telemetry
from .tracer import Span, SpanTracer, TraceError

#: every phase the attribution decomposes request wall time into
PHASES = (
    "route", "serve", "hop", "trap", "rewrite-stall", "control", "shed",
)

#: leg error statuses that classify a ``mesh.hop`` leg as a *failed*
#: cross-host hop (paid, then retried elsewhere) rather than service
#: time; any other error reached the application layer — delivery
#: succeeded as far as the mesh is concerned (see Frontend.dispatch)
_HOP_ERRORS = ("error:NoBackendAvailable", "error:InjectedFault")


def leg_phase(name: str, status: str) -> str:
    """The phase a leg span's self-time belongs to."""
    if name == "mesh.hop" and status in _HOP_ERRORS:
        return "hop"
    return "serve"


class TraceContext:
    """One request's span tree, with incremental phase accounting.

    Created by :meth:`RequestTracer.begin` (which also installs it as
    the ambient context, so instrumentation sites anywhere below the
    driver loop find it via :func:`current` without plumbing).
    """

    def __init__(
        self,
        tracer: "RequestTracer",
        trace_id: int,
        clock: Callable[[], int],
        **attrs: object,
    ):
        self.tracer = tracer
        self.trace_id = trace_id
        self._clock = clock
        self._stack = tracer.stack
        self.spans: list[Span] = []
        self.phases: dict[str, int] = {phase: 0 for phase in PHASES}
        self.outcome: str | None = None
        self.traps = 0
        #: failed cross-host legs (mesh failovers paid by this request)
        self.hops = 0
        #: intra-host balancer failovers observed while routing
        self.intra_failovers = 0
        self.unmatched_traps = 0
        #: summed durations of each open span's direct children
        #: (subtracted for self-time)
        self._inner: dict[int, int] = {}
        #: spans with a direct ``mesh.hop`` child — a container that
        #: wrapped cross-host legs is pure plumbing across clock
        #: domains and contributes no self-time of its own
        self._wrappers: set[int | None] = set()
        #: per-pid stacks of (delivery clock, trap address) awaiting
        #: their rt_sigreturn (nested signal delivery nests the marks)
        self._trap_marks: dict[int, list[tuple[int, int]]] = {}
        self._stack.on_finish = self._closed
        self.root = self._stack.open(
            "request", clock, attrs, trace_id=trace_id
        )

    # ------------------------------------------------------------------
    # container spans (one per tier)

    def stall(self, label: str) -> ContextManager[Span]:
        """Between-request event time (rollout steps, ticks, chaos).

        The driver fires due timeline events inside the *next* request's
        context, so the stall they cause lands on the request that
        actually waited for them (closed-loop honesty).  Self-time is
        split into ``rewrite-stall`` — bounded by the DynaCut transaction
        cost reported while the event ran — and ``control`` for the rest.
        """
        # ``rewrite_ns`` holds the tracer's cost accumulator while the
        # span is open and the cost charged to it once closed
        return self._stack.span(
            "stall", self._clock, label=label,
            rewrite_ns=self.tracer.rewrite_ns,
        )

    def leg(
        self,
        name: str,
        clock: Callable[[], int] | None = None,
        **attrs: object,
    ) -> ContextManager[Span]:
        """One delivery attempt (``dispatch`` driver-side, ``mesh.hop``
        per shard tried).  Self-time goes to ``serve``, or to ``hop``
        when a ``mesh.hop`` leg failed with a routing error; a leg that
        merely wrapped ``mesh.hop`` children contributes nothing itself
        (its duration spans incomparable clocks)."""
        return self._stack.span(name, clock or self._clock, **attrs)

    def aux(
        self,
        name: str,
        phase: str,
        clock: Callable[[], int] | None = None,
        **attrs: object,
    ) -> ContextManager[Span]:
        """A span whose whole self-time belongs to one fixed phase
        (``route`` for balancer resolution, ``shed`` for error nudges)."""
        if phase not in PHASES:
            raise TraceError(f"unknown phase {phase!r}")
        return self._stack.span(
            name, clock or self._clock, **attrs, phase=phase
        )

    def _closed(self, span: Span) -> None:
        """Charge a span's time to its phase as it closes."""
        self.spans.append(span)
        duration = span.duration_ns
        # clamped: a container's children may run on a different (host)
        # clock than the container itself; see the module docstring
        self_ns = max(0, duration - self._inner.pop(span.span_id, 0))
        if span.parent_id is not None:
            self._inner[span.parent_id] = (
                self._inner.get(span.parent_id, 0) + duration
            )
        if span.name == "request":
            return  # the root's own time is its children's
        if span.name == "trap":
            self.traps += 1
            self.phases["trap"] += duration
        elif span.name == "stall":
            rewrite_ns = min(
                max(0, self.tracer.rewrite_ns - int(span.attrs["rewrite_ns"])),
                self_ns,
            )
            span.attrs["rewrite_ns"] = rewrite_ns
            self.phases["rewrite-stall"] += rewrite_ns
            self.phases["control"] += self_ns - rewrite_ns
        elif "phase" in span.attrs:
            self.phases[str(span.attrs["phase"])] += self_ns
        else:
            if span.name == "mesh.hop":
                self._wrappers.add(span.parent_id)
                if span.status in _HOP_ERRORS:
                    self.hops += 1
            if span.span_id not in self._wrappers:
                self.phases[leg_phase(span.name, span.status)] += self_ns

    # ------------------------------------------------------------------
    # trap pairing (driven by the kernel hooks)

    def note_trap_delivered(self, pid: int, clock_ns: int, address: int) -> None:
        self._trap_marks.setdefault(pid, []).append((clock_ns, address))

    def note_trap_returned(self, pid: int, clock_ns: int) -> None:
        marks = self._trap_marks.get(pid)
        if not marks:
            return  # sigreturn for a trap delivered outside this trace
        start_ns, address = marks.pop()
        self._stack.record(
            "trap", start_ns, clock_ns, pid=pid, address=address
        )

    # ------------------------------------------------------------------
    # finish

    @property
    def wall_ns(self) -> int:
        return sum(self.phases.values())

    def finish(self, ok: bool) -> Span:
        if self._stack.current is not self.root:
            raise TraceError(
                f"trace {self.trace_id} finished with unbalanced spans"
            )
        # handler windows that never reached rt_sigreturn (the process
        # terminated mid-handler) are dropped, not guessed at
        self.unmatched_traps = sum(
            len(marks) for marks in self._trap_marks.values()
        )
        self._trap_marks.clear()
        outcome = self.outcome or ("ok" if ok else "error")
        self.outcome = outcome
        self._stack.close(self.root, "ok" if ok else "error")
        self.root.attrs.update(
            ok=ok,
            outcome=outcome,
            wall_ns=self.wall_ns,
            observed_ns=self.root.duration_ns,
            phases={k: v for k, v in sorted(self.phases.items()) if v},
            traps=self.traps,
            hops=self.hops,
            intra_failovers=self.intra_failovers,
            unmatched_traps=self.unmatched_traps,
        )
        return self.root


class RequestTracer:
    """Allocates deterministic IDs and owns the finished trace list."""

    def __init__(self) -> None:
        self.traces: list[TraceContext] = []
        #: monotonic accumulator of DynaCut transaction cost, fed by
        #: :func:`note_rewrite`; stall spans read before/after deltas
        self.rewrite_ns = 0
        #: one span stack for every request, so span IDs stay
        #: monotonic across traces
        self.stack = SpanTracer()
        self._next_trace_id = 1

    def begin(
        self, clock: Callable[[], int], **attrs: object
    ) -> TraceContext:
        """Open a request trace and install it as the ambient context."""
        global _current
        if _current is not None:
            raise TraceError("a request trace is already active")
        context = TraceContext(self, self._next_trace_id, clock, **attrs)
        self._next_trace_id += 1
        _current = context
        return context

    def finish(self, context: TraceContext, ok: bool) -> TraceContext:
        """Close the root span, record the trace, clear the ambient slot."""
        global _current
        if _current is not context:
            raise TraceError("finishing a trace that is not active")
        try:
            root = context.finish(ok)
        finally:
            _current = None
        self.traces.append(context)
        telemetry.observe(
            "request_wall_ns", root.attrs["wall_ns"], outcome=context.outcome
        )
        for phase, ns in sorted(context.phases.items()):
            if ns:
                telemetry.observe("request_phase_ns", ns, phase=phase)
        telemetry.count("traced_requests_total", outcome=context.outcome)
        return context

    def spans(self) -> Iterator[Span]:
        """Every finished span, ordered by (trace id, span id)."""
        for context in self.traces:
            yield from sorted(context.spans, key=lambda span: span.span_id)

    def request_walls(self) -> list[int]:
        """Per-request wall_ns, in trace order (the p99 substrate)."""
        return [int(ctx.root.attrs["wall_ns"]) for ctx in self.traces]


# ----------------------------------------------------------------------
# ambient context (instrumentation sites are no-ops without one)

_current: TraceContext | None = None


def current() -> TraceContext | None:
    """The ambient request context, or None when nothing is traced."""
    return _current


def stall_span(label: str) -> ContextManager[Span | None]:
    if _current is None:
        return nullcontext(None)
    return _current.stall(label)


def leg_span(
    name: str, clock: Callable[[], int] | None = None, **attrs: object
) -> ContextManager[Span | None]:
    if _current is None:
        return nullcontext(None)
    return _current.leg(name, clock=clock, **attrs)


def aux_span(
    name: str,
    phase: str,
    clock: Callable[[], int] | None = None,
    **attrs: object,
) -> ContextManager[Span | None]:
    if _current is None:
        return nullcontext(None)
    return _current.aux(name, phase, clock=clock, **attrs)


def tag_outcome(outcome: str) -> None:
    """Stamp the mesh-accounting outcome (served / failed_over / shed)."""
    if _current is not None:
        _current.outcome = outcome


def note_trap_delivered(pid: int, clock_ns: int, address: int) -> None:
    if _current is not None:
        _current.note_trap_delivered(pid, clock_ns, address)


def note_trap_returned(pid: int, clock_ns: int) -> None:
    if _current is not None:
        _current.note_trap_returned(pid, clock_ns)


def note_rewrite(total_ns: int) -> None:
    """Credit one DynaCut transaction's cost to the active tracer."""
    if _current is not None:
        _current.tracer.rewrite_ns += int(total_ns)


def note_member_failover() -> None:
    """An intra-host balancer failover observed under this request."""
    if _current is not None:
        _current.intra_failovers += 1
