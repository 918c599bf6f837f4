"""Nested timed spans over deterministic virtual clocks.

One :class:`Span` record serves both kinds of span the telemetry
package keeps:

* **pipeline spans** — one pipeline stage (``customize.checkpoint``,
  ``fleet.customize`` …) recorded by a
  :class:`~repro.telemetry.hub.TelemetryHub`; their ``trace_id`` is
  ``None``;
* **request spans** — one node of a request's span tree, recorded by a
  :class:`~repro.telemetry.trace.RequestTracer` under the request's
  ``trace_id``.

A span is timed between two reads of a caller-supplied clock — in
practice ``lambda: kernel.clock_ns`` — so traces are replayable: the
same seed yields the same span boundaries, byte for byte.

Spans nest: a :class:`SpanTracer` keeps an explicit stack, and each
span records a **structural** ``span_id``/``parent_id`` pair (one
monotonic counter per tracer, so sibling spans with the same name stay
distinct in reconstructions) along with its parent's *name* and its
depth for human-readable streams.  A span that exits through an
exception is still closed (and marked ``status="error:<type>"``),
which is exactly the rollback path the transaction engine needs
visible.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import count
from typing import Any, Callable, Iterator


class TraceError(RuntimeError):
    """Misuse of the tracing API (nested begin, unbalanced spans)."""


@dataclass
class Span:
    """One timed, attributed stage of the pipeline or of a request."""

    name: str
    start_ns: int
    end_ns: int | None = None
    #: the parent's *name* (display only; names can repeat — use
    #: ``parent_id`` for structural reconstruction)
    parent: str | None = None
    depth: int = 0
    status: str = "ok"
    attrs: dict[str, Any] = field(default_factory=dict)
    #: structural identity, allocated monotonically by the tracer
    span_id: int = 0
    parent_id: int | None = None
    #: the request this span belongs to (``None`` for pipeline spans)
    trace_id: int | None = None

    @property
    def duration_ns(self) -> int:
        if self.end_ns is None:
            raise TraceError(f"span {self.name!r} is still open")
        return self.end_ns - self.start_ns

    def set(self, key: str, value: object) -> None:
        """Attach an attribute mid-span (e.g. pages dumped)."""
        self.attrs[key] = value

    def to_dict(self) -> dict:
        """The trace-stream record (one line of ``to_trace_jsonl``)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "duration_ns": self.duration_ns,
            "status": self.status,
            "attrs": dict(sorted(self.attrs.items())),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        return cls(
            trace_id=payload["trace_id"],
            span_id=payload["span_id"],
            parent_id=payload["parent_id"],
            name=payload["name"],
            start_ns=payload["start_ns"],
            end_ns=payload["end_ns"],
            status=payload["status"],
            attrs=dict(payload.get("attrs", {})),
        )


class SpanTracer:
    """Stack-structured span recording against virtual clocks."""

    def __init__(self, clock: Callable[[], int] | None = None):
        self._clock = clock
        self._stack: list[Span] = []
        #: the clock each open span was opened with (it closes on it)
        self._clocks: list[Callable[[], int] | None] = []
        self._span_ids = count(1)
        self.finished: list[Span] = []
        #: called with each finished span (the hub turns it into an
        #: event + a duration-histogram observation; a request trace
        #: into its phase accounting)
        self.on_finish: Callable[[Span], None] | None = None

    def bind_clock(self, clock: Callable[[], int]) -> None:
        self._clock = clock

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def _child(
        self, name: str, start_ns: int, attrs: dict, trace_id: int | None
    ) -> Span:
        """A new span under the innermost open one (it inherits the
        parent's ``trace_id``)."""
        parent = self.current
        return Span(
            name=name,
            start_ns=start_ns,
            parent=parent.name if parent is not None else None,
            depth=len(self._stack),
            attrs=attrs,
            span_id=next(self._span_ids),
            parent_id=parent.span_id if parent is not None else None,
            trace_id=parent.trace_id if parent is not None else trace_id,
        )

    def _finish(self, span: Span) -> None:
        self.finished.append(span)
        if self.on_finish is not None:
            self.on_finish(span)

    def open(
        self,
        name: str,
        clock: Callable[[], int] | None = None,
        attrs: dict[str, object] | None = None,
        trace_id: int | None = None,
    ) -> Span:
        """Start a span nested in the innermost open one."""
        read = clock or self._clock
        span = self._child(
            name, read() if read is not None else 0, dict(attrs or {}), trace_id
        )
        self._stack.append(span)
        self._clocks.append(read)
        return span

    def close(self, span: Span, status: str = "ok") -> None:
        """End ``span``, which must be the innermost open one."""
        if not self._stack or self._stack[-1] is not span:
            raise TraceError(f"span {span.name!r} closed out of stack order")
        self._stack.pop()
        read = self._clocks.pop()
        span.status = status
        span.end_ns = read() if read is not None else span.start_ns
        self._finish(span)

    def record(
        self, name: str, start_ns: int, end_ns: int, **attrs: object
    ) -> None:
        """Finish a span that already ended, under the innermost open one."""
        span = self._child(name, start_ns, attrs, None)
        span.end_ns = end_ns
        self._finish(span)

    @contextmanager
    def span(
        self,
        name: str,
        clock: Callable[[], int] | None = None,
        **attrs: object,
    ) -> Iterator[Span]:
        """Open a nested span; closed (even on exception) at exit."""
        span = self.open(name, clock, attrs)
        status = "ok"
        try:
            yield span
        except BaseException as exc:
            status = f"error:{type(exc).__name__}"
            raise
        finally:
            self.close(span, status)
