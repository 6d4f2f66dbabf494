"""Hierarchical tracing: spans, instant events, correlation IDs.

One :class:`Tracer` serves the whole process.  A *span* is a named
interval with attributes (``tracer.span("superstep", superstep=3)``);
spans nest through a context variable, so a span opened anywhere on the
same logical thread of control becomes a child of the innermost open
span — that is how a planning-service decision made inside a lifecycle
run, or an engine superstep executed by a work model's segment, ends up
carrying the run's *trace id* (the correlation ID that ties a plan
request to every superstep it caused).  An *event* is an instant
(zero-duration) record with the same parentage rules.

Timestamps are plain floats in seconds on whatever clock the caller
uses.  Lifecycle-level instrumentation passes *simulated* time
explicitly; callers that pass nothing get the tracer's wall clock
(``time.perf_counter``) and their records carry ``clock="wall"`` so
exporters can keep the two timelines apart.

Overhead discipline: every instrumentation site guards on
``tracer.enabled`` (a plain attribute — one branch per event).  The
module-level :data:`NULL_TRACER` is the disabled singleton; with it
installed the instrumented hot paths are bit- and speed-identical to
uninstrumented code.
"""

from __future__ import annotations

import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass

#: Attribute key marking which clock a record's timestamps are on.
CLOCK_ATTR = "clock"
CLOCK_SIM = "sim"
CLOCK_WALL = "wall"


@dataclass(frozen=True)
class SpanRecord:
    """One finished span or instant event.

    Attributes:
        kind: ``"span"`` (interval) or ``"event"`` (instant, t1 == t0).
        name: what happened (``run``, ``plan``, ``superstep``, ...).
        trace_id: correlation ID shared by everything under one root
            span — the unit of cross-layer attribution.
        span_id: unique (per tracer) ID of this record.
        parent_id: enclosing span's ``span_id``, or None for roots.
        t0 / t1: start / end time in seconds (caller's clock).
        attrs: attribute mapping, sorted key order, scalar values.
    """

    kind: str
    name: str
    trace_id: int
    span_id: int
    parent_id: int | None
    t0: float
    t1: float
    attrs: tuple[tuple[str, object], ...] = ()

    @property
    def duration(self) -> float:
        """Span length in seconds (0.0 for events)."""
        return self.t1 - self.t0

    def attr(self, key: str, default=None):
        """Look up one attribute value."""
        for k, v in self.attrs:
            if k == key:
                return v
        return default

    def as_dict(self) -> dict:
        """The JSONL event-schema view of this record."""
        return {
            "kind": self.kind,
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "t0": self.t0,
            "t1": self.t1,
            "attrs": dict(self.attrs),
        }


def _freeze_attrs(attrs: dict) -> tuple[tuple[str, object], ...]:
    return tuple(sorted(attrs.items()))


class Span:
    """One open span; close it by leaving the ``with`` block or ``end()``.

    Spans activate themselves on the tracer's context variable while
    open (children attach automatically) and append their
    :class:`SpanRecord` to the tracer when closed.  ``set()`` adds
    attributes any time before the close.
    """

    __slots__ = (
        "_tracer", "name", "trace_id", "span_id", "parent_id",
        "t0", "_attrs", "_token", "_closed",
    )

    def __init__(self, tracer: Tracer, name: str, trace_id: int,
                 span_id: int, parent_id: int | None, t0: float, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.t0 = t0
        self._attrs = attrs
        self._token = None
        self._closed = False

    def set(self, **attrs) -> Span:
        """Attach attributes to the (still open) span."""
        self._attrs.update(attrs)
        return self

    def activate(self) -> Span:
        """Make this span the current parent for new spans/events."""
        if self._token is None:
            self._token = self._tracer._current.set(self)
        return self

    def end(self, t: float | None = None) -> SpanRecord | None:
        """Close the span at *t* (tracer clock when omitted)."""
        if self._closed:
            return None
        self._closed = True
        if self._token is not None:
            self._tracer._current.reset(self._token)
            self._token = None
        t1 = self._tracer.clock() if t is None else t
        record = SpanRecord(
            kind="span",
            name=self.name,
            trace_id=self.trace_id,
            span_id=self.span_id,
            parent_id=self.parent_id,
            t0=self.t0,
            t1=t1,
            attrs=_freeze_attrs(self._attrs),
        )
        self._tracer._append(record)
        return record

    def __enter__(self) -> Span:
        return self.activate()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end()


class Tracer:
    """Process-wide span/event collector with deterministic IDs.

    Args:
        clock: default timestamp source for callers that pass no
            explicit time (wall clock by default); records stamped by
            the clock carry ``clock="wall"``.

    Thread safety: record appends and ID allocation are lock-protected;
    the current-span context is a :class:`contextvars.ContextVar`, so
    concurrent threads (e.g. a planning-service thread pool) nest spans
    independently.
    """

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._lock = threading.Lock()
        self._records: list[SpanRecord] = []
        self._next_span = 1
        self._next_trace = 1
        self._current: ContextVar[Span | None] = ContextVar(
            "repro_obs_current_span", default=None
        )

    # ------------------------------------------------------------------
    def _ids(self, parent: Span | None) -> tuple[int, int, int | None]:
        """(trace_id, span_id, parent_id) for a new span/event."""
        with self._lock:
            span_id = self._next_span
            self._next_span += 1
            if parent is not None:
                return parent.trace_id, span_id, parent.span_id
            trace_id = self._next_trace
            self._next_trace += 1
            return trace_id, span_id, None

    def _append(self, record: SpanRecord) -> None:
        with self._lock:
            self._records.append(record)

    # ------------------------------------------------------------------
    def span(self, name: str, t: float | None = None, **attrs) -> Span:
        """Open a span starting at *t* (tracer clock when omitted)."""
        if t is None:
            t = self.clock()
            attrs.setdefault(CLOCK_ATTR, CLOCK_WALL)
        parent = self._current.get()
        trace_id, span_id, parent_id = self._ids(parent)
        return Span(self, name, trace_id, span_id, parent_id, t, attrs)

    def event(self, name: str, t: float | None = None, **attrs) -> SpanRecord:
        """Record an instant event at *t* (tracer clock when omitted)."""
        if t is None:
            t = self.clock()
            attrs.setdefault(CLOCK_ATTR, CLOCK_WALL)
        parent = self._current.get()
        trace_id, span_id, parent_id = self._ids(parent)
        record = SpanRecord(
            kind="event",
            name=name,
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent_id,
            t0=t,
            t1=t,
            attrs=_freeze_attrs(attrs),
        )
        self._append(record)
        return record

    def record_span(
        self, name: str, t0: float, t1: float, **attrs
    ) -> SpanRecord:
        """Record an already-finished span (explicit start and end)."""
        parent = self._current.get()
        trace_id, span_id, parent_id = self._ids(parent)
        record = SpanRecord(
            kind="span",
            name=name,
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent_id,
            t0=t0,
            t1=t1,
            attrs=_freeze_attrs(attrs),
        )
        self._append(record)
        return record

    # ------------------------------------------------------------------
    def records(self) -> tuple[SpanRecord, ...]:
        """Everything recorded so far, in completion order."""
        with self._lock:
            return tuple(self._records)

    def clear(self) -> None:
        """Drop all collected records (IDs keep counting up)."""
        with self._lock:
            self._records.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


class _NullSpan:
    """Inert span handed out by the disabled tracer."""

    __slots__ = ()

    def set(self, **attrs) -> _NullSpan:
        return self

    def activate(self) -> _NullSpan:
        return self

    def end(self, t: float | None = None) -> None:
        return None

    def __enter__(self) -> _NullSpan:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


class NullTracer:
    """Disabled tracer: every operation is a no-op.

    Instrumentation sites must still guard with ``if tracer.enabled:``
    — the guard, not this class, is what keeps hot paths at one branch
    per event.
    """

    enabled = False
    _NULL_SPAN = _NullSpan()

    def span(self, name: str, t: float | None = None, **attrs) -> _NullSpan:
        return self._NULL_SPAN

    def event(self, name: str, t: float | None = None, **attrs) -> None:
        return None

    def record_span(self, name, t0, t1, **attrs) -> None:
        return None

    def records(self) -> tuple:
        return ()

    def clear(self) -> None:
        return None

    def __len__(self) -> int:
        return 0


#: The process-default disabled tracer (shared singleton).
NULL_TRACER = NullTracer()
