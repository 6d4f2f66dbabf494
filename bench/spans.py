"""Bench-owned span recorder, callable wrappers and self-time arithmetic.

A span is one call into a layer of ``repro``: name, layer, start, end,
the span that caused it and a trace id shared by every span of one
job / burst / recovery.  Spans are recorded from ``bench/`` only — by
wrapping *public* callables for the length of a traced run — kept in
memory, and written out when the run ends.

Self time follows the usual definition (a span's duration minus the part
of that interval its children cover) with one refinement for threads:
when spans of different threads overlap, the overlapped interval is
counted once, for the span that started last.  That makes the per-layer
table an exact partition of the run's wall clock even when two pool
workers plan at the same time, which a plain "minus the union of the
children" would count twice.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

_MISSING = object()


@dataclass
class Span:
    """One recorded interval (times are ``time.perf_counter`` seconds)."""

    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    trace: int
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span store with a per-thread stack of open spans.

    A span opened on a thread with nothing open (a pool worker picking
    up a batch) is attributed to :attr:`ambient`, the span the driving
    thread declared as the cause of whatever runs concurrently — for the
    burst workload, the burst being drained.
    """

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._traces = itertools.count(1)
        self._local = threading.local()
        self.ambient: Span | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str, new_trace: bool = False) -> Span:
        """Start a span on the calling thread (close it with :meth:`close`)."""
        stack = self._stack()
        parent = stack[-1] if stack else self.ambient
        if new_trace or parent is None:
            trace = next(self._traces)
        else:
            trace = parent.trace
        span = Span(
            id=next(self._ids),
            name=name,
            layer=layer,
            start=time.perf_counter(),
            end=0.0,
            parent=parent.id if parent is not None else None,
            trace=trace,
            thread=threading.get_ident(),
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        # Stack discipline holds per thread (wrappers are synchronous).
        assert stack and stack[-1] is span, "span closed out of order"
        stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, layer: str, new_trace: bool = False):
        span = self.open(name, layer, new_trace)
        try:
            yield span
        finally:
            self.close(span)

    def add(self, name: str, layer: str, start: float, end: float, **attrs) -> Span:
        """Record a root span, with a trace of its own, whose interval the
        caller measured itself (an interval that crosses ``await`` points
        has no thread stack to sit on)."""
        span = Span(
            id=next(self._ids),
            name=name,
            layer=layer,
            start=start,
            end=end,
            parent=None,
            trace=next(self._traces),
            thread=threading.get_ident(),
            attrs=attrs,
        )
        self.spans.append(span)
        return span

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "name": s.name,
                            "layer": s.layer,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "trace": s.trace,
                            "thread": s.thread,
                            **({"attrs": s.attrs} if s.attrs else {}),
                        }
                    )
                    + "\n"
                )


class NullRecorder:
    """Untraced runs: ``span()`` costs one generator frame, records nothing."""

    enabled = False
    spans: tuple = ()
    ambient = None

    @contextmanager
    def span(self, name: str, layer: str, new_trace: bool = False):
        yield None

    def add(self, *args, **kwargs) -> None:
        return None


class Instrument:
    """Wraps public callables with spans and restores them afterwards.

    ``targets`` rows are ``(owner, attribute, span name, layer, options)``
    where *owner* is a class; options may carry ``new_trace`` (each call
    starts a trace), ``before(self) -> token`` and ``after(span, self,
    result, token)`` to copy counts the object already keeps, or the call
    already returns, into the span's attributes.  Only per-call
    public boundaries belong here — never a per-cell inner function.
    """

    def __init__(self, recorder: SpanRecorder, targets):
        self.recorder = recorder
        self.targets = list(targets)
        self._saved: list[tuple[type, str, object]] = []

    def __enter__(self) -> "Instrument":
        for owner, attr, name, layer, options in self.targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
            setattr(owner, attr, self._wrap(original, name, layer, options))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, saved in reversed(self._saved):
            if saved is _MISSING:
                delattr(owner, attr)  # was inherited: uncover the base's
            else:
                setattr(owner, attr, saved)
        self._saved.clear()

    def _wrap(self, original, name: str, layer: str, options: dict):
        recorder = self.recorder
        new_trace = options.get("new_trace", False)
        before = options.get("before")
        after = options.get("after")

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = recorder.open(name, layer, new_trace)
            try:
                token = before(args[0]) if before is not None else None
                result = original(*args, **kwargs)
                if after is not None:
                    after(span, args[0], result, token)
                return result
            finally:
                recorder.close(span)

        return wrapper


def exclusive_times(spans, lo: float, hi: float) -> dict[int, float]:
    """Self time of every span inside ``[lo, hi]``, keyed by span id.

    Sweep over the span boundaries; each elementary interval belongs to
    the active span that started last (the innermost on its thread, and
    the tie-break between threads).  The values therefore sum to the
    part of ``[lo, hi]`` that any span covers — exactly ``hi - lo`` when
    a root span covers the window.
    """
    clipped = [
        (max(s.start, lo), min(s.end, hi), s.id)
        for s in spans
        if s.end > lo and s.start < hi
    ]
    clipped.sort()
    bounds = sorted({t for start, end, _ in clipped for t in (start, end)})
    out: dict[int, float] = {sid: 0.0 for _, _, sid in clipped}
    heap: list[tuple[float, int, float]] = []  # (-start, id, end)
    nxt = 0
    for left, right in zip(bounds, bounds[1:]):
        while nxt < len(clipped) and clipped[nxt][0] <= left:
            start, end, sid = clipped[nxt]
            heapq.heappush(heap, (-start, -sid, end))
            nxt += 1
        while heap and heap[0][2] <= left:
            heapq.heappop(heap)
        if heap:
            out[-heap[0][1]] += right - left
    return out


def span_cost_seconds(samples: int = 20000) -> float:
    """Measured cost of recording one wrapped call (open + close)."""
    recorder = SpanRecorder()

    class _Probe:
        def call(self):
            return None

    with Instrument(recorder, [(_Probe, "call", "probe", "bench", {})]):
        probe = _Probe()
        started = time.perf_counter()
        for _ in range(samples):
            probe.call()
        wrapped = time.perf_counter() - started
    probe = _Probe()
    started = time.perf_counter()
    for _ in range(samples):
        probe.call()
    bare = time.perf_counter() - started
    return max(0.0, (wrapped - bare) / samples)
