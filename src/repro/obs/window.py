"""Windows as folds over a run's own records, on the simulated clock.

A load run stamps one :class:`Record` per outcome with the simulated
instant it happened: each admission outcome at the close of the window
that decided it, each plan at its decision time (carrying its
wall-clock latency and queue wait), each one-shot run at its finish.
"What is the deadline-miss rate over the last hour" is then a fold over
those records: :class:`Frame` sorts them once, and a window ``[t - w,
t)`` is two ``searchsorted`` probes followed by a count, a ratio or a
:func:`percentile`.  Same records and same ``t`` give the same answer on
any box, at any speed.

:class:`RecordLog` holds the records and the clock.  The writer only
advances the clock to instants no later record can precede, so when a
listener runs at a tick ``t <= clock`` every record that will ever land
before ``t`` is already in the log: a live fold equals the same fold
recomputed over the final log.
"""

from __future__ import annotations

import threading
from typing import NamedTuple

import numpy as np

#: Default query horizons in simulated seconds: 5 min, 1 h, 6 h.
DEFAULT_WINDOWS = (300.0, 3600.0, 21600.0)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile of *values* (q in [0, 100]).

    Deterministic and dependency-light (no NumPy dtype surprises):
    sorts the values and interpolates between the two nearest ranks.
    Returns 0.0 for an empty input.  The one quantile rule of the load
    report and of every window.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    data = sorted(float(v) for v in values)
    if not data:
        return 0.0
    if len(data) == 1:
        return data[0]
    rank = q / 100.0 * (len(data) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    frac = rank - lo
    return data[lo] * (1.0 - frac) + data[hi] * frac


class Record(NamedTuple):
    """One outcome at one simulated instant.

    ``kind`` is ``"job"`` (an admission outcome; a ``"planned"`` job
    carries its wall-clock plan latency in ``value`` and its batch queue
    wait in ``wait``) or ``"run"`` (a one-shot execution, ``"met"`` or
    ``"missed"``, with its bill in dollars in ``value``).
    """

    t: float
    kind: str
    outcome: str
    value: float = 0.0
    wait: float = 0.0


class Frame:
    """Records sorted by time, per kind: the immutable input of a fold."""

    def __init__(self, records):
        rows: dict[str, list[Record]] = {}
        for record in sorted(records, key=lambda r: r.t):
            rows.setdefault(record.kind, []).append(record)
        self._columns = {
            kind: (
                np.array([r.t for r in group], dtype=float),
                np.array([r.outcome for r in group], dtype=object),
                np.array([r.value for r in group], dtype=float),
            )
            for kind, group in rows.items()
        }

    def _window(self, t: float, window_s: float, kind: str, outcome: str | None):
        """Values of the *kind* (and *outcome*) records in ``[t - w, t)``."""
        columns = self._columns.get(kind)
        if columns is None:
            return np.empty(0)
        times, outcomes, values = columns
        lo, hi = np.searchsorted(times, (t - window_s, t))
        if outcome is None:
            return values[lo:hi]
        return values[lo:hi][outcomes[lo:hi] == outcome]

    def count(self, t: float, window_s: float, kind: str, outcome: str | None = None) -> int:
        """Records of *kind* (optionally one *outcome*) in the window."""
        return len(self._window(t, window_s, kind, outcome))

    def ratio(self, t: float, window_s: float, kind: str, bad: str) -> float:
        """Share of the window's *kind* records with outcome *bad* (0 when idle)."""
        total = self.count(t, window_s, kind)
        return self.count(t, window_s, kind, bad) / total if total else 0.0

    def total(self, t: float, window_s: float, kind: str, outcome: str | None = None) -> float:
        """Sum of the window's record values (dollars, for runs)."""
        return float(self._window(t, window_s, kind, outcome).sum())

    def quantile(
        self, t: float, window_s: float, q: float, kind: str, outcome: str | None = None
    ) -> float:
        """:func:`percentile` *q* of the window's record values."""
        return percentile(self._window(t, window_s, kind, outcome), q)


class RecordLog:
    """Append-only, lock-guarded record log with a simulated clock.

    Args:
        origin: the simulated instant ticks count from (a run's start).
        tick_s: the default listener period (a run's planning window).

    :attr:`clock` is the writer's simulated now; :attr:`end` is the
    latest record's instant (``origin`` while the log is empty).
    """

    def __init__(self, origin: float = 0.0, tick_s: float = 60.0):
        if tick_s <= 0:
            raise ValueError("tick_s must be positive")
        self.origin = origin
        self.tick_s = tick_s
        self.clock = origin
        self.end = origin
        self._lock = threading.Lock()
        self._records: list[Record] = []
        self._frame: Frame | None = None
        self._listeners: list[list] = []

    def append(self, record: Record) -> None:
        """Add one record; it may not land earlier than the clock."""
        with self._lock:
            if record.t < self.clock:
                raise ValueError(
                    f"record at t={record.t} lands before the clock {self.clock}"
                )
            self._records.append(record)
            self.end = max(self.end, record.t)
            self._frame = None

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> tuple[Record, ...]:
        """Every record so far, in append order."""
        with self._lock:
            return tuple(self._records)

    def frame(self) -> Frame:
        """The fold's view of every record so far (rebuilt after appends)."""
        with self._lock:
            if self._frame is None:
                self._frame = Frame(self._records)
            return self._frame

    def ticks(self) -> list[float]:
        """Every ``origin + k * tick_s`` (k >= 1) at or before the clock."""
        ticks, k = [], 1
        while self.origin + k * self.tick_s <= self.clock:
            ticks.append(self.origin + k * self.tick_s)
            k += 1
        return ticks

    def every(self, period: float | None, callback) -> None:
        """Call ``callback(tick)`` for each *period* tick the clock crosses.

        *period* defaults to :attr:`tick_s`.  Callbacks run on the
        thread that calls :meth:`advance`, in tick order; at one tick,
        in registration order.
        """
        period = self.tick_s if period is None else period
        if period <= 0:
            raise ValueError("period must be positive")
        self._listeners.append([period, 1, callback])

    def advance(self, t: float) -> None:
        """Move the clock forward to *t* and run every crossed tick."""
        with self._lock:
            self.clock = max(self.clock, t)
        due = []
        for index, listener in enumerate(self._listeners):
            period, k, callback = listener
            while self.origin + k * period <= self.clock:
                due.append((self.origin + k * period, index, callback))
                k += 1
            listener[1] = k
        for tick, _, callback in sorted(due, key=lambda d: d[:2]):
            callback(tick)
