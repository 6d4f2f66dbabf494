"""Spot price traces: piecewise-constant price series per instance type.

A :class:`PriceTrace` is the fundamental market observable: the spot
price as a right-continuous step function of time.  The paper replays
Amazon's published us-east-1 traces; we generate statistically similar
synthetic traces (:mod:`repro.cloud.trace_gen`) and replay those with
the identical machinery: price lookup, threshold crossings (evictions at
bid = on-demand) and price integration (billing).

The query primitives are the hot path of every provisioning study: one
simulated job issues thousands of ``integrate`` (billing) and
``next_crossing_above`` (eviction) calls, and the eviction models replay
tens of thousands of ``uptime_samples`` start points.  All of them run
on state precomputed once per trace:

* ``integrate`` reads a prefix-sum table of per-segment integrals, so a
  query is two binary searches instead of a Python loop over segments;
* ``next_crossing_above`` reads a per-threshold next-crossing index
  array (a reverse running minimum over the above-threshold segment
  indices), cached per bid;
* ``uptime_samples`` is a batched NumPy evaluation of the same tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.units import HOURS


@dataclass(frozen=True)
class PriceTrace:
    """Step-function price series for one instance type's market.

    Attributes:
        times: sorted ``float64`` change-points (seconds); ``times[0]``
            is the trace start.
        prices: ``prices[i]`` holds from ``times[i]`` (inclusive) until
            ``times[i+1]`` (exclusive); dollars per machine-hour.
        instance_name: which SKU this trace belongs to.
    """

    times: np.ndarray
    prices: np.ndarray
    instance_name: str = ""

    def __post_init__(self):
        times = np.ascontiguousarray(self.times, dtype=np.float64)
        prices = np.ascontiguousarray(self.prices, dtype=np.float64)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "prices", prices)
        if times.ndim != 1 or prices.ndim != 1:
            raise ValueError("times and prices must be one-dimensional")
        if len(times) != len(prices):
            raise ValueError(f"len(times)={len(times)} != len(prices)={len(prices)}")
        if len(times) == 0:
            raise ValueError("trace must have at least one segment")
        # NaN slips through every comparison below, so refuse it first.
        if not (np.isfinite(times).all() and np.isfinite(prices).all()):
            raise ValueError("times and prices must be finite")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any(prices < 0):
            raise ValueError("prices must be non-negative")
        # Prefix sums of the per-segment integrals (price * seconds):
        # _cum[i] = integral of the price from times[0] to times[i].
        cum = np.empty(len(times), dtype=np.float64)
        cum[0] = 0.0
        np.cumsum(prices[:-1] * np.diff(times), out=cum[1:])
        object.__setattr__(self, "_cum", cum)
        # Per-threshold next-crossing index arrays, built on first use.
        object.__setattr__(self, "_crossing_cache", {})

    # ------------------------------------------------------------------
    @property
    def start(self) -> float:
        """Earliest covered timestamp."""
        return float(self.times[0])

    @property
    def end(self) -> float:
        """End of trace coverage (last change-point; the final segment is
        considered to extend to this point only)."""
        return float(self.times[-1])

    def _segment(self, t: float) -> int:
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        if idx < 0:
            raise ValueError(f"t={t} precedes trace start {self.start}")
        return idx

    def _segments(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_segment` with the same bound checks."""
        idx = np.searchsorted(self.times, ts, side="right") - 1
        if np.any(idx < 0):
            bad = float(ts[np.argmin(idx)])
            raise ValueError(f"t={bad} precedes trace start {self.start}")
        return idx

    def _next_above(self, threshold: float) -> np.ndarray:
        """Index of the first segment >= i whose price exceeds *threshold*.

        ``result[i] == len(times)`` means no such segment exists.  Built
        once per threshold (one reverse running minimum) and cached —
        evictions always probe the same bid (the on-demand price), so
        in practice each trace holds one or two of these arrays.
        """
        table = self._crossing_cache.get(threshold)
        if table is None:
            n = len(self.prices)
            idx = np.where(self.prices > threshold, np.arange(n), n)
            table = np.minimum.accumulate(idx[::-1])[::-1]
            self._crossing_cache[threshold] = table
        return table

    def price_at(self, t: float) -> float:
        """Spot price ($/machine-hour) in effect at time *t*."""
        if t > self.end:
            raise ValueError(f"t={t} beyond trace end {self.end}")
        return float(self.prices[self._segment(min(t, self.end))])

    def next_crossing_above(self, t: float, threshold: float) -> float | None:
        """First time >= *t* when the price exceeds *threshold*.

        Returns None when the price stays at or below *threshold* through
        the end of the trace.  If the price already exceeds the threshold
        at *t*, returns *t* itself.
        """
        if t > self.end:
            raise ValueError(f"t={t} beyond trace end {self.end}")
        idx = self._segment(t)
        j = int(self._next_above(threshold)[idx])
        if j == len(self.prices):
            return None
        if j == idx:
            return float(t)
        return float(self.times[j])

    def _definite_integral(self, t: float, idx: int) -> float:
        """Integral (price * seconds) from the trace start to *t*."""
        return float(self._cum[idx] + self.prices[idx] * (t - self.times[idx]))

    def integrate(self, t0: float, t1: float) -> float:
        """Integral of the price over ``[t0, t1]`` in dollar-hours.

        Multiplying by the machine count gives the spot bill under
        per-second billing at the market price.
        """
        if t1 < t0:
            raise ValueError(f"t1={t1} < t0={t0}")
        if t0 < self.start or t1 > self.end:
            raise ValueError(
                f"[{t0}, {t1}] outside trace coverage [{self.start}, {self.end}]"
            )
        if t1 == t0:
            return 0.0
        i0, i1 = self._segment(t0), self._segment(min(t1, self.end))
        if i0 == i1:
            return float(self.prices[i0] * (t1 - t0) / HOURS)
        return (
            self._definite_integral(t1, i1) - self._definite_integral(t0, i0)
        ) / HOURS

    def mean_price(self, t0: float | None = None, t1: float | None = None) -> float:
        """Time-weighted mean price over a window (whole trace by default)."""
        t0 = self.start if t0 is None else t0
        t1 = self.end if t1 is None else t1
        span_hours = (t1 - t0) / HOURS
        if span_hours <= 0:
            return self.price_at(t0)
        return self.integrate(t0, t1) / span_hours

    def uptime_samples(self, bid: float, sample_interval: float = 15 * 60.0) -> np.ndarray:
        """Time-to-eviction from regular start points (historical stats).

        For every start point spaced ``sample_interval`` apart where the
        price is at or below *bid*, measure how long a machine bid at
        *bid* would survive.  Right-censored samples (no crossing before
        trace end) are recorded as the remaining horizon; callers that
        need uncensored data should use a long trace.
        """
        starts = np.arange(self.start, self.end, sample_interval)
        if len(starts) == 0:
            return np.empty(0, dtype=np.float64)
        seg = self._segments(starts)
        alive = self.prices[seg] <= bid
        starts, seg = starts[alive], seg[alive]
        nxt = self._next_above(bid)[seg]
        crossing = np.where(nxt < len(self.prices), self.times[np.minimum(nxt, len(self.times) - 1)], self.end)
        return np.asarray(crossing - starts, dtype=np.float64)
