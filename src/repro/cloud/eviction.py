"""Eviction models (§5.1): the probability of losing a spot deployment.

Hourglass assumes the model exposes a CDF ``F(u)`` — the probability
that a freshly started spot machine is revoked before reaching uptime
``u`` — plus the implied MTTF.  The paper derives these from the month
*preceding* the evaluation trace; :meth:`EmpiricalEvictionModel.from_trace`
does the same from our synthetic "October" trace.

Bidding the on-demand price (the paper's policy) makes the eviction
event equal to "spot price crosses the on-demand price", which is what
:meth:`~repro.cloud.trace.PriceTrace.uptime_samples` measures.
"""

from __future__ import annotations

import abc
from bisect import bisect_right

import numpy as np

from repro.cloud.trace import PriceTrace


class EvictionModel(abc.ABC):
    """Distribution of time-to-eviction for one machine on one market."""

    @abc.abstractmethod
    def cdf(self, uptime: float) -> float:
        """P(evicted before reaching *uptime* seconds)."""

    @property
    @abc.abstractmethod
    def mttf(self) -> float:
        """Mean time to failure in seconds."""


class EmpiricalEvictionModel(EvictionModel):
    """ECDF over observed uptimes (the paper's trace-derived model).

    The sorted sample table *is* the CDF lookup table: a point query is
    one binary search, a batched query one vectorized ``searchsorted``.
    The mean (MTTF) is precomputed — the expected-cost hot path reads it
    for every evaluated state.
    """

    def __init__(self, uptimes: np.ndarray):
        uptimes = np.sort(np.asarray(uptimes, dtype=np.float64))
        if len(uptimes) == 0:
            raise ValueError("need at least one uptime sample")
        if uptimes[0] < 0:
            raise ValueError("uptimes must be non-negative")
        self._uptimes = uptimes
        # CDF lookup table, hoisted out of the per-query path: a plain
        # Python list makes the scalar bisect ~10x cheaper than a NumPy
        # scalar searchsorted while returning identical indices.
        self._uptimes_list = uptimes.tolist()
        self._n = len(uptimes)
        self._mttf = float(uptimes.mean())

    @classmethod
    def from_trace(
        cls,
        trace: PriceTrace,
        bid: float,
        sample_interval: float = 15 * 60.0,
    ) -> "EmpiricalEvictionModel":
        """Build the model from a historical price trace and a bid."""
        samples = trace.uptime_samples(bid, sample_interval)
        if len(samples) == 0:
            # Price always above bid: treat as immediately evicting.
            samples = np.zeros(1)
        return cls(samples)

    def cdf(self, uptime: float) -> float:
        """P(evicted before reaching *uptime* seconds)."""
        if uptime <= 0:
            return 0.0
        return bisect_right(self._uptimes_list, uptime) / self._n

    def cdf_many(self, uptimes: np.ndarray) -> np.ndarray:
        """Batched ECDF lookup (one vectorized ``searchsorted``)."""
        uptimes = np.asarray(uptimes, dtype=np.float64)
        counts = np.searchsorted(self._uptimes, uptimes, side="right")
        return np.where(uptimes <= 0, 0.0, counts / self._n)

    @property
    def mttf(self) -> float:
        """Mean time to failure in seconds."""
        return self._mttf
