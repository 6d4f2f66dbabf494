"""Property-based tests on the simulator's core guarantees.

These use hypothesis to vary market seeds, job starts and slacks, and
assert the invariants the paper's design argument rests on:

* Hourglass and +DP strategies never miss a deadline;
* bills are non-negative and bounded by sane multiples of the baseline;
* the slack identity (slack + fixed + w*exec == horizon) holds along
  any simulated trajectory.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud import R4_FAMILY, SpotMarket, default_catalog
from repro.core import (
    DeadlineProtected,
    ExecutionSimulator,
    HourglassProvisioner,
    PAGERANK_PROFILE,
    PerformanceModel,
    SlackModel,
    SpotOnProvisioner,
    job_with_slack,
    last_resort,
    on_demand_baseline_cost,
)
from repro.utils.units import HOURS

_CATALOG = tuple(default_catalog())
_LRC = last_resort(
    _CATALOG, lambda ref: PerformanceModel(profile=PAGERANK_PROFILE, reference=ref)
)
_PERF = PerformanceModel(profile=PAGERANK_PROFILE, reference=_LRC)
_MARKET_CACHE: dict = {}


def _market(seed: int) -> SpotMarket:
    if seed not in _MARKET_CACHE:
        _MARKET_CACHE[seed] = SpotMarket.synthetic(
            R4_FAMILY,
            duration=8 * 24 * HOURS,
            history_duration=5 * 24 * HOURS,
            seed=seed,
        )
    return _MARKET_CACHE[seed]


class TestDeadlineInvariant:
    @given(
        market_seed=st.integers(0, 5),
        start_hours=st.floats(0.0, 100.0, allow_nan=False),
        slack=st.floats(0.1, 1.0, allow_nan=False),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_hourglass_never_misses(self, market_seed, start_hours, slack):
        market = _market(market_seed)
        sim = ExecutionSimulator(
            market, _PERF, _CATALOG, HourglassProvisioner(), record_events=False
        )
        job = job_with_slack(
            PAGERANK_PROFILE, start_hours * HOURS, slack, _PERF.fixed_time(_LRC)
        )
        result = sim.run(job)
        assert not result.missed_deadline
        assert result.cost >= 0

    @given(
        market_seed=st.integers(0, 5),
        start_hours=st.floats(0.0, 100.0, allow_nan=False),
        slack=st.floats(0.1, 1.0, allow_nan=False),
    )
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_dp_never_misses(self, market_seed, start_hours, slack):
        market = _market(market_seed)
        sim = ExecutionSimulator(
            market,
            _PERF,
            _CATALOG,
            DeadlineProtected(SpotOnProvisioner()),
            record_events=False,
        )
        job = job_with_slack(
            PAGERANK_PROFILE, start_hours * HOURS, slack, _PERF.fixed_time(_LRC)
        )
        result = sim.run(job)
        assert not result.missed_deadline


class TestBillInvariants:
    @given(
        market_seed=st.integers(0, 3),
        start_hours=st.floats(0.0, 80.0, allow_nan=False),
    )
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_cost_bounded(self, market_seed, start_hours):
        market = _market(market_seed)
        baseline = on_demand_baseline_cost(_PERF, _LRC)
        sim = ExecutionSimulator(
            market, _PERF, _CATALOG, SpotOnProvisioner(), record_events=True
        )
        job = job_with_slack(
            PAGERANK_PROFILE, start_hours * HOURS, 0.5, _PERF.fixed_time(_LRC)
        )
        result = sim.run(job)
        assert 0 < result.cost < 10 * baseline
        # Spend accumulates monotonically along the timeline.
        costs = [e.cost_so_far for e in result.events]
        assert costs == sorted(costs)
        # Machine-time accounting is consistent with the timeline span.
        assert result.spot_seconds >= 0 and result.on_demand_seconds >= 0


class TestSlackIdentity:
    @given(
        t=st.floats(0.0, 20_000.0, allow_nan=False),
        work=st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_identity(self, t, work):
        deadline = 50_000.0
        sm = SlackModel(perf=_PERF, lrc=_LRC, deadline=deadline)
        slack = sm.slack(t, work)
        reconstructed = (
            slack + sm.lrc_fixed_time + work * sm.lrc_exec_time + t
        )
        assert reconstructed == pytest.approx(deadline)
