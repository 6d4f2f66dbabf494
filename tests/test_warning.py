"""Tests for the eviction-warning extension (paper §9)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud import default_catalog
from repro.core import (
    COLORING_PROFILE,
    EC2_TWO_MINUTE_WARNING,
    NO_WARNING,
    ApproximateCostEstimator,
    ExecutionSimulator,
    PerformanceModel,
    SlackModel,
    WarningPolicy,
    job_with_slack,
    last_resort,
)
from repro.exec import AnalyticWorkModel
from repro.utils.units import HOURS


@pytest.fixture(scope="module")
def catalog():
    return tuple(default_catalog())


class TestWarningPolicy:
    def test_disabled_by_default(self):
        assert not NO_WARNING.enabled
        assert not NO_WARNING.can_save(0.1)

    def test_two_minute_notice(self):
        assert EC2_TWO_MINUTE_WARNING.enabled
        assert EC2_TWO_MINUTE_WARNING.can_save(30.0)
        assert not EC2_TWO_MINUTE_WARNING.can_save(121.0)

    def test_negative_lead_rejected(self):
        with pytest.raises(ValueError):
            WarningPolicy(lead_seconds=-1)


class _FixedPerf:
    """Every configuration runs the job in *exec_time* and saves in *save_time*."""

    def __init__(self, exec_time, save_time):
        self._exec_time, self._save_time = exec_time, save_time

    def exec_time(self, config):
        return self._exec_time

    def save_time(self, config):
        return self._save_time


def salvaged(policy, eviction_offset, compute_start, exec_time, save_time):
    """Work fraction the analytic work model keeps when the interval
    computing from *compute_start* is evicted at *eviction_offset*."""
    model = AnalyticWorkModel(_FixedPerf(exec_time, save_time), warning=policy)
    model.start()
    model.run_segment(None, budget=float("inf"))
    model.on_evicted(None, compute_start, eviction_offset)
    return 1.0 - model.work_left()


class TestSalvageableProgress:
    def test_no_warning_saves_nothing(self):
        assert salvaged(NO_WARNING, 1000, 100, 3600, 10) == 0.0

    def test_short_lead_saves_nothing(self):
        policy = WarningPolicy(lead_seconds=5)
        assert salvaged(policy, 1000, 100, 3600, 10) == 0.0

    def test_progress_up_to_warning(self):
        policy = WarningPolicy(lead_seconds=120)
        # Eviction at 1000s; warning at 880s; compute started at 100s.
        progress = salvaged(policy, 1000, 100, exec_time=3600, save_time=30)
        assert progress == pytest.approx(780 / 3600)

    def test_eviction_during_setup_saves_nothing(self):
        policy = WarningPolicy(lead_seconds=120)
        assert salvaged(policy, 150, 100, 3600, 30) == 0.0


class TestWarningInSimulation:
    def _run(self, market, catalog, warning, strategy, n=8, seed=3):
        profile = COLORING_PROFILE
        lrc = last_resort(
            catalog, lambda ref: PerformanceModel(profile=profile, reference=ref)
        )
        perf = PerformanceModel(profile=profile, reference=lrc)
        sim = ExecutionSimulator(
            market, perf, catalog, strategy, record_events=False, warning=warning
        )
        rng = np.random.default_rng(seed)
        costs, evictions, missed = [], 0, 0
        for _ in range(n):
            start = float(rng.uniform(0, market.horizon - 60 * HOURS))
            job = job_with_slack(profile, start, 0.4, perf.fixed_time(lrc))
            r = sim.run(job)
            costs.append(r.cost)
            evictions += r.evictions
            missed += r.missed_deadline
        return float(np.mean(costs)), evictions, missed

    def test_warning_never_hurts_costs(self, long_market, catalog):
        base_cost, base_ev, _ = self._run(
            long_market, catalog, NO_WARNING, "spoton"
        )
        warn_cost, warn_ev, _ = self._run(
            long_market, catalog, EC2_TWO_MINUTE_WARNING, "spoton"
        )
        if base_ev > 0:
            assert warn_cost <= base_cost * 1.02

    def test_hourglass_with_warning_still_meets_deadlines(self, long_market, catalog):
        # By name, the simulator's service bakes the warning into the DP.
        _, _, missed = self._run(
            long_market, catalog, EC2_TWO_MINUTE_WARNING, "hourglass"
        )
        assert missed == 0


class TestWarningInExpectedCost:
    def test_warning_lowers_transient_cost(self, small_market, catalog):
        profile = COLORING_PROFILE
        lrc = last_resort(
            catalog, lambda ref: PerformanceModel(profile=profile, reference=ref)
        )
        perf = PerformanceModel(profile=profile, reference=lrc)
        job = job_with_slack(profile, 0.0, 0.5, perf.fixed_time(lrc))
        sm = SlackModel(perf=perf, lrc=lrc, deadline=job.deadline)
        plain = ApproximateCostEstimator(sm, small_market, catalog)
        warned = ApproximateCostEstimator(
            sm, small_market, catalog, warning=WarningPolicy(lead_seconds=300)
        )
        d_plain = plain.best(0.0, 1.0)
        d_warned = warned.best(0.0, 1.0)
        assert d_warned.expected_cost <= d_plain.expected_cost + 1e-9
