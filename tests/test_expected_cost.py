"""Tests for the expected-cost estimators (paper §5.2 / §5.3)."""

from __future__ import annotations

import math

import pytest

from repro.cloud import default_catalog
from repro.core import (
    COLORING_PROFILE,
    PAGERANK_PROFILE,
    SSSP_PROFILE,
    ApproximateCostEstimator,
    DecisionBudgetExceeded,
    ExactCostEstimator,
    PerformanceModel,
    SlackModel,
    job_with_slack,
    last_resort,
)
from repro.core.expected_cost import PRICE_TOLERANCE
from repro.utils.units import HOURS


@pytest.fixture(scope="module")
def catalog():
    return tuple(default_catalog())


def make_slack_model(market, profile, slack_fraction, catalog):
    lrc = last_resort(
        catalog, lambda ref: PerformanceModel(profile=profile, reference=ref)
    )
    perf = PerformanceModel(profile=profile, reference=lrc)
    job = job_with_slack(profile, 0.0, slack_fraction, perf.fixed_time(lrc))
    return SlackModel(perf=perf, lrc=lrc, deadline=job.deadline)


def drift_time(market, catalog, beyond):
    """First minute whose rates drift from t=0's by more than
    :data:`PRICE_TOLERANCE` (*beyond*) or by a nonzero amount within it."""
    rates0 = market.config_rates(catalog, 0.0)
    for t in range(60, int(market.horizon), 60):
        rates = market.config_rates(catalog, float(t))
        drift = max(abs(r / r0 - 1.0) for r, r0 in zip(rates, rates0))
        if (drift > PRICE_TOLERANCE) if beyond else (0.0 < drift <= PRICE_TOLERANCE):
            return float(t)
    pytest.fail("trace never produced the required drift")


class TestApproximateEstimator:
    def test_finished_work_costs_nothing(self, small_market, catalog):
        sm = make_slack_model(small_market, PAGERANK_PROFILE, 0.5, catalog)
        est = ApproximateCostEstimator(sm, small_market, catalog)
        est.snapshot(0.0)
        for config in catalog:
            assert est.config_cost(config, 0.0, 0.0, 0.0, False) == 0.0

    def test_lrc_cost_matches_closed_form(self, small_market, catalog):
        sm = make_slack_model(small_market, PAGERANK_PROFILE, 0.5, catalog)
        est = ApproximateCostEstimator(sm, small_market, catalog)
        est.snapshot(0.0)
        lrc = sm.lrc
        cost = est.config_cost(lrc, 0.0, 1.0, 0.0, False)
        runtime = (
            sm.perf.setup_time(lrc) + sm.perf.exec_time(lrc) + sm.perf.save_time(lrc)
        )
        assert cost == pytest.approx(lrc.on_demand_rate * runtime / HOURS)

    def test_best_returns_finite_decision(self, small_market, catalog):
        sm = make_slack_model(small_market, COLORING_PROFILE, 0.5, catalog)
        est = ApproximateCostEstimator(sm, small_market, catalog)
        decision = est.best(0.0, 1.0)
        assert math.isfinite(decision.expected_cost)
        assert decision.config in catalog

    def test_prefers_spot_with_ample_slack(self, small_market, catalog):
        sm = make_slack_model(small_market, COLORING_PROFILE, 1.0, catalog)
        est = ApproximateCostEstimator(sm, small_market, catalog)
        decision = est.best(0.0, 1.0)
        assert decision.config.is_transient

    def test_falls_back_to_lrc_without_slack(self, small_market, catalog):
        sm = make_slack_model(small_market, COLORING_PROFILE, 0.5, catalog)
        est = ApproximateCostEstimator(sm, small_market, catalog)
        # Burn almost the whole horizon with the work untouched.
        t_late = sm.deadline - sm.lrc_fixed_time - sm.lrc_exec_time
        decision = est.best(t_late, 1.0)
        assert decision.config == sm.lrc

    def test_infeasible_transient_is_infinite(self, small_market, catalog):
        sm = make_slack_model(small_market, COLORING_PROFILE, 0.5, catalog)
        est = ApproximateCostEstimator(sm, small_market, catalog)
        est.snapshot(0.0)
        t_late = sm.deadline - sm.lrc_fixed_time - sm.lrc_exec_time
        for spot in [c for c in catalog if c.is_transient]:
            assert est.config_cost(spot, t_late, 1.0, 0.0, False) == math.inf

    def test_cost_decreases_with_less_work(self, small_market, catalog):
        sm = make_slack_model(small_market, COLORING_PROFILE, 0.5, catalog)
        est = ApproximateCostEstimator(sm, small_market, catalog)
        full = est.best(0.0, 1.0).expected_cost
        half = est.best(0.0, 0.5).expected_cost
        assert half < full

    def test_memo_reused_across_decisions(self, small_market, catalog):
        """Rates that moved, but within the tolerance, keep the memo."""
        sm = make_slack_model(small_market, COLORING_PROFILE, 0.5, catalog)
        est = ApproximateCostEstimator(sm, small_market, catalog)
        est.best(0.0, 1.0)
        before = est.cache_stats()
        est.best(drift_time(small_market, catalog, beyond=False), 1.0)
        after = est.cache_stats()
        assert after.invalidations == 0 and after.epoch == before.epoch
        assert after.entries >= before.entries  # not cleared
        assert after.hits > before.hits

    def test_memo_cleared_on_price_drift(self, small_market, catalog):
        """Drift past the tolerance retires the memo: the next decision
        is a fresh estimator's."""
        sm = make_slack_model(small_market, COLORING_PROFILE, 0.5, catalog)
        est = ApproximateCostEstimator(sm, small_market, catalog)
        est.best(0.0, 1.0)
        before = est.cache_stats()
        t_drift = drift_time(small_market, catalog, beyond=True)
        decision = est.best(t_drift, 1.0)
        after = est.cache_stats()
        assert after.invalidations == 1 and after.epoch == before.epoch + 1
        fresh = ApproximateCostEstimator(
            sm, small_market, catalog, slack_grid=est.slack_grid, work_grid=est.work_grid
        )
        assert decision == fresh.best(t_drift, 1.0)
        assert after.misses - before.misses == fresh.cache_stats().misses

    def test_catalog_requires_on_demand(self, small_market, catalog):
        sm = make_slack_model(small_market, SSSP_PROFILE, 0.5, catalog)
        with pytest.raises(ValueError):
            ApproximateCostEstimator(sm, small_market, [c for c in catalog if c.is_transient])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"slack_grid": 0},
            {"slack_grid": float("nan")},
            {"work_grid": -1},
            {"work_grid": float("inf")},
        ],
    )
    def test_unusable_dp_parameters_rejected(self, small_market, catalog, kwargs):
        sm = make_slack_model(small_market, SSSP_PROFILE, 0.5, catalog)
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            ApproximateCostEstimator(sm, small_market, catalog, **kwargs)

    def test_last_resort_outside_the_catalogue_is_priced(self, small_market, catalog):
        """``slack_model.lrc`` need not be a catalogue member: the
        snapshot prices it too, so depth-cap follow-ups cost dollars,
        not NaN (which ``cost < follow`` silently dropped), the DP
        agrees with the recursive oracle (which used to raise
        ``KeyError``), and the service path gives the same answer."""
        from repro.service import PlanningService, PlanRequest
        from tests.recursive_oracle import RecursiveApproximateCostEstimator

        sm = make_slack_model(small_market, COLORING_PROFILE, 1.0, catalog)
        without_lrc = tuple(c for c in catalog if c != sm.lrc)
        est = ApproximateCostEstimator(sm, small_market, without_lrc)
        decision = est.best(0.0, 1.0)
        assert not any(math.isnan(cost) for cost in est._memo.values())
        ref = RecursiveApproximateCostEstimator(sm, small_market, without_lrc)
        assert ref.best(0.0, 1.0) == decision
        assert ref.cache_stats() == est.cache_stats()
        planned = PlanningService(small_market).plan(
            PlanRequest(slack_model=sm, catalog=without_lrc)
        )
        assert planned.decision == decision
        # The lrc is only the depth-cap fallback here, and the cheapest
        # way to finish uses spot either way.
        full = ApproximateCostEstimator(sm, small_market, catalog).best(0.0, 1.0)
        assert decision.config == full.config
        assert decision.expected_cost == pytest.approx(full.expected_cost, rel=0.05)

    def test_decision_fast_enough(self, small_market, catalog):
        import time

        sm = make_slack_model(small_market, COLORING_PROFILE, 1.0, catalog)
        est = ApproximateCostEstimator(sm, small_market, catalog)
        t0 = time.perf_counter()
        est.best(0.0, 1.0)
        cold_ms = 1000 * (time.perf_counter() - t0)
        assert cold_ms < 5000  # cold decision stays interactive even for GC


class TestExactEstimator:
    def test_agrees_with_approx_on_lrc(self, small_market, catalog):
        sm = make_slack_model(small_market, SSSP_PROFILE, 0.3, catalog)
        exact = ExactCostEstimator(sm, small_market, catalog, dt=30.0)
        approx = ApproximateCostEstimator(sm, small_market, catalog)
        exact.snapshot(0.0)
        approx.snapshot(0.0)
        lrc = sm.lrc
        assert exact.config_cost(lrc, 0.0, 1.0, 0.0, False) == pytest.approx(
            approx.config_cost(lrc, 0.0, 1.0, 0.0, False)
        )

    def test_sssp_decision_close_to_approx(self, small_market, catalog):
        sm = make_slack_model(small_market, SSSP_PROFILE, 0.5, catalog)
        exact = ExactCostEstimator(sm, small_market, catalog, dt=30.0, max_states=500_000)
        approx = ApproximateCostEstimator(sm, small_market, catalog)
        d_exact = exact.best(0.0, 1.0)
        d_approx = approx.best(0.0, 1.0)
        assert d_approx.expected_cost == pytest.approx(
            d_exact.expected_cost, rel=0.35
        )

    def test_budget_exhaustion_raises(self, small_market, catalog):
        sm = make_slack_model(small_market, COLORING_PROFILE, 1.0, catalog)
        exact = ExactCostEstimator(sm, small_market, catalog, dt=5.0, max_states=2_000)
        with pytest.raises(DecisionBudgetExceeded):
            exact.best(0.0, 1.0)

    def test_invalid_dt(self, small_market, catalog):
        sm = make_slack_model(small_market, SSSP_PROFILE, 0.5, catalog)
        with pytest.raises(ValueError):
            ExactCostEstimator(sm, small_market, catalog, dt=0.0)
