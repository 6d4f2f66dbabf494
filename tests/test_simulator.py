"""Tests for provisioners and the trace-driven execution simulator."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cloud import default_catalog
from repro.core import (
    COLORING_PROFILE,
    PAGERANK_PROFILE,
    SSSP_PROFILE,
    DeadlineProtected,
    ExecutionSimulator,
    HourglassNaiveProvisioner,
    HourglassProvisioner,
    OnDemandProvisioner,
    PerformanceModel,
    ProteusProvisioner,
    ProvisioningContext,
    SlackModel,
    SpotOnProvisioner,
    job_with_slack,
    last_resort,
    on_demand_baseline_cost,
)
from repro.core.recurring import InterleavedRecurringDriver, RecurringJobSpec
from repro.exec import ExecutionError
from repro.utils.units import HOURS


@pytest.fixture(scope="module")
def catalog():
    return tuple(default_catalog())


def make_sim(market, profile, provisioner, catalog, reload_mode="micro"):
    lrc = last_resort(
        catalog,
        lambda ref: PerformanceModel(profile=profile, reference=ref, reload_mode=reload_mode),
    )
    perf = PerformanceModel(profile=profile, reference=lrc, reload_mode=reload_mode)
    sim = ExecutionSimulator(market, perf, catalog, provisioner)
    return sim, perf, lrc


def make_ctx(market, profile, catalog, t=0.0, work=1.0, slack_fraction=0.5):
    lrc = last_resort(
        catalog, lambda ref: PerformanceModel(profile=profile, reference=ref)
    )
    perf = PerformanceModel(profile=profile, reference=lrc)
    job = job_with_slack(profile, 0.0, slack_fraction, perf.fixed_time(lrc))
    slack_model = SlackModel(perf=perf, lrc=lrc, deadline=job.deadline)
    return ProvisioningContext(
        t=t,
        work_left=work,
        current_config=None,
        current_uptime=0.0,
        slack_model=slack_model,
        market=market,
        catalog=catalog,
    )


class TestProvisionerSelection:
    def test_on_demand_always_lrc(self, long_market, catalog):
        ctx = make_ctx(long_market, PAGERANK_PROFILE, catalog)
        assert OnDemandProvisioner().select(ctx) == ctx.slack_model.lrc

    def test_spoton_picks_transient_when_usable(self, long_market, catalog):
        ctx = make_ctx(long_market, PAGERANK_PROFILE, catalog)
        choice = SpotOnProvisioner().select(ctx)
        if any(long_market.usable_at(c, 0.0) for c in catalog if c.is_transient):
            assert choice.is_transient

    def test_spoton_minimises_current_cost_per_work(self, long_market, catalog):
        ctx = make_ctx(long_market, COLORING_PROFILE, catalog)
        choice = SpotOnProvisioner().select(ctx)
        perf = ctx.slack_model.perf
        scores = {
            c.name: long_market.config_rate(c, 0.0) * perf.exec_time(c)
            for c in catalog
            if c.is_transient and long_market.usable_at(c, 0.0)
        }
        assert scores[choice.name] == pytest.approx(min(scores.values()))

    def test_proteus_uses_historical_means(self, long_market, catalog):
        ctx = make_ctx(long_market, COLORING_PROFILE, catalog)
        choice = ProteusProvisioner().select(ctx)
        perf = ctx.slack_model.perf
        scores = {
            c.name: c.num_workers
            * long_market.stats_for(c.instance_type.name).mean_spot_price
            * perf.exec_time(c)
            for c in catalog
            if c.is_transient and long_market.usable_at(c, 0.0)
        }
        assert scores[choice.name] == pytest.approx(min(scores.values()))

    def test_dp_latches_without_slack(self, long_market, catalog):
        dp = DeadlineProtected(SpotOnProvisioner())
        ctx = make_ctx(long_market, SSSP_PROFILE, catalog, slack_fraction=0.1)
        # SSSP at 10% slack has far less slack than any transient margin.
        assert dp.select(ctx) == ctx.slack_model.lrc
        # Latched: stays on lrc even when asked again with more work done.
        assert dp.select(ctx) == ctx.slack_model.lrc

    def test_dp_name(self):
        assert DeadlineProtected(SpotOnProvisioner()).name == "spoton+dp"
        assert HourglassNaiveProvisioner().name == "hourglass-naive"

    def test_hourglass_selects_feasible_config(self, long_market, catalog):
        ctx = make_ctx(long_market, COLORING_PROFILE, catalog)
        choice = HourglassProvisioner().select(ctx)
        assert ctx.slack_model.feasible(choice, ctx.t, ctx.work_left)

    def test_segment_limit_defaults(self, long_market, catalog):
        ctx = make_ctx(long_market, PAGERANK_PROFILE, catalog)
        assert SpotOnProvisioner().segment_limit(ctx) == math.inf
        assert OnDemandProvisioner().segment_limit(ctx) == math.inf


class TestSimulatorBasics:
    def test_on_demand_run_matches_baseline(self, long_market, catalog):
        sim, perf, lrc = make_sim(long_market, PAGERANK_PROFILE, OnDemandProvisioner(), catalog)
        job = job_with_slack(PAGERANK_PROFILE, 0.0, 0.5, perf.fixed_time(lrc))
        result = sim.run(job)
        assert not result.missed_deadline
        assert result.evictions == 0
        assert result.deployments == 1
        baseline = on_demand_baseline_cost(perf, lrc)
        # The simulated run adds one final save over the baseline formula.
        assert result.cost == pytest.approx(baseline, rel=0.02)

    def test_events_recorded(self, long_market, catalog):
        sim, perf, lrc = make_sim(long_market, SSSP_PROFILE, OnDemandProvisioner(), catalog)
        job = job_with_slack(SSSP_PROFILE, 0.0, 0.5, perf.fixed_time(lrc))
        result = sim.run(job)
        kinds = [e.kind for e in result.events]
        assert kinds[0] == "deploy"
        assert kinds[-1] == "finish"

    def test_work_conservation(self, long_market, catalog):
        sim, perf, lrc = make_sim(long_market, PAGERANK_PROFILE, HourglassProvisioner(), catalog)
        job = job_with_slack(PAGERANK_PROFILE, 0.0, 0.5, perf.fixed_time(lrc))
        result = sim.run(job)
        assert result.events[-1].work_left <= 1e-9

    def test_cost_monotone_over_events(self, long_market, catalog):
        sim, perf, lrc = make_sim(long_market, COLORING_PROFILE, SpotOnProvisioner(), catalog)
        job = job_with_slack(COLORING_PROFILE, 0.0, 0.5, perf.fixed_time(lrc))
        result = sim.run(job)
        costs = [e.cost_so_far for e in result.events]
        assert costs == sorted(costs)

    def test_horizon_guard(self, long_market, catalog):
        sim, perf, lrc = make_sim(long_market, SSSP_PROFILE, OnDemandProvisioner(), catalog)
        job = job_with_slack(
            SSSP_PROFILE, long_market.horizon - 10.0, 0.5, perf.fixed_time(lrc)
        )
        with pytest.raises(ExecutionError):
            sim.run(job)

    def test_spot_billing_below_on_demand(self, long_market, catalog):
        # A successful all-spot run must cost less than the baseline.
        sim, perf, lrc = make_sim(long_market, PAGERANK_PROFILE, HourglassProvisioner(), catalog)
        job = job_with_slack(PAGERANK_PROFILE, 0.0, 1.0, perf.fixed_time(lrc))
        result = sim.run(job)
        if result.on_demand_seconds == 0:
            assert result.cost < on_demand_baseline_cost(perf, lrc)

    def test_normalized_cost(self, long_market, catalog):
        sim, perf, lrc = make_sim(long_market, SSSP_PROFILE, OnDemandProvisioner(), catalog)
        job = job_with_slack(SSSP_PROFILE, 0.0, 0.5, perf.fixed_time(lrc))
        result = sim.run(job)
        baseline = on_demand_baseline_cost(perf, lrc)
        # Running the last resort on demand is what the baseline prices.
        assert result.cost / baseline == pytest.approx(1.0)


class TestDeadlineGuarantees:
    @pytest.mark.parametrize("profile", [SSSP_PROFILE, PAGERANK_PROFILE])
    @pytest.mark.parametrize("slack", [0.2, 0.6])
    def test_hourglass_never_misses(self, long_market, catalog, profile, slack):
        sim, perf, lrc = make_sim(long_market, profile, HourglassProvisioner(), catalog)
        rng = np.random.default_rng(11)
        ref_full = PerformanceModel(
            profile=profile, reference=lrc, reload_mode="full"
        )
        for _ in range(8):
            start = float(rng.uniform(0, long_market.horizon - 24 * HOURS))
            job = job_with_slack(profile, start, slack, ref_full.fixed_time(lrc))
            result = sim.run(job)
            assert not result.missed_deadline, (
                f"missed at start={start}, slack={slack}"
            )

    def test_dp_never_misses(self, long_market, catalog):
        provisioner = DeadlineProtected(SpotOnProvisioner())
        sim, perf, lrc = make_sim(
            long_market, PAGERANK_PROFILE, provisioner, catalog, reload_mode="full"
        )
        rng = np.random.default_rng(13)
        for _ in range(8):
            start = float(rng.uniform(0, long_market.horizon - 24 * HOURS))
            job = job_with_slack(PAGERANK_PROFILE, start, 0.5, perf.fixed_time(lrc))
            result = sim.run(job)
            assert not result.missed_deadline

    def test_greedy_misses_sometimes_on_long_jobs(self, long_market, catalog):
        sim, perf, lrc = make_sim(
            long_market, COLORING_PROFILE, SpotOnProvisioner(), catalog, reload_mode="full"
        )
        rng = np.random.default_rng(17)
        missed = 0
        for _ in range(10):
            start = float(rng.uniform(0, long_market.horizon - 80 * HOURS))
            job = job_with_slack(COLORING_PROFILE, start, 0.2, perf.fixed_time(lrc))
            missed += sim.run(job).missed_deadline
        assert missed >= 1  # eager provisioning is not deadline-safe


def one_schedule(sim, profile, period):
    """A recurring driver over one schedule (a one-spec interleaved driver)."""
    return InterleavedRecurringDriver([RecurringJobSpec("job", sim, profile, period)])


class TestRecurringDriver:
    def test_fig1_style_schedule(self, long_market, catalog):
        sim, perf, lrc = make_sim(long_market, COLORING_PROFILE, HourglassProvisioner(), catalog)
        driver = one_schedule(sim, COLORING_PROFILE, period=6 * HOURS)
        outcome = driver.run(start_time=0.0, num_periods=4)["job"]
        assert outcome.runs == 4
        assert outcome.missed == 0
        assert outcome.total_cost > 0
        assert outcome.mean_cost() == pytest.approx(outcome.total_cost / 4)

    def test_overrun_skips_windows(self, long_market, catalog):
        # A deadline-oblivious strategy may overrun; the driver then
        # skips windows the overrun swallowed.
        sim, perf, lrc = make_sim(
            long_market, COLORING_PROFILE, SpotOnProvisioner(), catalog, reload_mode="full"
        )
        driver = one_schedule(sim, COLORING_PROFILE, period=5 * HOURS)
        outcome = driver.run(start_time=0.0, num_periods=5)["job"]
        assert 1 <= outcome.runs <= 5
        assert outcome.period == 5 * HOURS

    def test_invalid_args(self, long_market, catalog):
        sim, _, _ = make_sim(long_market, SSSP_PROFILE, OnDemandProvisioner(), catalog)
        with pytest.raises(ValueError):
            one_schedule(sim, SSSP_PROFILE, period=0)
        driver = one_schedule(sim, SSSP_PROFILE, period=HOURS)
        with pytest.raises(ValueError):
            driver.run(0.0, 0)
