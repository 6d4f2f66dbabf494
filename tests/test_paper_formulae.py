"""The paper's formulae (§5.1, Table 1), pinned against hand computations.

These tests are executable documentation: each one states a formula
from the paper and checks our implementation against a hand-worked
numeric instance, independent of any simulation.
"""

from __future__ import annotations

import math

import pytest

from repro.cloud import default_catalog
from repro.core import (
    COLORING_PROFILE,
    PerformanceModel,
    SlackModel,
    daly_interval,
    job_with_slack,
    last_resort,
)
from repro.utils.units import HOURS, MINUTES


@pytest.fixture(scope="module")
def catalog():
    return tuple(default_catalog())


@pytest.fixture(scope="module")
def perf(catalog):
    lrc = last_resort(
        catalog, lambda ref: PerformanceModel(profile=COLORING_PROFILE, reference=ref)
    )
    return PerformanceModel(profile=COLORING_PROFILE, reference=lrc)


@pytest.fixture(scope="module")
def lrc(catalog, perf):
    return last_resort(catalog, lambda ref: perf)


class TestNormalizedCapacity:
    """omega_c = t_exec(lrc) / t_exec(c)  (Table 1)."""

    def test_paper_capacity_spread(self, catalog, perf, lrc):
        # The paper's §2: fastest 4h, slowest 10h -> omega in {1, .63, .4}.
        omegas = sorted(
            perf.exec_time(lrc) / perf.exec_time(c) for c in catalog if not c.is_transient
        )
        assert omegas[-1] == pytest.approx(1.0)
        assert omegas[0] == pytest.approx(0.4, abs=0.02)

    def test_omega_equals_exec_ratio(self, catalog, perf, lrc):
        # The model's reference, which every exec time is scaled from,
        # is the last resort that normalises omega.
        assert perf.exec_time(perf.reference) == perf.exec_time(lrc)


class TestSlackFormula:
    """slack(t) = horizon(t) - t_lrc_fixed - w(t) * t_lrc_exec  (§5.1)."""

    def test_hand_computed_instance(self, perf, lrc):
        deadline = 6 * HOURS
        sm = SlackModel(perf=perf, lrc=lrc, deadline=deadline)
        t, w = 1 * HOURS, 0.75
        expected = (deadline - t) - perf.fixed_time(lrc) - 0.75 * perf.exec_time(lrc)
        assert sm.slack(t, w) == pytest.approx(expected)

    def test_paper_motivating_scenario(self, perf, lrc):
        # §2: 4h job re-executed every 6h leaves a 2h slack (minus the
        # fixed costs, which the paper's statement rolls into the 4h).
        sm = SlackModel(perf=perf, lrc=lrc, deadline=6 * HOURS)
        slack0 = sm.slack(0.0, 1.0)
        assert slack0 == pytest.approx(
            2 * HOURS - perf.fixed_time(lrc), abs=1.0
        )


class TestUsefulInterval:
    """useful(c,t) = min(w*t_exec, slack - t_switch, t_ckpt)  (§5.1)."""

    def test_three_way_minimum(self, catalog, perf, lrc):
        sm = SlackModel(perf=perf, lrc=lrc, deadline=7 * HOURS)
        spot = [c for c in catalog if c.is_transient][0]
        mttf = 4 * HOURS
        w = 1.0
        expected = min(
            w * perf.exec_time(spot),
            sm.slack(0.0, w) - perf.fixed_time(spot),
            daly_interval(perf.save_time(spot), mttf),
        )
        assert sm.useful(spot, 0.0, w, mttf) == pytest.approx(expected)

    def test_running_config_reserves_only_save(self, catalog, perf, lrc):
        sm = SlackModel(perf=perf, lrc=lrc, deadline=7 * HOURS)
        spot = [c for c in catalog if c.is_transient][0]
        mttf = 100 * HOURS
        # Late enough that the slack cap binds in both variants.
        t = sm.deadline - perf.fixed_time(lrc) - perf.exec_time(lrc) - 20 * MINUTES
        fresh = sm.useful(spot, t, 1.0, mttf, already_running=False)
        running = sm.useful(spot, t, 1.0, mttf, already_running=True)
        assert running - fresh == pytest.approx(
            perf.fixed_time(spot) - perf.save_time(spot)
        )


class TestDalyFormula:
    """t_ckpt = sqrt(2 * t_save * MTTF)  (§5.1, from [Daly 2006])."""

    def test_hand_computed(self):
        assert daly_interval(8.0, 2 * HOURS) == pytest.approx(
            math.sqrt(2 * 8.0 * 7200)
        )

    def test_paper_like_magnitudes(self, catalog, perf):
        # t_save ~ 12s, MTTF ~ 4.5h -> checkpoint every ~10 min, i.e.
        # dozens of checkpoints across the 4h GC job.
        spot = [c for c in catalog if c.is_transient][0]
        interval = daly_interval(perf.save_time(spot), 4.5 * HOURS)
        assert 4 * MINUTES < interval < 20 * MINUTES


class TestDeadlineConstruction:
    """t_boot + t_load + t_exec + t_save <= t_deadline  (§5.1)."""

    def test_lrc_always_fits_its_own_deadline(self, perf, lrc):
        for slack in (0.0, 0.1, 1.0):
            job = job_with_slack(
                COLORING_PROFILE, 0.0, slack, perf.fixed_time(lrc)
            )
            lrc_finish = perf.fixed_time(lrc) + perf.exec_time(lrc)
            assert lrc_finish <= job.deadline + 1e-9

    def test_worst_case_eviction_preserves_lrc_feasibility(self, catalog, perf, lrc):
        # The construction behind the guarantee: run a transient interval
        # capped by useful(); even if an eviction voids it entirely, the
        # last resort still fits.
        sm = SlackModel(perf=perf, lrc=lrc, deadline=6 * HOURS)
        spot = [c for c in catalog if c.is_transient][0]
        mttf = 100 * HOURS  # let the slack cap bind
        w = 1.0
        interval = sm.useful(spot, 0.0, w, mttf)
        worst_elapsed = perf.setup_time(spot) + interval + perf.save_time(spot)
        slack_after = sm.slack(worst_elapsed, w)  # no progress survived
        assert slack_after >= -1e-6
        assert sm.feasible(lrc, worst_elapsed, w)


class TestCostExamples:
    """§1's economics: spot runs at a steep discount to on-demand."""

    def test_catalog_discount_band(self, catalog, small_market):
        # The paper's example quotes an 86% discount; our synthetic
        # market is calibrated to the 60-80% band its evaluation uses.
        for spot in [c for c in catalog if c.is_transient]:
            mean = small_market.stats_for(spot.instance_type.name).mean_spot_price
            discount = 1.0 - mean / spot.instance_type.on_demand_price
            assert 0.5 < discount < 0.9

    def test_equal_on_demand_rate_across_shapes(self, catalog):
        # 16 x $0.532 = 8 x $1.064 = 4 x $2.128 per hour.
        rates = {round(c.on_demand_rate, 6) for c in catalog if not c.is_transient}
        assert len(rates) == 1
        assert rates.pop() == pytest.approx(8.512)
