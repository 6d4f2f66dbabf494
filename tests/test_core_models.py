"""Tests for job specs, the performance model, checkpoint policy, slack."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.cloud import Market, default_catalog
from repro.core import (
    COLORING_PROFILE,
    PAGERANK_PROFILE,
    SSSP_PROFILE,
    ApplicationProfile,
    JobSpec,
    PerformanceModel,
    SlackModel,
    daly_interval,
    job_with_slack,
    last_resort,
)
from repro.core.perfmodel import BOOT_TIME, RELOAD_FULL, RELOAD_MICRO
from repro.utils.units import HOURS, MINUTES


@pytest.fixture(scope="module")
def catalog():
    return default_catalog()


NON_FINITE_WINDOWS = [
    (math.nan, 1e5, "release_time"),
    (-math.inf, 1e5, "release_time"),
    (0.0, math.nan, "deadline"),
    (0.0, math.inf, "deadline"),
]


@pytest.fixture(scope="module")
def gc_perf(catalog):
    lrc = last_resort(
        catalog, lambda ref: PerformanceModel(profile=COLORING_PROFILE, reference=ref)
    )
    return PerformanceModel(profile=COLORING_PROFILE, reference=lrc)


class TestProfiles:
    def test_paper_execution_times(self):
        assert SSSP_PROFILE.lrc_exec_time == 3 * MINUTES
        assert PAGERANK_PROFILE.lrc_exec_time == 20 * MINUTES
        assert COLORING_PROFILE.lrc_exec_time == 4 * HOURS

    def test_all_on_twitter(self):
        for profile in (SSSP_PROFILE, PAGERANK_PROFILE, COLORING_PROFILE):
            assert profile.dataset_edges == 1_614_106_187

    def test_state_bytes(self):
        assert COLORING_PROFILE.state_bytes == pytest.approx(
            16 * COLORING_PROFILE.dataset_vertices
        )

    def test_scaled(self):
        doubled = SSSP_PROFILE.scaled(2.0)
        assert doubled.lrc_exec_time == 2 * SSSP_PROFILE.lrc_exec_time
        assert doubled.dataset_edges == SSSP_PROFILE.dataset_edges

    def test_validation(self):
        with pytest.raises(ValueError):
            ApplicationProfile("x", -1, 10, 10)
        with pytest.raises(ValueError):
            ApplicationProfile("x", 1, 0, 10)


class TestJobSpec:
    def test_horizon(self):
        job = JobSpec(SSSP_PROFILE, release_time=100.0, deadline=400.0)
        assert job.horizon == 300.0

    def test_deadline_after_release(self):
        with pytest.raises(ValueError):
            JobSpec(SSSP_PROFILE, release_time=100.0, deadline=100.0)

    @pytest.mark.parametrize("release, deadline, field", NON_FINITE_WINDOWS)
    def test_non_finite_times_rejected(self, release, deadline, field):
        # A NaN deadline used to pass the order check and reach the
        # simulator, which then reported cost=nan and no missed deadline.
        with pytest.raises(ValueError, match=f"^{field} must be a finite number"):
            JobSpec(SSSP_PROFILE, release_time=release, deadline=deadline)

    def test_work_fraction_checked(self):
        with pytest.raises(ValueError):
            JobSpec(SSSP_PROFILE, release_time=0, deadline=10, work=1.5)

    def test_job_with_slack(self):
        job = job_with_slack(SSSP_PROFILE, 0.0, 0.5, lrc_fixed_time=60.0)
        assert job.deadline == pytest.approx(60.0 + 1.5 * SSSP_PROFILE.lrc_exec_time)


class TestPerformanceModel:
    def test_last_resort_is_fastest_on_demand(self, catalog, gc_perf):
        lrc = last_resort(catalog, lambda ref: gc_perf)
        assert not lrc.is_transient
        for c in catalog:
            if not c.is_transient:
                assert gc_perf.exec_time(lrc) <= gc_perf.exec_time(c)

    def test_paper_time_spread(self, catalog, gc_perf):
        # Fastest shape 4h, slowest 10h (the paper's §2 numbers).
        times = sorted(gc_perf.exec_time(c) / HOURS for c in catalog if not c.is_transient)
        assert times[0] == pytest.approx(4.0, rel=0.01)
        assert times[-1] == pytest.approx(10.0, rel=0.05)

    def test_capacity_of_reference_is_one(self, catalog, gc_perf):
        # omega_c = t_exec(reference) / t_exec(c), with the reference a
        # configuration of the catalogue.
        assert gc_perf.reference in catalog

    def test_capacity_below_one_for_slower(self, catalog, gc_perf):
        for c in catalog:
            assert gc_perf.exec_time(gc_perf.reference) / gc_perf.exec_time(c) <= 1.0 + 1e-9

    def test_market_does_not_affect_speed(self, catalog, gc_perf):
        spot = [c for c in catalog if c.is_transient][0]
        od = replace(spot, market=Market.ON_DEMAND)
        assert gc_perf.exec_time(spot) == gc_perf.exec_time(od)

    def test_micro_load_faster_than_full(self, catalog):
        lrc = [c for c in catalog if not c.is_transient][0]
        micro = PerformanceModel(
            profile=COLORING_PROFILE, reference=lrc, reload_mode=RELOAD_MICRO
        )
        full = PerformanceModel(
            profile=COLORING_PROFILE, reference=lrc, reload_mode=RELOAD_FULL
        )
        for c in catalog:
            assert micro.load_time(c) < full.load_time(c)

    def test_fixed_time_composition(self, catalog, gc_perf):
        c = catalog[0]
        assert gc_perf.fixed_time(c) == pytest.approx(
            gc_perf.setup_time(c) + gc_perf.save_time(c)
        )
        assert gc_perf.setup_time(c) == pytest.approx(
            BOOT_TIME + gc_perf.load_time(c)
        )

    def test_save_time_scales_with_workers(self, catalog, gc_perf):
        few = min(catalog, key=lambda c: c.num_workers)
        many = max(catalog, key=lambda c: c.num_workers)
        assert gc_perf.save_time(many) < gc_perf.save_time(few)

    def test_partition_compute_time(self, gc_perf):
        assert gc_perf.partition_compute_time() == pytest.approx(
            COLORING_PROFILE.dataset_edges * 2.5e-6
        )

    def test_invalid_reload_mode(self, catalog):
        with pytest.raises(ValueError):
            PerformanceModel(
                profile=SSSP_PROFILE, reference=catalog[0], reload_mode="teleport"
            )

    def test_last_resort_requires_on_demand(self, gc_perf, catalog):
        with pytest.raises(ValueError):
            last_resort([c for c in catalog if c.is_transient], lambda ref: gc_perf)


class TestCheckpointPolicy:
    def test_daly_formula(self):
        assert daly_interval(10.0, 7200.0) == pytest.approx(math.sqrt(2 * 10 * 7200))

    def test_floor_at_save_time(self):
        assert daly_interval(100.0, 1.0) == 100.0

    def test_zero_save_time(self):
        assert daly_interval(0.0, 100.0) == 0.0

    def test_interval_grows_with_mttf(self):
        assert daly_interval(10, 10_000) > daly_interval(10, 1_000)

    def test_validation(self):
        with pytest.raises(ValueError):
            daly_interval(-1, 100)
        with pytest.raises(ValueError):
            daly_interval(1, 0)


class TestSlackModel:
    @pytest.fixture()
    def slack_model(self, catalog, gc_perf):
        lrc = last_resort(catalog, lambda ref: gc_perf)
        deadline = gc_perf.fixed_time(lrc) + 1.5 * gc_perf.exec_time(lrc)
        return SlackModel(perf=gc_perf, lrc=lrc, deadline=deadline)

    def test_initial_slack_equals_slack_fraction(self, slack_model, gc_perf):
        slack = slack_model.slack(0.0, 1.0)
        assert slack == pytest.approx(0.5 * gc_perf.exec_time(slack_model.lrc))

    def test_slack_decreases_with_time(self, slack_model):
        assert slack_model.slack(100.0, 1.0) == pytest.approx(
            slack_model.slack(0.0, 1.0) - 100.0
        )

    def test_slack_increases_as_work_completes(self, slack_model):
        assert slack_model.slack(0.0, 0.5) > slack_model.slack(0.0, 1.0)

    def test_work_time_exchange_rate(self, slack_model):
        # Finishing work at the lrc rate keeps slack constant.
        t_exec = slack_model.lrc_exec_time
        s0 = slack_model.slack(0.0, 1.0)
        s1 = slack_model.slack(0.25 * t_exec, 0.75)
        assert s1 == pytest.approx(s0)

    def test_useful_capped_by_remaining_work(self, slack_model, catalog):
        lrc = slack_model.lrc
        tiny_work = 0.001
        interval = slack_model.useful(lrc, 0.0, tiny_work)
        assert interval == pytest.approx(tiny_work * slack_model.lrc_exec_time)

    def test_useful_capped_by_slack(self, slack_model, catalog, gc_perf):
        spot = [c for c in catalog if c.is_transient][0]
        mttf = 100 * HOURS  # huge: the checkpoint cap never binds
        t_late = slack_model.deadline - slack_model.lrc_fixed_time \
            - 1.0 * slack_model.lrc_exec_time - 2 * gc_perf.fixed_time(spot)
        interval = slack_model.useful(spot, t_late, 1.0, mttf)
        expected = slack_model.slack(t_late, 1.0) - gc_perf.fixed_time(spot)
        assert interval == pytest.approx(expected)

    def test_useful_capped_by_checkpoint_interval(self, slack_model, catalog):
        spot = [c for c in catalog if c.is_transient][0]
        mttf = 600.0  # short MTTF -> small Daly interval
        interval = slack_model.useful(spot, 0.0, 1.0, mttf)
        save = slack_model.perf.save_time(spot)
        assert interval == pytest.approx(daly_interval(save, mttf))

    def test_useful_requires_mttf_for_spot(self, slack_model, catalog):
        spot = [c for c in catalog if c.is_transient][0]
        with pytest.raises(ValueError):
            slack_model.useful(spot, 0.0, 1.0)

    def test_lrc_feasible_until_deadline_tight(self, slack_model):
        lrc = slack_model.lrc
        assert slack_model.feasible(lrc, 0.0, 1.0)
        beyond = slack_model.deadline  # no time left at all
        assert not slack_model.feasible(lrc, beyond, 1.0)

    def test_transient_infeasible_without_slack(self, slack_model, catalog):
        spot = [c for c in catalog if c.is_transient][0]
        t_exhausted = slack_model.deadline - slack_model.lrc_fixed_time \
            - 1.0 * slack_model.lrc_exec_time
        assert not slack_model.feasible(spot, t_exhausted, 1.0)

    def test_running_config_cheaper_switch(self, slack_model, catalog):
        spot = [c for c in catalog if c.is_transient][0]
        fresh = slack_model.switch_cost(spot, already_running=False)
        running = slack_model.switch_cost(spot, already_running=True)
        assert running < fresh
        assert running == pytest.approx(slack_model.perf.save_time(spot))
