"""Tests for multi-phase applications (§9) and their simulator integration."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import default_catalog
from repro.core import (
    ACCOUNT_RAW,
    ACCOUNT_TIME,
    COLORING_PROFILE,
    ExecutionSimulator,
    HourglassProvisioner,
    OnDemandProvisioner,
    PerformanceModel,
    Phase,
    PhaseModel,
    job_with_slack,
    last_resort,
)
from repro.utils.units import HOURS


class TestPhaseModel:
    def test_uniform_is_identity(self):
        model = PhaseModel.uniform()
        for w in (0.0, 0.3, 1.0):
            assert model.time_remaining(w) == pytest.approx(w)
            assert model.advance(w, 0.1) == pytest.approx(max(0.0, w - 0.1))

    def test_normalisation(self):
        model = PhaseModel([Phase(2.0, 1.0), Phase(2.0, 1.0)])
        assert model.time_remaining(1.0) == pytest.approx(1.0)
        assert sum(p.work for p in model.phases) == pytest.approx(1.0)

    def test_slow_tail_takes_longer(self):
        # Second half of the work at half speed: remaining time for the
        # last 50% of work exceeds 50% of t_exec.
        model = PhaseModel([Phase(0.5, 2.0), Phase(0.5, 0.5)])
        assert model.time_remaining(0.5) > 0.5
        assert model.time_remaining(1.0) == pytest.approx(1.0)

    def test_advance_crosses_phases(self):
        model = PhaseModel([Phase(0.5, 2.0), Phase(0.5, 0.5)])
        # Run the whole job in one go.
        assert model.advance(1.0, 1.0) == pytest.approx(0.0)
        # Run exactly through the fast phase.
        fast_time = model.time_remaining(1.0) - model.time_remaining(0.5)
        assert model.advance(1.0, fast_time) == pytest.approx(0.5)

    def test_speed_at(self):
        model = PhaseModel([Phase(0.5, 2.0), Phase(0.5, 0.5)])

        def slice_time(work_left):
            return model.time_remaining(work_left) - model.time_remaining(work_left - 0.01)

        # An equal work slice costs less time in the fast first phase.
        assert slice_time(1.0) < slice_time(0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseModel([])
        with pytest.raises(ValueError):
            Phase(0.0, 1.0)
        with pytest.raises(ValueError):
            Phase(0.5, -1.0)
        with pytest.raises(ValueError):
            PhaseModel.uniform().time_remaining(1.5)
        with pytest.raises(ValueError):
            PhaseModel.uniform().advance(0.5, -0.1)

    @given(
        split=st.floats(0.1, 0.9),
        speed=st.floats(0.25, 4.0),
        w=st.floats(0.0, 1.0),
        dt=st.floats(0.0, 1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_advance_time_remaining_consistency(self, split, speed, w, dt):
        model = PhaseModel([Phase(split, speed), Phase(1.0 - split, 1.0)])
        before = model.time_remaining(w)
        after_work = model.advance(w, dt)
        after = model.time_remaining(after_work)
        # Advancing by dt consumes exactly min(dt, before) of the
        # remaining time.
        assert before - after == pytest.approx(min(dt, before), abs=1e-9)

    @given(w=st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_time_remaining_monotone(self, w):
        model = PhaseModel([Phase(0.3, 3.0), Phase(0.7, 0.7)])
        assert model.time_remaining(w) <= model.time_remaining(min(1.0, w + 0.05)) + 1e-12


class TestPhasedSimulation:
    @pytest.fixture(scope="class")
    def env(self):
        catalog = tuple(default_catalog())
        lrc = last_resort(
            catalog,
            lambda ref: PerformanceModel(profile=COLORING_PROFILE, reference=ref),
        )
        perf = PerformanceModel(profile=COLORING_PROFILE, reference=lrc)
        return catalog, lrc, perf

    def test_uniform_phase_matches_default(self, long_market, env):
        catalog, lrc, perf = env
        job = job_with_slack(COLORING_PROFILE, 0.0, 0.5, perf.fixed_time(lrc))
        plain = ExecutionSimulator(
            long_market, perf, catalog, OnDemandProvisioner(), record_events=False
        ).run(job)
        phased = ExecutionSimulator(
            long_market,
            perf,
            catalog,
            OnDemandProvisioner(),
            record_events=False,
            phase_model=PhaseModel.uniform(),
        ).run(job)
        assert phased.cost == pytest.approx(plain.cost)
        assert phased.finish_time == pytest.approx(plain.finish_time)

    def test_time_accounting_preserves_guarantee(self, long_market, env):
        catalog, lrc, perf = env
        skewed = PhaseModel([Phase(0.6, 3.0), Phase(0.4, 0.45)])
        sim = ExecutionSimulator(
            long_market,
            perf,
            catalog,
            HourglassProvisioner(),
            record_events=False,
            phase_model=skewed,
            work_accounting=ACCOUNT_TIME,
        )
        rng = np.random.default_rng(3)
        for _ in range(6):
            start = float(rng.uniform(0, long_market.horizon - 60 * HOURS))
            job = job_with_slack(COLORING_PROFILE, start, 0.4, perf.fixed_time(lrc))
            result = sim.run(job)
            assert not result.missed_deadline

    def test_raw_accounting_can_break_guarantee(self, long_market, env):
        # With a violently slow tail and naive work accounting, the
        # provisioner overestimates its slack — the footnote-2 caveat.
        catalog, lrc, perf = env
        skewed = PhaseModel([Phase(0.8, 5.0), Phase(0.2, 0.21)])
        sim = ExecutionSimulator(
            long_market,
            perf,
            catalog,
            HourglassProvisioner(),
            record_events=False,
            phase_model=skewed,
            work_accounting=ACCOUNT_RAW,
        )
        rng = np.random.default_rng(3)
        results = []
        for _ in range(8):
            start = float(rng.uniform(0, long_market.horizon - 60 * HOURS))
            job = job_with_slack(COLORING_PROFILE, start, 0.2, perf.fixed_time(lrc))
            results.append(sim.run(job))
        # Not asserting that it *must* break (eviction-dependent), but
        # accounting mode must change behaviour: raw reporting makes the
        # provisioner act on wrong numbers, visible as later lrc
        # switches / different costs versus time accounting.
        sim_time = ExecutionSimulator(
            long_market,
            perf,
            catalog,
            HourglassProvisioner(),
            record_events=False,
            phase_model=skewed,
            work_accounting=ACCOUNT_TIME,
        )
        rng = np.random.default_rng(3)
        time_results = []
        for _ in range(8):
            start = float(rng.uniform(0, long_market.horizon - 60 * HOURS))
            job = job_with_slack(COLORING_PROFILE, start, 0.2, perf.fixed_time(lrc))
            time_results.append(sim_time.run(job))
        assert all(not r.missed_deadline for r in time_results)
        raw_costs = [r.cost for r in results]
        time_costs = [r.cost for r in time_results]
        assert raw_costs != time_costs

    def test_invalid_accounting(self, long_market, env):
        catalog, lrc, perf = env
        with pytest.raises(ValueError):
            ExecutionSimulator(
                long_market, perf, catalog, OnDemandProvisioner(),
                work_accounting="vibes",
            )
