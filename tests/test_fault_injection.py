"""Fault-injection tests over the shared execution lifecycle.

Exercises the recovery paths the paper's design depends on, on both
front-ends:

* a checkpoint write lost to a flaky datastore must roll the job back
  to the *previous* persisted checkpoint on the next eviction — and,
  on the engine-backed runtime, the recomputed vertex values must be
  bit-identical to an undisturbed run;
* an injected eviction storm that makes transient capacity useless
  must still meet the deadline via the on-demand last resort;
* slow-boot injection shifts the timeline by exactly the injected
  setup inflation.
"""

from __future__ import annotations

import pytest

from repro.cloud import default_catalog
from repro.core import (
    PAGERANK_PROFILE,
    ExecutionSimulator,
    HourglassProvisioner,
    OnDemandProvisioner,
    PerformanceModel,
    job_with_slack,
    last_resort,
)
from repro.core.ckpt_policy import daly_interval
from repro.core.provisioner import Provisioner, ProvisioningContext
from repro.engine import PregelEngine
from repro.engine.algorithms import PageRank
from repro.exec import (
    CheckpointWritePlan,
    DatastoreWriteFaults,
    EvictionStormFaults,
    SlowBootFaults,
)
from repro.graph import generators
from repro.runtime import HourglassRuntime
from repro.utils.units import HOURS


class PinnedProvisioner(Provisioner):
    """Always deploys one fixed configuration (test scaffolding).

    Pinning removes the strategy's reaction to injected faults, so a
    test can predict the exact deploy/checkpoint/evict timeline.
    """

    name = "pinned"

    def __init__(self, config):
        self.config = config

    def select(self, ctx: ProvisioningContext):
        """Pick the configuration to run next (always the pinned one)."""
        return self.config


@pytest.fixture(scope="module")
def catalog():
    return tuple(default_catalog())


@pytest.fixture(scope="module")
def graph():
    return generators.community_graph(1500, num_communities=12, avg_degree=12, seed=4)


def make_sim(market, provisioner, catalog, observers=(), ckpt_interval_scale=1.0):
    lrc = last_resort(
        catalog,
        lambda ref: PerformanceModel(profile=PAGERANK_PROFILE, reference=ref),
    )
    perf = PerformanceModel(profile=PAGERANK_PROFILE, reference=lrc)
    sim = ExecutionSimulator(
        market,
        perf,
        catalog,
        provisioner,
        observers=observers,
        ckpt_interval_scale=ckpt_interval_scale,
    )
    return sim, perf, lrc


def calm_start(market, config, span, step_hours=13, limit_hours=240):
    """A release time whose first deployment the trace leaves alone."""
    for start_hours in range(0, limit_hours, step_hours):
        start = float(start_hours) * HOURS
        eviction = market.eviction_time(config, start)
        if eviction is None or eviction > start + span:
            return start
    raise AssertionError("no calm market window found; lengthen the trace")


class TestDatastoreFaultsAnalytic:
    def test_eviction_rolls_back_to_previous_checkpoint(self, long_market, catalog):
        # Pin a transient shape and shrink the Daly interval so the
        # timeline is exact: checkpoint #0 persists, checkpoint #1 is
        # abandoned after one retry, and a forced eviction lands in the
        # third segment — before anything else persisted.
        config = [c for c in catalog if c.is_transient][0]
        scale = 0.05
        faults = DatastoreWriteFaults({1}, retries=1, backoff_seconds=30.0)
        sim, perf, lrc = make_sim(
            long_market,
            PinnedProvisioner(config),
            catalog,
            observers=[faults],
            ckpt_interval_scale=scale,
        )
        save = perf.save_time(config)
        setup = perf.setup_time(config)
        budget = daly_interval(save, long_market.eviction_model(config).mttf) * scale
        failed_write = 2 * save + 30.0  # two attempts + one backoff wait
        uptime = setup + (budget + save) + (budget + failed_write) + 0.5 * budget
        storm = EvictionStormFaults(uptime, max_evictions=1)
        sim.observers = (faults, storm)
        start = calm_start(long_market, config, uptime + 1.0)
        job = job_with_slack(PAGERANK_PROFILE, start, 1.0, perf.fixed_time(lrc))

        result = sim.run(job)

        kinds = [e.kind for e in result.events]
        i_fail = kinds.index("checkpoint-failed")
        i_ok = max(j for j in range(i_fail) if kinds[j] == "checkpoint")
        assert kinds[i_fail + 1] == "eviction"
        ok, fail, evicted = (
            result.events[i_ok],
            result.events[i_fail],
            result.events[i_fail + 1],
        )
        # Progress past the persisted checkpoint was lost: the failed
        # write advanced in-memory work only, so the eviction rewinds
        # exactly to checkpoint #0's work fraction.
        assert fail.work_left < ok.work_left - 1e-12
        assert evicted.work_left == ok.work_left
        assert faults.injected == [
            CheckpointWritePlan(seconds=failed_write, success=False, attempts=2)
        ]
        assert kinds[-1] == "finish"
        assert result.checkpoints == kinds.count("checkpoint")

    def test_write_retry_plans(self, catalog):
        config = [c for c in catalog if c.is_transient][0]
        recovered = DatastoreWriteFaults(
            {3}, failures_per_write=2, retries=3, backoff_seconds=5.0, backoff_factor=2.0
        )
        assert recovered.plan_checkpoint_write(0.0, config, 100.0, 0) is None
        plan = recovered.plan_checkpoint_write(0.0, config, 100.0, 3)
        assert plan == CheckpointWritePlan(seconds=315.0, success=True, attempts=3)
        abandoned = DatastoreWriteFaults({0}, retries=1, backoff_seconds=5.0)
        plan = abandoned.plan_checkpoint_write(0.0, config, 100.0, 0)
        assert plan == CheckpointWritePlan(seconds=205.0, success=False, attempts=2)

    def test_validation(self):
        with pytest.raises(ValueError):
            DatastoreWriteFaults({0}, retries=-1)
        with pytest.raises(ValueError):
            DatastoreWriteFaults({0}, failures_per_write=0)
        with pytest.raises(ValueError):
            EvictionStormFaults(0.0)
        with pytest.raises(ValueError):
            EvictionStormFaults(10.0, max_evictions=-1)
        with pytest.raises(ValueError):
            SlowBootFaults(factor=0.0)
        with pytest.raises(ValueError):
            SlowBootFaults(extra_seconds=-1.0)


class TestDatastoreFaultsRuntime:
    def test_recovery_from_previous_checkpoint_is_exact(self, graph, long_market, catalog):
        # Two-phase construction: run once with only the write fault to
        # learn when checkpoint #1 fails and when the next one lands,
        # then force an eviction in between.  The prefix up to that
        # eviction is identical in both runs (the storm only moves the
        # eviction instant), so the rollback provably targets the
        # *previous* checkpoint — and the recomputed answer must match
        # an undisturbed run bit for bit.
        config = [c for c in catalog if c.is_transient][0]
        rt = HourglassRuntime(
            graph,
            lambda: PageRank(iterations=12),
            long_market,
            catalog,
            PinnedProvisioner(config),
            num_micro_parts=32,
            seed=2,
            time_scale=3000.0,
            data_scale=20_000,
        )
        budget = rt.perf.fixed_time(rt.lrc) + 3.0 * rt.perf.exec_time(rt.lrc)
        undisturbed = PregelEngine(
            graph,
            PageRank(iterations=12),
            rt.artefact.cluster(config.num_workers, seed=2),
        ).run()

        # Phase A: find a start whose trace-only run goes
        # checkpoint -> checkpoint-failed -> checkpoint uninterrupted.
        release = t_fail = t_next = None
        for start_hours in range(0, 200, 13):
            candidate = float(start_hours) * HOURS
            rt.observers = (DatastoreWriteFaults({1}, retries=0),)
            probe = rt.execute(candidate, candidate + budget)
            kinds = [e.kind for e in probe.events]
            if "checkpoint-failed" not in kinds:
                continue
            i_fail = kinds.index("checkpoint-failed")
            after = kinds[i_fail + 1 :]
            if (
                "eviction" not in kinds[:i_fail]
                and "checkpoint" in kinds[:i_fail]
                and after
                and after[0] == "checkpoint"
            ):
                release = candidate
                t_fail = probe.events[i_fail].t
                t_next = probe.events[i_fail + 1].t
                break
        assert release is not None, "no usable fault window found; lengthen the trace"

        # Phase B: same faults plus an eviction forced mid-window.
        faults = DatastoreWriteFaults({1}, retries=0)
        storm = EvictionStormFaults(
            (t_fail + t_next) / 2.0 - release, max_evictions=1
        )
        rt.observers = (faults, storm)
        result = rt.execute(release, release + budget)

        kinds = [e.kind for e in result.events]
        i_fail = kinds.index("checkpoint-failed")
        assert kinds[i_fail + 1] == "eviction"
        first_ok = next(e for e in result.events if e.kind == "checkpoint")
        failed = result.events[i_fail]
        evicted = result.events[i_fail + 1]
        # The failed write never moved the rollback point: the eviction
        # rewinds to checkpoint #0's superstep, not the failed write's.
        assert failed.superstep > first_ok.superstep
        assert evicted.superstep == first_ok.superstep
        assert faults.injected[0].success is False
        assert result.evictions >= 1
        assert kinds[-1] == "finish"
        for v, value in undisturbed.values.items():
            assert result.values[v] == pytest.approx(value, abs=1e-15)


class TestEvictionStorm:
    def test_hourglass_meets_deadline_via_last_resort(self, long_market, catalog):
        # Evict every transient deployment mid-setup: spot capacity can
        # make no progress at all, so the slack drains until the
        # provisioner falls back to the on-demand last resort — and the
        # deadline guarantee must survive the storm.
        sim, perf, lrc = make_sim(long_market, HourglassProvisioner(), catalog)
        job = job_with_slack(PAGERANK_PROFILE, 0.0, 0.5, perf.fixed_time(lrc))
        clean = sim.run(job)

        uptime = 0.25 * min(perf.setup_time(c) for c in catalog if c.is_transient)
        storm = EvictionStormFaults(uptime)
        stormy_sim, _, _ = make_sim(
            long_market, HourglassProvisioner(), catalog, observers=[storm]
        )
        result = stormy_sim.run(job)

        assert not result.missed_deadline
        assert result.evictions > clean.evictions
        assert storm.forced > 0
        assert result.on_demand_seconds > 0.0
        assert result.events[-1].kind == "finish"

    def test_runtime_storm_values_exact(self, graph, long_market, catalog):
        # Batter the engine-backed runtime with forced evictions; the
        # computation must still finish and agree with an undisturbed
        # run exactly.
        config = [c for c in catalog if c.is_transient][0]
        rt = HourglassRuntime(
            graph,
            lambda: PageRank(iterations=12),
            long_market,
            catalog,
            HourglassProvisioner(),
            num_micro_parts=32,
            seed=2,
            time_scale=3000.0,
            data_scale=20_000,
        )
        deadline = rt.perf.fixed_time(rt.lrc) + 1.5 * rt.perf.exec_time(rt.lrc)
        uptime = 0.25 * min(rt.perf.setup_time(c) for c in catalog if c.is_transient)
        storm = EvictionStormFaults(uptime)
        rt.observers = (storm,)
        result = rt.execute(0.0, deadline)

        assert not result.missed_deadline
        assert storm.forced > 0
        undisturbed = PregelEngine(
            graph,
            PageRank(iterations=12),
            rt.artefact.cluster(config.num_workers, seed=2),
        ).run()
        for v, value in undisturbed.values.items():
            assert result.values[v] == pytest.approx(value, abs=1e-15)


class TestSlowBoot:
    def test_setup_inflation_shifts_timeline_exactly(self, long_market, catalog):
        sim, perf, lrc = make_sim(long_market, OnDemandProvisioner(), catalog)
        job = job_with_slack(PAGERANK_PROFILE, 0.0, 0.5, perf.fixed_time(lrc))
        clean = sim.run(job)

        slow_sim, _, _ = make_sim(
            long_market,
            OnDemandProvisioner(),
            catalog,
            observers=[SlowBootFaults(factor=2.0, extra_seconds=600.0)],
        )
        slow = slow_sim.run(job)
        # One on-demand deployment: the whole timeline shifts by the
        # injected setup inflation (setup * (2 - 1) + 600).
        assert slow.deployments == clean.deployments == 1
        assert slow.finish_time == pytest.approx(
            clean.finish_time + perf.setup_time(lrc) + 600.0
        )
        assert slow.cost > clean.cost

    def test_untargeted_deployments_are_untouched(self, long_market, catalog):
        sim, perf, lrc = make_sim(long_market, OnDemandProvisioner(), catalog)
        job = job_with_slack(PAGERANK_PROFILE, 0.0, 0.5, perf.fixed_time(lrc))
        clean = sim.run(job)
        faulted_sim, _, _ = make_sim(
            long_market,
            OnDemandProvisioner(),
            catalog,
            observers=[SlowBootFaults(factor=3.0, deployments={7})],
        )
        assert faulted_sim.run(job) == clean
