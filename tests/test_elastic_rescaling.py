"""Tests for elastic mid-job rescaling on the active-vertex frontier.

Four concerns:

* **Back-compat / bit-identity** — with no rescale policy and no
  frontier curve, every new field defaults off and runs (and the load
  report's fingerprint) are byte-identical to the pre-elasticity
  behaviour, including when a policy is attached but never fires.
* **Frontier equivalence** — the engine-backed runtime and the
  engine-free superstep replay expose the *same* frontier trajectory to
  rescale policies at the same decision points.
* **Lifecycle mechanics** — a planned shrink deploys the target, meters
  its reload, and survives a later eviction (rollback to the
  checkpointed state the move restored from).
* **Planner vetting** — :meth:`PlanningService.plan_rescale` never
  proposes a move that would miss the deadline, forces a move off a
  configuration that cannot meet it, and honours the saving hysteresis.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.cloud import default_catalog
from repro.core import (
    PAGERANK_PROFILE,
    ExecutionSimulator,
    HourglassProvisioner,
    PerformanceModel,
    SpotOnProvisioner,
    job_with_slack,
    last_resort,
)
from repro.core.phases import ACCOUNT_TIME
from repro.core.provisioner import Provisioner
from repro.core.slack import SlackModel
from repro.engine.algorithms import SSSP
from repro.engine.checkpoint import CheckpointManager
from repro.engine.datastore import DataStore
from repro.engine.engine import PregelEngine
from repro.exec import (
    ExecutionLifecycle,
    FrontierCurve,
    RescaleContext,
    RescaleDecision,
    RescalePolicy,
    frontier_for_app,
)
from repro.graph import generators
from repro.load.report import LoadReport
from repro.runtime import HourglassRuntime
from repro.runtime.workmodel import EngineWorkModel
from repro.service import planning
from repro.service.planning import PlanningService, RescaleQuery
from repro.utils.units import HOURS
from tests.scalar_oracle import SuperstepWorkModel


@pytest.fixture(scope="module")
def catalog():
    return tuple(default_catalog())


@pytest.fixture(scope="module")
def graph():
    return generators.community_graph(1200, num_communities=10, avg_degree=10, seed=7)


def make_perf(catalog, profile=PAGERANK_PROFILE):
    lrc = last_resort(
        catalog, lambda ref: PerformanceModel(profile=profile, reference=ref)
    )
    return PerformanceModel(profile=profile, reference=lrc), lrc


class NeverPolicy(RescalePolicy):
    """Evaluated at every checkpoint, never moves."""

    def __init__(self):
        self.evaluations = 0

    def evaluate(self, ctx):
        self.evaluations += 1
        return None


class RecordingPolicy(RescalePolicy):
    """Records every decision-point context, never moves."""

    def __init__(self):
        self.seen = []

    def reset(self):
        self.seen.clear()

    def evaluate(self, ctx: RescaleContext):
        self.seen.append((ctx.t, ctx.superstep, ctx.frontier, ctx.work_left))
        return None


class ShrinkBelowThreshold(RescalePolicy):
    """Shrinks once, to the smallest same-market configuration, when the
    frontier drops to *threshold*: lifecycle behaviour without a planner."""

    def __init__(self, threshold):
        self.threshold = threshold
        self.fired = False

    def reset(self):
        self.fired = False

    def evaluate(self, ctx: RescaleContext):
        peers = [
            c
            for c in ctx.catalog
            if c.is_transient == ctx.config.is_transient
            and c.num_workers < ctx.config.num_workers
        ]
        if self.fired or ctx.frontier > self.threshold or not peers:
            return None
        self.fired = True
        return RescaleDecision(
            target=min(peers, key=lambda c: (c.num_workers, c.name)),
            action="shrink",
            stay_cost=float("nan"),
            target_cost=float("nan"),
            frontier=ctx.frontier,
            evaluated_at=ctx.t,
            reason="frontier under threshold",
        )


class PinnedProvisioner(Provisioner):
    """Deploys *config* once, keeps whatever is running after that.

    After losing a deployment it falls back to *fallback* (an on-demand
    shape): re-picking an evicted spot config at the eviction instant
    would redeploy into the same eviction forever — real strategies
    never choose a priced-out config, so the lifecycle does not need to
    break that tie for a deliberately stubborn stub.
    """

    name = "pinned"

    def __init__(self, config, fallback):
        self.config = config
        self.fallback = fallback
        self._deployed = False

    def reset(self):
        self._deployed = False

    def select(self, ctx):
        if ctx.current_config is not None:
            return ctx.current_config
        if self._deployed:
            return self.fallback
        self._deployed = True
        return self.config


# ----------------------------------------------------------------------
class TestFrontierCurve:
    def test_flat_is_identity(self):
        curve = FrontierCurve.flat()
        for p in (0.0, 0.3, 1.0):
            assert curve.value_at(p) == 1.0

    def test_exponential_decays_and_clamps(self):
        curve = FrontierCurve.exponential(half_life=0.25, floor=0.01)
        assert curve.value_at(0.0) == pytest.approx(1.0)
        assert curve.value_at(0.25) == pytest.approx(0.5, rel=0.05)
        assert curve.value_at(1.0) >= 0.01
        # Out-of-range progress clamps instead of extrapolating.
        assert curve.value_at(-1.0) == curve.value_at(0.0)
        assert curve.value_at(2.0) == curve.value_at(1.0)

    def test_from_series_replays_measured_fractions(self):
        counts = [1000, 600, 250, 60, 5]
        curve = FrontierCurve.from_series(counts, num_vertices=1000)
        values = [curve.value_at((i + 0.5) / len(counts)) for i in range(len(counts))]
        assert values == pytest.approx([1.0, 0.6, 0.25, 0.06, 0.005])

    def test_app_registry_shapes(self):
        assert frontier_for_app("pagerank").value_at(0.9) == 1.0
        assert frontier_for_app("sssp").value_at(0.9) < 0.1
        assert frontier_for_app("unknown-app").value_at(0.5) == 1.0


# ----------------------------------------------------------------------
class TestNoRescaleBitIdentity:
    def run_once(self, market, catalog, policy=None):
        perf, lrc = make_perf(catalog)
        provisioner = HourglassProvisioner()
        if policy is not None:
            provisioner.rescale_policy = policy
        sim = ExecutionSimulator(market, perf, catalog, provisioner)
        job = job_with_slack(PAGERANK_PROFILE, 0.0, 0.5, perf.fixed_time(lrc))
        return sim.run(job)

    def test_run_result_backcompat_defaults(self, long_market, catalog):
        result = self.run_once(long_market, catalog)
        assert result.rescales == 0
        assert result.rescale_seconds == 0.0
        assert result.rescale_records == ()

    def test_never_firing_policy_is_invisible(self, long_market, catalog):
        baseline = self.run_once(long_market, catalog)
        policy = NeverPolicy()
        shadowed = self.run_once(long_market, catalog, policy=policy)
        assert policy.evaluations > 0, "no checkpoint decision points reached"
        assert shadowed.cost == baseline.cost
        assert shadowed.finish_time == baseline.finish_time
        assert shadowed.rescales == 0
        assert [(e.t, e.kind, e.config) for e in shadowed.events] == [
            (e.t, e.kind, e.config) for e in baseline.events
        ]

    def test_fingerprint_drops_disabled_elastic_fields(self):
        values = {f.name: 0 for f in LoadReport.__dataclass_fields__.values()}
        values.update(trace_checksum="abc", elastic=False, frontend=False)
        report = LoadReport(**values)
        payload = {
            k: v
            for k, v in asdict(report).items()
            if not k.endswith("_ms") and k not in LoadReport.WALL_CLOCK_FIELDS
        }
        for key in ("elastic", "rescales", "rescale_shrinks", "rescale_seconds"):
            payload.pop(key)
        legacy = hashlib.sha256(
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        assert report.fingerprint() == legacy

    def test_fingerprint_pins_elastic_outcomes_when_enabled(self):
        values = {f.name: 0 for f in LoadReport.__dataclass_fields__.values()}
        values.update(trace_checksum="abc", frontend=False)
        off = LoadReport(**dict(values, elastic=False))
        on = LoadReport(**dict(values, elastic=True))
        moved = LoadReport(**dict(values, elastic=True, rescales=3, rescale_shrinks=2))
        assert on.fingerprint() != off.fingerprint()
        assert moved.fingerprint() != on.fingerprint()


# ----------------------------------------------------------------------
class TestFrontierReplayEquivalence:
    """Runtime-measured and calibration-replayed frontiers must agree."""

    def build_runtime(self, graph, market, catalog):
        return HourglassRuntime(
            graph,
            lambda: SSSP(source=0),
            market,
            catalog,
            SpotOnProvisioner(),
            num_micro_parts=32,
            seed=2,
            time_scale=40_000.0,
            data_scale=20_000,
        )

    def run_engine(self, rt, policy, release, deadline):
        model = EngineWorkModel(
            graph=rt.graph,
            program_factory=rt.program_factory,
            loader=rt.loader,
            perf=rt.perf,
            checkpoints=CheckpointManager(DataStore(), "frontier-twin"),
            seed=rt.seed,
        )
        lifecycle = ExecutionLifecycle(
            market=rt.market,
            catalog=rt.catalog,
            provisioner=rt.provisioner,
            work_model=model,
            lrc=rt.lrc,
            rescale_policy=policy,
        )
        return lifecycle.run(release, deadline)

    def run_replay(self, rt, policy, release, deadline):
        lifecycle = ExecutionLifecycle(
            market=rt.market,
            catalog=rt.catalog,
            provisioner=rt.provisioner,
            work_model=SuperstepWorkModel(rt.perf),
            lrc=rt.lrc,
            rescale_policy=policy,
        )
        return lifecycle.run(release, deadline)

    def test_same_frontier_at_same_decision_points(self, graph, long_market, catalog):
        rt = self.build_runtime(graph, long_market, catalog)
        deadline = rt.perf.fixed_time(rt.lrc) + 2.0 * rt.perf.exec_time(rt.lrc)
        engine_policy, replay_policy = RecordingPolicy(), RecordingPolicy()
        engine_result = self.run_engine(rt, engine_policy, 0.0, deadline)
        replay_result = self.run_replay(rt, replay_policy, 0.0, deadline)
        assert engine_result.cost == replay_result.cost
        assert engine_policy.seen, "no checkpoint decision points reached"
        assert engine_policy.seen == replay_policy.seen
        frontiers = [f for _, _, f, _ in engine_policy.seen]
        assert max(frontiers) <= 1.0 and min(frontiers) >= 0.0

    def test_sssp_frontier_actually_collapses(self, graph):
        engine = PregelEngine(graph, SSSP(source=0))
        outcome = engine.run()
        fractions = [
            s.active_vertices / graph.num_vertices for s in outcome.stats
        ]
        assert fractions[-1] < 0.05 < max(fractions)


# ----------------------------------------------------------------------
class TestShrinkThenEvict:
    def test_planned_shrink_survives_later_eviction(self, long_market, catalog):
        perf, lrc = make_perf(catalog, PAGERANK_PROFILE.scaled(8))
        wide_spot = max(
            (c for c in catalog if c.is_transient), key=lambda c: c.num_workers
        )
        on_demand = max(
            (c for c in catalog if not c.is_transient), key=lambda c: c.num_workers
        )
        # A fast-collapsing frontier plus a high threshold makes the
        # shrink fire within the wide spot config's first few checkpoint
        # intervals — before the (inevitable) eviction, which then hits
        # the shrunk target instead.
        curve = FrontierCurve.exponential(half_life=0.15, floor=0.01)
        saw_shrink_then_evict = False
        for start_hours in range(0, 240, 13):
            policy = ShrinkBelowThreshold(threshold=0.6)
            provisioner = PinnedProvisioner(wide_spot, on_demand)
            provisioner.rescale_policy = policy
            sim = ExecutionSimulator(
                long_market,
                perf,
                catalog,
                provisioner,
                frontier_curve=curve,
                work_accounting=ACCOUNT_TIME,
            )
            release = float(start_hours) * HOURS
            job = job_with_slack(
                PAGERANK_PROFILE.scaled(8), release, 3.0, perf.fixed_time(lrc)
            )
            result = sim.run(job)
            assert result.finish_time > release
            if result.rescales == 0:
                continue
            assert result.rescales == 1  # max_rescales budget respected
            record = result.rescale_records[0]
            assert record.action == "shrink"
            assert record.from_config in (wide_spot.name, on_demand.name)
            assert record.frontier <= 0.6
            assert record.reload_seconds > 0.0
            assert result.rescale_seconds == pytest.approx(record.reload_seconds)
            rescale_events = [e for e in result.events if e.kind == "rescale"]
            assert len(rescale_events) == 1
            later_evictions = [
                e
                for e in result.events
                if e.kind == "eviction" and e.t > rescale_events[0].t
            ]
            if later_evictions:
                saw_shrink_then_evict = True
                break
        assert saw_shrink_then_evict, (
            "no start produced a planned shrink followed by an eviction; "
            "widen the sweep"
        )


# ----------------------------------------------------------------------
class TestPlanRescaleVetting:
    def make_query(self, market, catalog, current, slack_fraction):
        perf, lrc = make_perf(catalog)
        t = market.start + 2 * HOURS
        deadline = t + perf.fixed_time(lrc) + perf.exec_time(lrc) * (
            1.0 + slack_fraction
        )
        sm = SlackModel(perf=perf, lrc=lrc, deadline=deadline)
        return RescaleQuery(
            slack_model=sm,
            catalog=tuple(catalog),
            t=t,
            work_left=1.0,
            current_config=current,
            current_uptime=600.0,
        )

    def test_never_targets_deadline_missing_config(self, small_market, catalog):
        service = PlanningService(small_market)
        perf, lrc = make_perf(catalog)
        # Nearly zero slack: only the last-resort worker width can make
        # the deadline, so any proposed target must keep that width.
        query = self.make_query(small_market, catalog, lrc, 0.02)
        decision = service.plan_rescale(query)
        if decision is not None:
            assert decision.target.num_workers == lrc.num_workers
            assert np.isfinite(decision.target_cost)

    def test_forces_move_off_infeasible_config(self, small_market, catalog):
        service = PlanningService(small_market)
        perf, lrc = make_perf(catalog)
        slow = max(catalog, key=lambda c: perf.exec_time(c))
        query = self.make_query(small_market, catalog, slow, 0.02)
        decision = service.plan_rescale(query)
        assert decision is not None
        assert decision.target.num_workers == lrc.num_workers
        assert np.isinf(decision.stay_cost)
        assert np.isfinite(decision.target_cost)

    def test_hysteresis_blocks_marginal_moves(self, small_market, catalog, monkeypatch):
        """A move saving under ``MIN_SAVING_FRACTION`` of the stay cost
        is not taken; with no threshold the same move is."""
        current = next(c for c in catalog if c.name == "4xr4.8xlarge:spot")
        query = self.make_query(small_market, catalog, current, 1.0)
        threshold = planning.MIN_SAVING_FRACTION
        assert PlanningService(small_market).plan_rescale(query) is None
        monkeypatch.setattr(planning, "MIN_SAVING_FRACTION", 0.0)
        move = PlanningService(small_market).plan_rescale(query)
        assert move is not None
        assert 0.0 < move.saving < threshold * move.stay_cost

    def test_rescale_queries_counted(self, small_market, catalog):
        service = PlanningService(small_market)
        _, lrc = make_perf(catalog)
        before = service.service_stats()["rescale_queries"]
        service.plan_rescale(self.make_query(small_market, catalog, lrc, 0.5))
        assert service.service_stats()["rescale_queries"] == before + 1


# ----------------------------------------------------------------------
class TestLegacyRestoreFrontier:
    """A restored engine keeps the real per-superstep history, so the
    frontier signal survives a restore."""

    def test_format2_restore_keeps_real_stats(self, graph):
        engine = PregelEngine(graph, SSSP(source=0))
        for _ in range(3):
            engine.step()
        fresh = PregelEngine(graph, SSSP(source=0))
        fresh.restore_state(engine.capture_state())
        assert fresh.stats == engine.stats[:3]
        assert fresh.stats[-1].messages_sent == engine.stats[2].messages_sent
