"""Tests for the active-vertex frontier.

Three concerns:

* **Curves** — :class:`FrontierCurve` value semantics and the per-app
  registry ``fig_elastic`` compiles into phases.
* **Replay equivalence** — the engine-backed runtime and the
  engine-free superstep replay show the provisioner the same
  ``(t, work_left)`` at the same decision points, and SSSP's measured
  frontier really collapses.
* **Restore** — a restored engine keeps the real per-superstep history.
"""

from __future__ import annotations

import pytest

from repro.cloud import default_catalog
from repro.core import SpotOnProvisioner
from repro.core.provisioner import Provisioner
from repro.engine.algorithms import SSSP
from repro.engine.checkpoint import CheckpointManager
from repro.engine.datastore import DataStore
from repro.engine.engine import PregelEngine
from repro.exec import ExecutionLifecycle, FrontierCurve, frontier_for_app
from repro.graph import generators
from repro.runtime import HourglassRuntime
from repro.runtime.workmodel import EngineWorkModel
from tests.scalar_oracle import SuperstepWorkModel


@pytest.fixture(scope="module")
def catalog():
    return tuple(default_catalog())


@pytest.fixture(scope="module")
def graph():
    return generators.community_graph(1200, num_communities=10, avg_degree=10, seed=7)


class RecordingProvisioner(Provisioner):
    """Delegates to *inner*; records every decision point it is shown."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.seen = []

    def reset(self):
        self.seen.clear()
        self.inner.reset()

    def select(self, ctx):
        self.seen.append((ctx.t, ctx.work_left))
        return self.inner.select(ctx)

    def segment_limit(self, ctx):
        return self.inner.segment_limit(ctx)


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

    def test_app_registry_shapes(self):
        assert frontier_for_app("pagerank").value_at(0.9) == 1.0
        assert frontier_for_app("sssp").value_at(0.9) < 0.1
        assert frontier_for_app("unknown-app").value_at(0.5) == 1.0


# ----------------------------------------------------------------------
class TestFrontierReplayEquivalence:
    """The runtime and its calibration replay must decide alike."""

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

    def run_lifecycle(self, rt, work_model, release, deadline):
        recorder = RecordingProvisioner(rt.provisioner)
        lifecycle = ExecutionLifecycle(
            market=rt.market,
            catalog=rt.catalog,
            provisioner=recorder,
            work_model=work_model,
            lrc=rt.lrc,
        )
        return lifecycle.run(release, deadline), recorder.seen

    def test_same_cost_and_t_work_left_at_each_decision_point(
        self, graph, long_market, catalog
    ):
        rt = self.build_runtime(graph, long_market, catalog)
        deadline = rt.perf.fixed_time(rt.lrc) + 2.0 * rt.perf.exec_time(rt.lrc)
        engine_model = EngineWorkModel(
            graph=rt.graph,
            program_factory=rt.program_factory,
            loader=rt.loader,
            perf=rt.perf,
            checkpoints=CheckpointManager(DataStore(), "frontier-twin"),
            seed=rt.seed,
        )
        engine_result, engine_seen = self.run_lifecycle(rt, engine_model, 0.0, deadline)
        replay_result, replay_seen = self.run_lifecycle(
            rt, SuperstepWorkModel(rt.perf), 0.0, deadline
        )
        assert engine_result.cost == replay_result.cost
        # Job start plus at least one checkpoint decision point.
        assert len(engine_seen) > 1, "no checkpoint decision points reached"
        assert engine_seen == replay_seen

    def test_sssp_frontier_actually_collapses(self, graph):
        engine = PregelEngine(graph, SSSP(source=0))
        outcome = engine.run()
        fractions = [
            s.active_vertices / graph.num_vertices for s in outcome.stats
        ]
        assert fractions[-1] < 0.05 < max(fractions)


# ----------------------------------------------------------------------
class TestLegacyRestoreFrontier:
    """A restored engine keeps the real per-superstep history."""

    def test_format2_restore_keeps_real_stats(self, graph):
        engine = PregelEngine(graph, SSSP(source=0))
        for _ in range(3):
            engine.step()
        fresh = PregelEngine(graph, SSSP(source=0))
        fresh.restore_state(engine.capture_state())
        assert fresh.stats == engine.stats[:3]
        assert fresh.stats[-1].messages_sent == engine.stats[2].messages_sent
