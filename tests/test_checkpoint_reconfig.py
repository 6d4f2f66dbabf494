"""Checkpoint round trips under a *changed* worker layout.

The Hourglass reconfiguration case: a job checkpoints mid-run, the spot
configuration is evicted, and the job resumes on a deployment with a
different worker count and a structurally different partitioning.  The
full engine state — values, halted flags, pending messages and
per-superstep stats — must survive checkpoint → restore →
re-checkpoint unchanged, and the resumed run must finish with the
undisturbed answer and consistent statistics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import CheckpointManager, DataStore, PregelEngine
from repro.engine.algorithms import PageRank
from repro.graph import generators
from repro.partitioning import (
    FennelPartitioner,
    HashPartitioner,
    MultilevelPartitioner,
)
from tests import scalar_oracle
from tests.scalar_oracle import GraphColoring, ScalarEngine, as_dict, is_proper_coloring


@pytest.fixture(scope="module")
def graph():
    return scalar_oracle.random_graph(150, avg_degree=6, seed=11).undirected()


def make_engine(graph, partitioning):
    return PregelEngine(graph, PageRank(iterations=6), partitioning)


class TestReconfigurationRoundTrip:
    def checkpointed_engine(self, graph, steps=3):
        engine = make_engine(graph, HashPartitioner().partition(graph, 3))
        for _ in range(steps):
            engine.step()
        manager = CheckpointManager(DataStore(), "reconfig")
        manager.save(engine)
        return engine, manager

    def test_full_state_survives_layout_change(self, graph):
        engine, manager = self.checkpointed_engine(graph)
        restored = make_engine(graph, MultilevelPartitioner().partition(graph, 2, seed=4))
        manager.load_into(restored)

        assert restored.superstep == engine.superstep
        assert restored.values() == engine.values()
        assert np.array_equal(restored._halted, engine._halted)
        assert as_dict(restored._incoming) == as_dict(engine._incoming)
        assert restored.stats == engine.stats

    def test_re_checkpoint_after_restore_is_identical(self, graph):
        engine, manager = self.checkpointed_engine(graph)
        restored = make_engine(graph, MultilevelPartitioner().partition(graph, 2, seed=4))
        manager.load_into(restored)

        # Re-checkpoint from the 2-worker deployment, then recover onto
        # yet another layout: the state must still be the original one.
        manager2 = CheckpointManager(DataStore(), "reconfig-2")
        manager2.save(restored)
        third = make_engine(graph, FennelPartitioner().partition(graph, 4, seed=9))
        manager2.load_into(third)

        assert third.superstep == engine.superstep
        assert third.values() == engine.values()
        assert np.array_equal(third._halted, engine._halted)
        assert as_dict(third._incoming) == as_dict(engine._incoming)
        assert third.stats == engine.stats

    def test_resumed_run_matches_undisturbed(self, graph):
        _, manager = self.checkpointed_engine(graph)
        restored = make_engine(graph, MultilevelPartitioner().partition(graph, 2, seed=4))
        manager.load_into(restored)
        resumed = restored.run()
        undisturbed = make_engine(graph, HashPartitioner().partition(graph, 3)).run()

        assert resumed.supersteps_run == undisturbed.supersteps_run
        for v, value in undisturbed.values.items():
            assert resumed.values[v] == pytest.approx(value, abs=1e-12)
        # Stats were restored with the checkpoint, so cumulative message
        # counts agree with the undisturbed history (the eviction-recovery
        # accounting bug this guards against).
        assert len(resumed.stats) == resumed.supersteps_run
        assert sum(s.messages_sent for s in resumed.stats) == sum(
            s.messages_sent for s in undisturbed.stats
        )

    def test_restore_reports_checkpointed_superstep_stats(self, graph):
        engine, manager = self.checkpointed_engine(graph, steps=4)
        restored = make_engine(graph, HashPartitioner().partition(graph, 2))
        manager.load_into(restored)
        result = restored.result(halted_normally=False)
        assert result.supersteps_run == 4
        assert len(result.stats) == 4
        assert sum(s.messages_sent for s in result.stats) == sum(
            s.messages_sent for s in engine.stats
        )


class TestScalarPathReconfiguration:
    """Same round trip for a generic-message program (tuple messages) on
    the per-vertex reference path."""

    def test_coloring_resumes_across_layouts(self):
        graph = generators.community_graph(80, num_communities=4, seed=2).undirected()
        engine = ScalarEngine(graph, GraphColoring(seed=5), HashPartitioner().partition(graph, 3))
        for _ in range(3):  # odd step count: pending phase-A messages in flight
            engine.step()
        manager = CheckpointManager(DataStore(), "coloring")
        manager.save(engine)

        restored = ScalarEngine(
            graph, GraphColoring(seed=5), MultilevelPartitioner().partition(graph, 2, seed=1)
        )
        manager.load_into(restored)
        assert as_dict(restored._incoming) == as_dict(engine._incoming)
        assert restored.stats == engine.stats

        resumed = restored.run()
        undisturbed = ScalarEngine(
            graph, GraphColoring(seed=5), HashPartitioner().partition(graph, 3)
        ).run()
        assert resumed.values == undisturbed.values
        assert is_proper_coloring(graph, resumed.values)
        assert resumed.supersteps_run == undisturbed.supersteps_run
