"""Tests for the mechanistic superstep-timing model."""

from __future__ import annotations

import pytest

from repro.engine import ClusterTimingModel, PregelEngine
from repro.engine.algorithms import PageRank
from repro.graph import generators
from repro.partitioning import HashPartitioner


@pytest.fixture(scope="module")
def graph():
    return generators.power_law_social(1500, avg_degree=10, seed=8)


class TestClusterTimingModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterTimingModel(vertex_ops_per_second=0)
        with pytest.raises(ValueError):
            ClusterTimingModel(barrier_latency=0)

    def test_superstep_seconds_positive(self, graph):
        result = PregelEngine(
            graph, PageRank(iterations=2), HashPartitioner().partition(graph, 4)
        ).run()
        model = ClusterTimingModel()
        for stats in result.stats:
            assert model.superstep_seconds(stats, 4) > 0

    def test_more_workers_less_compute_time(self, graph):
        # With constant per-worker rates, more workers shrink the
        # compute/messaging terms (network+barrier grow much slower at
        # this scale).
        result = PregelEngine(
            graph, PageRank(iterations=2), HashPartitioner().partition(graph, 2)
        ).run()
        model = ClusterTimingModel(barrier_latency=1e-6)
        t2 = sum(model.superstep_seconds(s, 2) for s in result.stats)
        t16 = sum(model.superstep_seconds(s, 16) for s in result.stats)
        assert t16 < t2

    def test_invalid_workers(self, graph):
        result = PregelEngine(graph, PageRank(iterations=1)).run()
        with pytest.raises(ValueError):
            ClusterTimingModel().superstep_seconds(result.stats[0], 0)
