"""Tests for hash, FENNEL, multilevel partitioners and quality metrics."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.graph import generators
from repro.partitioning import (
    FennelPartitioner,
    HashPartitioner,
    MultilevelPartitioner,
    Partitioning,
    edge_balance,
    edge_cut_fraction,
    random_cut_expectation,
)
from repro.partitioning import multilevel
from tests.scalar_oracle import from_edges
from tests import scalar_oracle


def vertex_balance(partitioning: Partitioning) -> float:
    """Max/avg ratio of per-partition vertex counts."""
    sizes = np.bincount(partitioning.assignment, minlength=partitioning.num_parts)
    return float(sizes.max() / sizes.mean())


class TestPartitioningType:
    def test_invariants_checked(self):
        with pytest.raises(ValueError):
            Partitioning(assignment=np.array([0, 3]), num_parts=2)
        with pytest.raises(ValueError):
            Partitioning(assignment=np.array([-1]), num_parts=2)
        with pytest.raises(ValueError):
            Partitioning(assignment=np.array([0]), num_parts=0)

    def test_part_sizes(self):
        p = Partitioning(assignment=np.array([0, 1, 1, 2]), num_parts=4)
        assert np.bincount(p.assignment, minlength=p.num_parts).tolist() == [1, 2, 1, 0]

    def test_part_vertices(self):
        p = Partitioning(assignment=np.array([0, 1, 0]), num_parts=2)
        assert scalar_oracle.part_vertices(p, 0).tolist() == [0, 2]

    def test_part_vertices_range_checked(self):
        p = Partitioning(assignment=np.array([0]), num_parts=1)
        with pytest.raises(ValueError):
            scalar_oracle.part_vertices(p, 5)

    def test_relabel(self):
        p = Partitioning(assignment=np.array([0, 1, 2, 3]), num_parts=4)
        merged = p.relabel(np.array([0, 0, 1, 1]), num_parts=2)
        assert merged.assignment.tolist() == [0, 0, 1, 1]

    def test_relabel_shape_checked(self):
        p = Partitioning(assignment=np.array([0, 1]), num_parts=2)
        with pytest.raises(ValueError):
            p.relabel(np.array([0]), num_parts=1)


class TestHashPartitioner:
    def test_modulo_assignment(self):
        g = scalar_oracle.path_graph(10)
        p = HashPartitioner().partition(g, 3)
        assert p.assignment.tolist() == [v % 3 for v in range(10)]

    def test_balance(self):
        g = scalar_oracle.path_graph(100)
        p = HashPartitioner().partition(g, 4)
        assert vertex_balance(p) <= 1.01

    def test_single_part(self):
        g = scalar_oracle.path_graph(5)
        p = HashPartitioner().partition(g, 1)
        assert np.bincount(p.assignment, minlength=p.num_parts).tolist() == [5]

    def test_empty_graph_rejected(self):
        from repro.graph import empty_graph

        with pytest.raises(ValueError):
            HashPartitioner().partition(empty_graph(0), 2)


class TestFennel:
    def test_beats_random_on_clustered_graph(self, community):
        p = FennelPartitioner().partition(community, 8, seed=1)
        assert edge_cut_fraction(community, p) < 0.8 * random_cut_expectation(8)

    def test_balance_respected(self, community):
        p = FennelPartitioner().partition(community, 8, seed=1)
        assert vertex_balance(p) <= 1.1 + 1e-6

    def test_all_vertices_assigned(self, social_graph):
        p = FennelPartitioner().partition(social_graph, 4, seed=2)
        assert (p.assignment >= 0).all()


class TestMultilevel:
    def test_ring_of_cliques_near_optimal(self):
        g = scalar_oracle.ring_of_cliques(16, 8)
        p = MultilevelPartitioner().partition(g, 4, seed=1)
        # Optimal cut severs 4 ring edges (8 directed) out of all edges.
        assert edge_cut_fraction(g, p) < 0.05

    def test_beats_fennel_on_communities(self, community):
        ml = MultilevelPartitioner().partition(community, 8, seed=1)
        fe = FennelPartitioner().partition(community, 8, seed=1)
        assert edge_cut_fraction(community, ml) <= edge_cut_fraction(community, fe) + 0.05

    def test_edge_balance_respected(self, social_graph):
        p = MultilevelPartitioner().partition(social_graph, 8, seed=1)
        assert edge_balance(social_graph, p) <= 1.35  # slack + hub granularity

    def test_single_part(self, social_graph):
        p = MultilevelPartitioner().partition(social_graph, 1)
        assert (p.assignment == 0).all()

    def test_parts_exceed_vertices(self):
        g = scalar_oracle.ring_of_cliques(1, 3)
        p = MultilevelPartitioner().partition(g, 10, seed=1)
        assert p.num_parts == 10
        assert len(set(p.assignment.tolist())) == 3

    def test_deterministic(self, community):
        a = MultilevelPartitioner().partition(community, 4, seed=9)
        b = MultilevelPartitioner().partition(community, 4, seed=9)
        assert np.array_equal(a.assignment, b.assignment)

    def test_restarts_never_worse(self, community):
        single = MultilevelPartitioner(restarts=1).partition(community, 8, seed=2)
        multi = MultilevelPartitioner(restarts=4).partition(community, 8, seed=2)
        assert (
            edge_cut_fraction(community, multi)
            <= edge_cut_fraction(community, single) + 1e-9
        )

    def test_vertex_weights_balanced(self):
        # One huge-weight vertex should sit alone-ish in its part.
        g = scalar_oracle.ring_of_cliques(4, 4)
        weights = np.ones(g.num_vertices)
        weights[0] = 100.0
        p = MultilevelPartitioner().partition(g, 2, seed=1, vertex_weights=weights)
        part_of_heavy = p.assignment[0]
        loads = np.zeros(2)
        np.add.at(loads, p.assignment, weights)
        assert loads[part_of_heavy] >= loads[1 - part_of_heavy]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MultilevelPartitioner(restarts=0)

    @pytest.mark.parametrize(
        "fill",
        [float("nan"), -1.0, 0.0, "one-inf"],
    )
    def test_invalid_vertex_weights_rejected(self, fill):
        # Unchecked, each of these put every vertex into one part.
        g = generators.community_graph(
            400, num_communities=4, avg_degree=8, mixing=0.1, seed=3
        )
        if fill == "one-inf":
            weights = np.ones(g.num_vertices)
            weights[7] = np.inf
        else:
            weights = np.full(g.num_vertices, fill)
        with pytest.raises(ValueError, match="vertex_weights"):
            MultilevelPartitioner().partition(g, 4, seed=1, vertex_weights=weights)

    def test_non_finite_edge_weights_rejected(self):
        g = scalar_oracle.ring_of_cliques(4, 4)
        weights = np.ones(g.num_edges)
        weights[3] = np.nan
        weighted = from_edges(
            scalar_oracle.edge_sources(g), g.indices, num_vertices=g.num_vertices, weights=weights
        )
        with pytest.raises(ValueError, match="edge weights"):
            MultilevelPartitioner().partition(weighted, 2, seed=1)

    def test_negative_edge_weights_rejected(self):
        # Matching, refinement gains and the int32 level bound assume them
        # non-negative; N(0, 1) weights used to partition without complaint.
        g = generators.community_graph(300, num_communities=4, avg_degree=8, seed=3)
        weights = np.random.default_rng(0).standard_normal(g.num_edges)
        src = scalar_oracle.edge_sources(g)
        weighted = from_edges(src, g.indices, num_vertices=g.num_vertices, weights=weights)
        with pytest.raises(ValueError, match="edge weights must be non-negative"):
            MultilevelPartitioner().partition(weighted, 4, seed=1)
        # Zero weights are fine.
        zeroed = from_edges(
            src, g.indices, num_vertices=g.num_vertices, weights=np.maximum(weights, 0.0)
        )
        assert MultilevelPartitioner().partition(zeroed, 4, seed=1).num_parts == 4

    def test_zero_refine_passes_skips_refinement(self, community):
        with mock.patch.object(multilevel, "REFINE_PASSES", 0):
            p = MultilevelPartitioner().partition(community, 4, seed=1)
        assert p.num_parts == 4 and (p.assignment >= 0).all()


class TestQualityMetrics:
    def test_edge_cut_zero_for_single_part(self, social_graph):
        p = HashPartitioner().partition(social_graph, 1)
        assert edge_cut_fraction(social_graph, p) == 0.0

    def test_edge_cut_range(self, social_graph):
        rng = np.random.default_rng(1)
        assignment = rng.integers(0, 16, size=social_graph.num_vertices)
        p = Partitioning(assignment=assignment, num_parts=16)
        assert 0.0 <= edge_cut_fraction(social_graph, p) <= 1.0

    def test_mismatched_partitioning_rejected(self, social_graph):
        p = Partitioning(assignment=np.zeros(3, dtype=np.int64), num_parts=1)
        with pytest.raises(ValueError):
            edge_cut_fraction(social_graph, p)

    def test_empty_graph_cut(self):
        from repro.graph import empty_graph

        g = empty_graph(4)
        p = Partitioning(assignment=np.zeros(4, dtype=np.int64), num_parts=2)
        assert edge_cut_fraction(g, p) == 0.0
        assert edge_balance(g, p) == 1.0

    def test_random_cut_expectation(self):
        assert random_cut_expectation(1) == 0.0
        assert random_cut_expectation(2) == 0.5
        assert random_cut_expectation(4) == 0.75
        with pytest.raises(ValueError):
            random_cut_expectation(0)
