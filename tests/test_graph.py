"""Tests for the CSR Graph structure and builders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import Graph, empty_graph
from tests.scalar_oracle import edge_weights, from_edges
from tests import scalar_oracle


class TestFromEdges:
    def test_basic_construction(self):
        g = from_edges([0, 0, 1], [1, 2, 2])
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert list(g.neighbors(0)) == [1, 2]
        assert list(g.neighbors(1)) == [2]
        assert list(g.neighbors(2)) == []

    def test_explicit_num_vertices(self):
        g = from_edges([0], [1], num_vertices=10)
        assert g.num_vertices == 10

    def test_out_degrees(self):
        g = from_edges([0, 0, 2], [1, 2, 0], num_vertices=3)
        assert g.out_degrees().tolist() == [2, 0, 1]

    def test_in_degrees(self):
        g = from_edges([0, 0, 2], [1, 2, 0], num_vertices=3)
        assert g.in_degrees().tolist() == [1, 1, 1]

    def test_weights_preserved(self):
        g = from_edges([0, 1], [1, 0], weights=[2.0, 3.0])
        assert edge_weights(g, 0).tolist() == [2.0]
        assert edge_weights(g, 1).tolist() == [3.0]

    def test_unweighted_edge_weights_are_ones(self):
        g = from_edges([0, 0], [1, 2])
        assert edge_weights(g, 0).tolist() == [1.0, 1.0]

    def test_dedup(self):
        g = from_edges([0, 0, 0], [1, 1, 2], dedup=True)
        assert g.num_edges == 2

    def test_dedup_keeps_weights_consistent(self):
        g = from_edges([0, 0], [1, 1], weights=[5.0, 7.0], dedup=True)
        assert g.num_edges == 1
        assert edge_weights(g, 0)[0] in (5.0, 7.0)

    def test_negative_vertex_rejected(self):
        with pytest.raises(ValueError):
            from_edges([-1], [0])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            from_edges([0], [5], num_vertices=3)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            from_edges([0, 1], [1])

    def test_edge_array_roundtrip(self):
        g = from_edges([2, 0, 1], [0, 1, 2])
        g2 = from_edges(scalar_oracle.edge_sources(g), g.indices, num_vertices=3)
        assert np.array_equal(g.indptr, g2.indptr)
        assert np.array_equal(g.indices, g2.indices)


class TestGraphValidation:
    def test_indptr_must_start_at_zero(self):
        with pytest.raises(ValueError):
            Graph(indptr=np.array([1, 2]), indices=np.array([0, 0]))

    def test_indptr_monotone(self):
        with pytest.raises(ValueError):
            Graph(indptr=np.array([0, 2, 1]), indices=np.array([0, 0]))

    def test_indptr_tail_matches_indices(self):
        with pytest.raises(ValueError):
            Graph(indptr=np.array([0, 3]), indices=np.array([0]))

    def test_destination_in_range(self):
        with pytest.raises(ValueError):
            Graph(indptr=np.array([0, 1]), indices=np.array([5]))

    def test_weights_shape_checked(self):
        with pytest.raises(ValueError):
            Graph(
                indptr=np.array([0, 1]),
                indices=np.array([0]),
                weights=np.array([1.0, 2.0]),
            )


class TestDerivedGraphs:
    def test_undirected_symmetry(self):
        g = from_edges([0, 1], [1, 2], num_vertices=3)
        u = g.undirected()
        for src, dst in scalar_oracle.edge_list(u):
            assert src in u.neighbors(dst)

    def test_undirected_merges_duplicates(self):
        g = from_edges([0, 1], [1, 0], num_vertices=2)
        u = g.undirected()
        assert u.num_edges == 2  # one edge each direction

    def test_undirected_drops_self_loops(self):
        g = from_edges([0, 0], [0, 1], num_vertices=2)
        u = g.undirected()
        assert all(s != d for s, d in scalar_oracle.edge_list(u))

    def test_undirected_accumulates_weights(self):
        g = from_edges([0, 1], [1, 0], weights=[2.0, 3.0])
        u = g.undirected()
        # Both directions merge each side: 0->1 gets 2+3 = 5.
        assert edge_weights(u, 0)[0] == 5.0
        assert edge_weights(u, 1)[0] == 5.0


class TestEmptyAndMisc:
    def test_empty_graph(self):
        g = empty_graph(5)
        assert g.num_vertices == 5
        assert g.num_edges == 0
        assert list(g.neighbors(3)) == []
