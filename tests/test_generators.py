"""Tests for synthetic graph generators and the dataset registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import generators
from repro.graph.datasets import DATASETS, get_dataset, rmat_spec
from repro.graph.stats import compute_stats, gini
from tests import scalar_oracle


class TestRmat:
    def test_size(self):
        g = generators.rmat(8, edge_factor=8, seed=1)
        assert g.num_vertices == 256
        # Dedup and self-loop removal shrink the edge count somewhat.
        assert 0.5 * 256 * 8 <= g.num_edges <= 256 * 8

    def test_deterministic(self):
        a = generators.rmat(7, seed=3)
        b = generators.rmat(7, seed=3)
        assert np.array_equal(a.indices, b.indices)

    def test_seed_changes_graph(self):
        a = generators.rmat(7, seed=3)
        b = generators.rmat(7, seed=4)
        assert not np.array_equal(a.indices, b.indices)

    def test_skewed_degrees(self):
        g = generators.rmat(10, seed=1)
        degs = g.out_degrees()
        assert gini(degs) > 0.4  # heavy-tailed

    def test_no_self_loops(self):
        g = generators.rmat(6, seed=2)
        assert all(s != d for s, d in scalar_oracle.edge_list(g))

    def test_scale_bounds(self):
        with pytest.raises(ValueError):
            generators.rmat(0)
        with pytest.raises(ValueError):
            generators.rmat(31)

    def test_bad_probabilities(self):
        with pytest.raises(ValueError):
            generators.rmat(5, a=0.9, b=0.2, c=0.2)


class TestPowerLawSocial:
    def test_size_and_degree(self):
        g = generators.power_law_social(2000, avg_degree=10, seed=1)
        assert g.num_vertices == 2000
        avg = g.num_edges / g.num_vertices
        assert 4 <= avg <= 12

    def test_more_skewed_than_random(self):
        social = generators.power_law_social(2000, avg_degree=10, seed=1)
        uniform = scalar_oracle.random_graph(2000, avg_degree=10, seed=1)
        assert gini(social.out_degrees()) > gini(uniform.out_degrees()) + 0.1

    def test_symmetric(self):
        g = generators.power_law_social(300, avg_degree=8, seed=2)
        neighbor_sets = [set(g.neighbors(v).tolist()) for v in range(g.num_vertices)]
        for src, dst in scalar_oracle.edge_list(g):
            assert src in neighbor_sets[dst]

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            generators.power_law_social(1)


class TestCommunityGraph:
    def test_low_mixing_is_clustered(self, community):
        # A graph with 5% mixing must have far fewer cross-community
        # edges than random assignment would produce.
        from repro.partitioning import MultilevelPartitioner, edge_cut_fraction

        p = MultilevelPartitioner().partition(community, 4, seed=1)
        assert edge_cut_fraction(community, p) < 0.4

    def test_mixing_bounds(self):
        with pytest.raises(ValueError):
            generators.community_graph(100, mixing=1.5)

    def test_community_count_bounds(self):
        with pytest.raises(ValueError):
            generators.community_graph(10, num_communities=100)

    def test_deterministic(self):
        a = generators.community_graph(400, seed=5)
        b = generators.community_graph(400, seed=5)
        assert np.array_equal(a.indices, b.indices)


class TestGeneratorParameters:
    """A bad parameter is refused up front, by name, not deep in NumPy."""

    @pytest.mark.parametrize("avg_degree", [-1.0, float("nan"), float("inf")])
    def test_community_avg_degree(self, avg_degree):
        with pytest.raises(ValueError, match="avg_degree"):
            generators.community_graph(100, 4, avg_degree=avg_degree)

    @pytest.mark.parametrize("avg_degree", [-1.0, float("nan"), float("inf")])
    def test_power_law_avg_degree(self, avg_degree):
        with pytest.raises(ValueError, match="avg_degree"):
            generators.power_law_social(100, avg_degree=avg_degree)

    @pytest.mark.parametrize("exponent", [1.0, 0.5, float("nan"), float("inf")])
    def test_power_law_exponent(self, exponent):
        with pytest.raises(ValueError, match="exponent"):
            generators.power_law_social(100, exponent=exponent)

    def test_zero_degree_is_edgeless(self):
        assert generators.community_graph(100, 4, avg_degree=0).num_edges == 0
        assert generators.power_law_social(100, avg_degree=0).num_edges == 0


class TestStructuredGraphs:
    def test_ring_of_cliques_edges(self):
        g = scalar_oracle.ring_of_cliques(4, 3)
        assert g.num_vertices == 12
        # 4 cliques of 3 (6 directed edges each) + 4 ring edges x2.
        assert g.num_edges == 4 * 6 + 8

    def test_single_clique(self):
        g = scalar_oracle.ring_of_cliques(1, 4)
        assert g.num_vertices == 4
        assert g.num_edges == 12

    def test_grid_graph(self):
        g = scalar_oracle.grid_graph(3, 4)
        assert g.num_vertices == 12
        # (rows*(cols-1) + (rows-1)*cols) undirected edges, doubled.
        assert g.num_edges == 2 * (3 * 3 + 2 * 4)

    def test_path_graph(self):
        g = scalar_oracle.path_graph(5)
        assert g.num_edges == 4
        assert list(g.neighbors(0)) == [1]
        assert list(g.neighbors(4)) == []

    def test_bad_args(self):
        with pytest.raises(ValueError):
            scalar_oracle.ring_of_cliques(0, 3)
        with pytest.raises(ValueError):
            scalar_oracle.grid_graph(0, 3)
        with pytest.raises(ValueError):
            scalar_oracle.path_graph(0)


class TestDatasetRegistry:
    def test_all_paper_datasets_present(self):
        for name in ("human-gene", "hollywood", "orkut", "wiki", "twitter"):
            assert name in DATASETS

    def test_paper_scale_numbers_match_table2(self):
        twitter = get_dataset("twitter")
        assert twitter.paper_vertices == 52_579_678
        assert twitter.paper_edges == 1_614_106_187
        orkut = get_dataset("orkut")
        assert orkut.paper_vertices == 3_072_626

    def test_generate_produces_named_graph(self):
        g = get_dataset("orkut").generate(seed=1)
        assert g.name == "orkut"
        assert g.num_vertices == DATASETS["orkut"].repro_vertices

    def test_rmat_spec(self):
        spec = rmat_spec(24)
        assert spec.paper_vertices == 1 << 24
        assert spec.paper_edges == 1 << 28
        g = spec.generate(seed=1)
        assert g.num_vertices == spec.repro_vertices

    def test_get_dataset_rmat_parsing(self):
        assert get_dataset("rmat-25").paper_vertices == 1 << 25

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            get_dataset("facebook")
        with pytest.raises(KeyError):
            get_dataset("rmat-xyz")

    def test_avg_degree_property(self):
        spec = get_dataset("twitter")
        # Table 2's Twitter graph averages 30.7 out-edges per vertex.
        assert spec.paper_edges / spec.paper_vertices == pytest.approx(30.7, abs=0.01)


class TestStats:
    def test_compute_stats_fields(self, social_graph):
        stats = compute_stats(social_graph)
        assert stats.num_vertices == social_graph.num_vertices
        assert stats.num_edges == social_graph.num_edges
        assert stats.max_out_degree >= stats.avg_out_degree
        assert 0 <= stats.degree_gini <= 1

    def test_gini_uniform_is_zero(self):
        assert gini(np.full(100, 7)) == pytest.approx(0.0, abs=1e-9)

    def test_gini_extreme(self):
        values = np.zeros(100)
        values[0] = 100
        assert gini(values) > 0.9

    def test_gini_empty(self):
        assert gini(np.array([])) == 0.0
