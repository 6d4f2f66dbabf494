"""Tests for micro-partitioning and online clustering (paper §6)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.partitioning import (
    FennelPartitioner,
    HashPartitioner,
    MicroPartitioner,
    MultilevelPartitioner,
    build_quotient_graph,
    edge_balance,
    edge_cut_fraction,
    micro_partition_count,
)
from tests import scalar_oracle


class TestMicroPartitionCount:
    def test_lcm_of_counts(self):
        assert micro_partition_count([4, 8, 16]) == 16
        assert micro_partition_count([3, 5]) == 15

    def test_minimum_rounds_up(self):
        assert micro_partition_count([4, 8, 16], minimum=64) == 64
        assert micro_partition_count([4, 8, 16], minimum=50) == 64
        assert micro_partition_count([6], minimum=20) == 24

    def test_divisibility(self):
        n = micro_partition_count([4, 8, 16], minimum=64)
        for k in (4, 8, 16):
            assert n % k == 0

    def test_invalid(self):
        with pytest.raises(ValueError):
            micro_partition_count([])
        with pytest.raises(ValueError):
            micro_partition_count([0, 4])


class TestQuotientGraph:
    def test_quotient_shape(self, community):
        micro = MultilevelPartitioner().partition(community, 16, seed=1)
        quotient, weights = build_quotient_graph(community, micro)
        assert quotient.num_vertices == 16
        assert len(weights) == 16
        assert (weights >= 1).all()

    def test_quotient_weights_count_cross_edges(self, community):
        micro = HashPartitioner().partition(community, 8)
        quotient, _ = build_quotient_graph(community, micro)
        # Total quotient edge weight == number of crossing directed edges.
        crossing = edge_cut_fraction(community, micro) * community.num_edges
        assert quotient.weights.sum() == pytest.approx(crossing)

    def test_no_self_edges(self, community):
        micro = HashPartitioner().partition(community, 8)
        quotient, _ = build_quotient_graph(community, micro)
        assert all(s != d for s, d in quotient.iter_edges())

    def test_mismatched_graph_rejected(self, community, social_graph):
        micro = HashPartitioner().partition(social_graph, 8)
        with pytest.raises(ValueError):
            build_quotient_graph(community, micro)


class TestMicroPartitioner:
    @pytest.fixture(scope="class")
    def artefact(self, community):
        return MicroPartitioner(num_micro_parts=64).build(community, seed=7)

    def test_build_produces_micro_parts(self, artefact):
        assert artefact.num_micro_parts == 64
        assert artefact.quotient.num_vertices == 64

    def test_cluster_covers_all_vertices(self, artefact, community):
        clustering = artefact.cluster(8, seed=1)
        assert clustering.num_vertices == community.num_vertices
        assert clustering.num_parts == 8

    def test_cluster_respects_micro_boundaries(self, artefact):
        clustering = artefact.cluster(4, seed=1)
        # All vertices of one micro-partition map to the same macro part.
        for mp in range(artefact.num_micro_parts):
            members = artefact.micro.part_vertices(mp)
            if len(members):
                assert len(set(clustering.assignment[members].tolist())) == 1

    def test_quality_close_to_direct(self, community):
        base = MultilevelPartitioner()
        artefact = MicroPartitioner(base=base, num_micro_parts=64).build(
            community, seed=3
        )
        for k in (2, 4, 8):
            direct = base.partition(community, k, seed=3)
            clustered = artefact.cluster(k, seed=3)
            degradation = edge_cut_fraction(community, clustered) - edge_cut_fraction(
                community, direct
            )
            # Paper reports 1.7-5% absolute degradation; allow headroom.
            assert degradation < 0.15

    def test_clustering_is_balanced(self, artefact, community):
        clustering = artefact.cluster(8, seed=2)
        assert edge_balance(community, clustering) < 1.5

    def test_cluster_bounds(self, artefact):
        with pytest.raises(ValueError):
            artefact.cluster(0)
        with pytest.raises(ValueError):
            artefact.cluster(65)

    def test_cluster_to_micro_count_is_identity_quality(self, artefact, community):
        clustering = artefact.cluster(64, seed=1)
        base_cut = edge_cut_fraction(community, artefact.micro)
        clustered_cut = edge_cut_fraction(community, clustering)
        assert clustered_cut <= base_cut + 1e-9

    def test_fennel_base(self, community):
        artefact = MicroPartitioner(
            base=FennelPartitioner(), num_micro_parts=32
        ).build(community, seed=2)
        clustering = artefact.cluster(4, seed=2)
        assert clustering.num_parts == 4

    def test_hash_base(self, community):
        artefact = MicroPartitioner(
            base=HashPartitioner(), num_micro_parts=32
        ).build(community, seed=2)
        clustering = artefact.cluster(8, seed=2)
        # Hash micro-partitions carry no structure; the cut should sit
        # near the random expectation.
        cut = edge_cut_fraction(community, clustering)
        assert cut > 0.5

    def test_worker_micro_parts(self, artefact):
        clustering = artefact.cluster(4, seed=1)
        owned = artefact.worker_micro_parts(clustering)
        assert len(owned) == 4
        all_parts = sorted(int(p) for parts in owned for p in parts)
        assert all_parts == list(range(64))

    def test_worker_micro_parts_skips_empty_micro_parts(self):
        from repro.partitioning.base import Partitioning
        from repro.partitioning.micro import MicroPartitioning

        # Six vertices over micro-partitions {0, 1, 3}; part 2 is empty.
        micro = Partitioning(assignment=np.array([0, 0, 1, 1, 3, 3]), num_parts=4)
        quotient = scalar_oracle.ring_of_cliques(2, 2)  # any 4-vertex graph
        artefact = MicroPartitioning(
            micro=micro,
            quotient=quotient,
            micro_vertex_weights=np.ones(4),
        )
        clustering = Partitioning(assignment=np.array([0, 0, 1, 1, 0, 0]), num_parts=2)
        owned = artefact.worker_micro_parts(clustering)
        assert [part.tolist() for part in owned] == [[0, 3], [1]]

    def test_invalid_micro_count(self):
        with pytest.raises(ValueError):
            MicroPartitioner(num_micro_parts=0)

    def test_deterministic(self, community):
        a = MicroPartitioner(num_micro_parts=32).build(community, seed=5)
        b = MicroPartitioner(num_micro_parts=32).build(community, seed=5)
        assert np.array_equal(a.micro.assignment, b.micro.assignment)
