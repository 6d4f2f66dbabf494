"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.partitioning import (
    FennelPartitioner,
    HashPartitioner,
    MultilevelPartitioner,
    Partitioning,
    edge_cut_fraction,
    random_cut_expectation,
)
from repro.partitioning import multilevel
from repro.partitioning.base import BALANCE_SLACK
from repro.partitioning.micro import build_quotient_graph
from repro.cloud.eviction import EmpiricalEvictionModel
from repro.cloud.trace import PriceTrace
from repro.core.ckpt_policy import daly_interval
from tests.scalar_oracle import from_edges
from tests import scalar_oracle

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def edge_lists(draw, max_vertices=40, max_edges=150):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    dst = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    return n, src, dst


@st.composite
def price_traces(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    deltas = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    times = np.concatenate([[0.0], np.cumsum(deltas)])[:n]
    prices = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    return PriceTrace(times=times, prices=np.asarray(prices))


# ----------------------------------------------------------------------
# Graph invariants
# ----------------------------------------------------------------------
class TestGraphProperties:
    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_csr_invariants(self, data):
        n, src, dst = data
        g = from_edges(src, dst, num_vertices=n)
        assert g.indptr[0] == 0
        assert g.indptr[-1] == g.num_edges == len(src)
        assert np.all(np.diff(g.indptr) >= 0)
        assert g.out_degrees().sum() == g.num_edges
        assert g.in_degrees().sum() == g.num_edges

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_edge_multiset_preserved(self, data):
        n, src, dst = data
        g = from_edges(src, dst, num_vertices=n)
        assert sorted(zip(src, dst)) == sorted(scalar_oracle.edge_list(g))

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_undirected_is_symmetric_simple(self, data):
        n, src, dst = data
        u = from_edges(src, dst, num_vertices=n).undirected()
        edges = set(scalar_oracle.edge_list(u))
        assert all((d, s) in edges for s, d in edges)
        assert all(s != d for s, d in edges)
        assert len(edges) == u.num_edges  # no duplicates


# ----------------------------------------------------------------------
# Partitioning invariants
# ----------------------------------------------------------------------
class TestPartitioningProperties:
    @given(edge_lists(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_vertex_assigned_once(self, data, k):
        n, src, dst = data
        g = from_edges(src, dst, num_vertices=n)
        for partitioner in (HashPartitioner(), MultilevelPartitioner()):
            # Coarsen down to 20 vertices, so small graphs coarsen too.
            with mock.patch.object(multilevel, "COARSEN_UNTIL", 20):
                p = partitioner.partition(g, k, seed=1)
            assert p.num_vertices == n
            assert (p.assignment >= 0).all()
            assert (p.assignment < k).all()
            assert np.bincount(p.assignment, minlength=k).sum() == n

    @given(edge_lists(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_cut_in_unit_interval(self, data, k):
        n, src, dst = data
        g = from_edges(src, dst, num_vertices=n)
        p = FennelPartitioner().partition(g, k, seed=1)
        assert 0.0 <= edge_cut_fraction(g, p) <= 1.0

    @given(edge_lists(), st.integers(min_value=1, max_value=6), st.integers(0, 3))
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_fennel_parts_stay_within_the_cap(self, data, k, seed):
        # The cap is BALANCE_SLACK times the average part; where fewer
        # than n vertices fit under it (k * floor(cap) < n, small graphs)
        # the overflow spreads evenly, so no part exceeds ceil(n / k).
        n, src, dst = data
        g = from_edges(src, dst, num_vertices=n)
        assignment = FennelPartitioner().partition(g, k, seed=seed).assignment
        sizes = np.bincount(assignment, minlength=k)
        cap = max(1.0, BALANCE_SLACK * n / k)
        assert sizes.max() <= max(cap, -(-n // k))

    @given(edge_lists(), st.integers(min_value=1, max_value=5))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_quotient_edge_weight_equals_cut(self, data, k):
        n, src, dst = data
        g = from_edges(src, dst, num_vertices=n)
        p = HashPartitioner().partition(g, k)
        quotient, weights = build_quotient_graph(g, p)
        cut_edges = edge_cut_fraction(g, p) * g.num_edges
        total = quotient.weights.sum() if quotient.weights is not None else 0.0
        assert total == pytest.approx(cut_edges)
        assert len(weights) == k

    @given(st.integers(min_value=1, max_value=64))
    def test_random_cut_expectation_bounds(self, k):
        value = random_cut_expectation(k)
        assert 0.0 <= value < 1.0

    @given(
        st.lists(st.integers(0, 4), min_size=1, max_size=50),
        st.permutations(list(range(5))),
    )
    @settings(max_examples=30, deadline=None)
    def test_relabel_preserves_grouping(self, assignment, mapping):
        p = Partitioning(assignment=np.asarray(assignment), num_parts=5)
        relabeled = p.relabel(np.asarray(mapping), num_parts=5)
        # Vertices sharing a part before still share one after.
        for part in range(5):
            members = scalar_oracle.part_vertices(p, part)
            if len(members):
                assert len(set(relabeled.assignment[members].tolist())) == 1


# ----------------------------------------------------------------------
# Trace and market invariants
# ----------------------------------------------------------------------
class TestTraceProperties:
    @given(price_traces())
    @settings(max_examples=60, deadline=None)
    def test_integral_additive(self, trace):
        t0, t2 = trace.start, trace.end
        t1 = (t0 + t2) / 2
        if t2 > t0:
            whole = trace.integrate(t0, t2)
            parts = trace.integrate(t0, t1) + trace.integrate(t1, t2)
            assert whole == pytest.approx(parts, rel=1e-9, abs=1e-12)

    @given(price_traces())
    @settings(max_examples=60, deadline=None)
    def test_integral_nonnegative_and_bounded(self, trace):
        if trace.end > trace.start:
            value = trace.integrate(trace.start, trace.end)
            hours = (trace.end - trace.start) / 3600
            assert 0.0 <= value <= trace.prices.max() * hours + 1e-9

    @given(price_traces(), st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_crossing_is_first(self, trace, threshold):
        crossing = trace.next_crossing_above(trace.start, threshold)
        if crossing is None:
            assert (trace.prices <= threshold).all()
        else:
            assert trace.price_at(crossing) > threshold
            # No segment strictly before the crossing exceeds it.
            before = trace.times < crossing
            assert (trace.prices[before] <= threshold).all()

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
            min_size=1,
            max_size=60,
        )
    )
    def test_ecdf_monotone(self, uptimes):
        model = EmpiricalEvictionModel(np.asarray(uptimes))
        checkpoints = [0.0, 1.0, 10.0, 100.0, 1e4, 1e6]
        values = [model.cdf(t) for t in checkpoints]
        assert values == sorted(values)
        assert 0.0 <= min(values) and max(values) <= 1.0


class TestPolicyProperties:
    @given(
        st.floats(min_value=0.1, max_value=1e3),
        st.floats(min_value=1.0, max_value=1e6),
    )
    def test_daly_interval_bounds(self, save, mttf):
        interval = daly_interval(save, mttf)
        assert interval >= save
        # Never absurdly larger than the failure scale.
        assert interval <= max(save, 2 * mttf) + 2 * (save * mttf) ** 0.5
