"""The production ``_refine`` against the loop it replaced.

``tests/refine_oracle.py`` keeps the original per-vertex refinement
verbatim; the fast one (bincount accumulation, settled-vertex pre-pass)
must return an array-equal assignment from any start — including starts
that are badly unbalanced (the overloaded-part rule), full of exact gain
ties (small integer weights) or already converged.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import generators
from repro.partitioning import multilevel
from repro.partitioning.base import BALANCE_SLACK
from repro.partitioning.multilevel import MultilevelPartitioner, _refine
from tests.scalar_oracle import from_edges
from tests import scalar_oracle
from tests.refine_oracle import refine_reference


@contextlib.contextmanager
def sweep_bytes(nbytes):
    """Run with another sweep budget: a tiny one forces a pass to sweep
    its boundary in many blocks."""
    original, multilevel._SWEEP_BYTES = multilevel._SWEEP_BYTES, nbytes
    try:
        yield
    finally:
        multilevel._SWEEP_BYTES = original


def max_load_of(wg, num_parts, slack=BALANCE_SLACK):
    """The heaviest part ``partition`` allows at balance slack *slack*."""
    return slack * wg.vwgts.sum() / num_parts


def weighted_graph(num_vertices, num_edges, integer_weights, rng):
    src = rng.integers(0, num_vertices, size=num_edges)
    dst = rng.integers(0, num_vertices, size=num_edges)
    if integer_weights:  # exact ties between parts are common
        weights = rng.integers(1, 4, size=num_edges).astype(np.float64)
    else:  # sums depend on accumulation order
        weights = rng.random(num_edges) * 3 + 0.1
    return from_edges(src, dst, num_vertices=num_vertices, weights=weights)


@settings(max_examples=80, deadline=None)
@given(
    num_vertices=st.integers(8, 120),
    density=st.floats(1.0, 6.0),
    num_parts=st.integers(2, 9),
    slack=st.sampled_from([1.0, 1.03, 1.1, 1.5]),
    skew=st.sampled_from([0.0, 0.5, 0.9]),
    integer_weights=st.booleans(),
    balance_by=st.sampled_from(["edges", "vertices"]),
    passes=st.integers(1, 6),
    rows_per_sweep=st.sampled_from([1, 5, 10**6]),
    seed=st.integers(0, 2**20),
)
def test_array_equal_on_generated_weighted_graphs(
    num_vertices, density, num_parts, slack, skew, integer_weights,
    balance_by, passes, rows_per_sweep, seed,
):  # fmt: skip
    rng = np.random.default_rng(seed)
    graph = weighted_graph(num_vertices, int(density * num_vertices), integer_weights, rng)
    # Vertex-count balance is unit vertex weights; edge balance the default.
    vertex_weights = np.ones(num_vertices) if balance_by == "vertices" else None
    wg = MultilevelPartitioner._to_wgraph(graph, vertex_weights)
    # A start that piles `skew` of the vertices onto part 0: overloaded
    # parts must shed vertices even at a loss.
    start = rng.integers(0, num_parts, size=num_vertices)
    start[rng.random(num_vertices) < skew] = 0
    max_load = max_load_of(wg, num_parts, slack)

    expected = refine_reference(wg, start, num_parts, max_load, passes)
    again = refine_reference(wg, expected, num_parts, max_load, passes)
    with sweep_bytes(8 * num_parts * rows_per_sweep):
        observed = _refine(wg, start, num_parts, max_load, passes)
        assert np.array_equal(observed, expected)
        # Refining the result again is also the same walk (mostly settled).
        assert np.array_equal(_refine(wg, observed, num_parts, max_load, passes), again)


@pytest.mark.parametrize("graph_seed", [3, 11])
def test_array_equal_on_a_community_graph(graph_seed):
    graph = generators.community_graph(
        1500, num_communities=10, avg_degree=12, mixing=0.15, seed=graph_seed
    )
    wg = MultilevelPartitioner._to_wgraph(graph, None)
    rng = np.random.default_rng(graph_seed)
    for num_parts in (4, 16):
        start = rng.integers(0, num_parts, size=graph.num_vertices)
        max_load = max_load_of(wg, num_parts)
        expected = refine_reference(wg, start, num_parts, max_load, 4)
        assert np.array_equal(_refine(wg, start, num_parts, max_load, 4), expected)
        with sweep_bytes(8 * num_parts * 100):  # a hundred rows a sweep
            assert np.array_equal(_refine(wg, start, num_parts, max_load, 4), expected)


def test_input_assignment_is_not_modified():
    graph = scalar_oracle.ring_of_cliques(6, 5)
    wg = MultilevelPartitioner._to_wgraph(graph, None)
    start = np.arange(graph.num_vertices) % 3
    before = start.copy()
    _refine(wg, start, 3, max_load_of(wg, 3), 4)
    assert np.array_equal(start, before)
