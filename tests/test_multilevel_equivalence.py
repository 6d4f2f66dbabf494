"""The batched coarsening and refinement kernels against the loops they replaced.

``tests/multilevel_oracle.py`` keeps the original matching, contraction
and parallel-edge merge verbatim, ``tests/refine_oracle.py`` the original
refinement.  The production kernels must be bit-equal to them on any
input: float weights (sums depend on accumulation order), small integer
weights (exact ties everywhere), integer weights too heavy for the
``int32`` levels, self-loops and duplicate edges, isolated vertices, and
stars, where matching stalls because the hub is everyone's heaviest
neighbour.  The levels store ``int32`` ids and, where they fit, ``int32``
weights; the oracles hold ``float64``, so weights compare as doubles.
"""

from __future__ import annotations

import contextlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import generators
from repro.partitioning import multilevel
from repro.partitioning.multilevel import MultilevelPartitioner, _WGraph
from tests.scalar_oracle import from_edges
from tests.multilevel_oracle import (
    contract_reference,
    heavy_edge_matching_reference,
    undirected_reference,
)
from tests.refine_oracle import refine_reference


@contextlib.contextmanager
def batch_edges(budget):
    """Run with another batch budget: a tiny one makes every vertex a
    batch of its own, a huge one leaves only the eighth-of-the-graph cap."""
    original, multilevel._BATCH_EDGES = multilevel._BATCH_EDGES, budget
    try:
        yield
    finally:
        multilevel._BATCH_EDGES = original


@st.composite
def graphs(draw):
    """A directed multigraph with self-loops, isolated vertices and an
    optional star hub, unweighted or with integer / float / heavy integer
    weights (``graph.name`` says which)."""
    num_vertices = draw(st.integers(1, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**20)))
    # Only the first `used` vertices get edges; the rest stay isolated.
    used = draw(st.integers(1, num_vertices))
    num_edges = int(draw(st.floats(0.0, 6.0)) * used)
    src = rng.integers(0, used, size=num_edges)
    dst = rng.integers(0, used, size=num_edges)
    if draw(st.booleans()):  # a star: vertex 0 adjacent to everyone
        spokes = np.arange(1, num_vertices)
        src = np.concatenate([src, np.zeros_like(spokes), spokes[: len(spokes) // 2]])
        dst = np.concatenate([dst, spokes, np.zeros(len(spokes) // 2, dtype=np.int64)])
    kind = draw(st.sampled_from(["none", "integer", "float", "heavy"]))
    if kind == "integer":  # exact ties between neighbours and parts
        weights = rng.integers(1, 4, size=len(src)).astype(np.float64)
    elif kind == "float":  # sums depend on accumulation order
        weights = rng.random(len(src)) * 3 + 0.1
    elif kind == "heavy":  # one edge both ways outweighs int32: float64 levels
        weights = (rng.integers(0, 4, size=len(src)) + 2**30).astype(np.float64)
    else:
        weights = None
    return from_edges(src, dst, num_vertices=num_vertices, weights=weights, name=kind)


def raw_wgraph(graph):
    """The graph's own CSR (self-loops, duplicates, asymmetry kept) as a
    weighted graph: matching and contraction must agree on it too."""
    weights = graph.weights if graph.weights is not None else np.ones(graph.num_edges)
    return _WGraph(
        indptr=graph.indptr,
        indices=graph.indices,
        ewgts=weights,
        vwgts=np.diff(graph.indptr).astype(np.float64) + 1.0,
    )


def assert_same_wgraph(observed, expected):
    indptr, indices, ewgts, vwgts = expected
    assert np.array_equal(observed.indptr, indptr)
    assert np.array_equal(observed.indices, indices)
    assert (
        np.asarray(observed.ewgts, dtype=np.float64).tobytes()
        == np.asarray(ewgts, dtype=np.float64).tobytes()
    )
    assert observed.vwgts.tobytes() == np.asarray(vwgts, dtype=np.float64).tobytes()


def level_weight_dtype(graph):
    """The documented level weight dtype: ``int32`` for integer weights
    whose total fits in it (no edges, none at all), else ``float64``."""
    if graph.name in ("none", "integer") or not graph.undirected().num_edges:
        return np.int32
    return np.float64


def assert_level_dtypes(wg, weight_dtype):
    assert (wg.indptr.dtype, wg.indices.dtype) == (np.int64, np.int32)
    assert (wg.ewgts.dtype, wg.vwgts.dtype) == (weight_dtype, np.float64)


@settings(max_examples=60, deadline=None)
@given(graph=graphs(), budget=st.sampled_from([1, 16, 1 << 20]), seed=st.integers(0, 2**20))
def test_undirected_matching_and_contraction(graph, budget, seed):
    und = graph.undirected()
    ref = undirected_reference(graph)
    assert np.array_equal(und.indptr, ref.indptr)
    assert np.array_equal(und.indices, ref.indices)
    assert und.weights.tobytes() == ref.weights.tobytes()

    symmetric = MultilevelPartitioner()._to_wgraph(graph, None)
    weight_dtype = level_weight_dtype(graph)
    assert_level_dtypes(symmetric, weight_dtype)
    for wg in (symmetric, raw_wgraph(graph)):
        with batch_edges(budget):
            cmap, num_coarse = multilevel._heavy_edge_matching(wg, np.random.default_rng(seed))
        ref_cmap, ref_num = heavy_edge_matching_reference(wg, np.random.default_rng(seed))
        assert num_coarse == ref_num
        assert np.array_equal(cmap, ref_cmap)
        coarse = multilevel._contract(wg, cmap, num_coarse)
        assert_same_wgraph(coarse, contract_reference(wg, cmap, num_coarse))
        if wg is symmetric:  # a coarse level keeps its fine level's width
            assert_level_dtypes(coarse, weight_dtype)


@settings(max_examples=40, deadline=None)
@given(
    graph=graphs(),
    num_parts=st.integers(2, 7),
    slack=st.sampled_from([1.0, 1.05, 1.5]),
    skew=st.sampled_from([0.0, 0.8]),
    budget=st.sampled_from([1, 64, 1 << 20]),
    seed=st.integers(0, 2**20),
)
def test_refine(graph, num_parts, slack, skew, budget, seed):
    wg = MultilevelPartitioner._to_wgraph(graph, None)
    rng = np.random.default_rng(seed)
    start = rng.integers(0, num_parts, size=graph.num_vertices)
    start[rng.random(graph.num_vertices) < skew] = 0  # overloaded part 0
    max_load = slack * wg.vwgts.sum() / num_parts
    with batch_edges(budget):
        observed = multilevel._refine(wg, start, num_parts, max_load, 4)
    assert np.array_equal(observed, refine_reference(wg, start, num_parts, max_load, 4))


def test_a_whole_coarsening_hierarchy():
    """Every level of a real hierarchy, from degree 10 to degree ~100."""
    graph = generators.community_graph(3000, num_communities=6, avg_degree=10, mixing=0.2, seed=2)
    current = MultilevelPartitioner()._to_wgraph(graph, None)
    seed = 0
    while current.num_vertices > 60:
        seed += 1
        cmap, num_coarse = multilevel._heavy_edge_matching(current, np.random.default_rng(seed))
        ref_cmap, ref_num = heavy_edge_matching_reference(current, np.random.default_rng(seed))
        assert num_coarse == ref_num and np.array_equal(cmap, ref_cmap)
        coarse = multilevel._contract(current, cmap, num_coarse)
        assert_same_wgraph(coarse, contract_reference(current, cmap, num_coarse))
        assert_level_dtypes(coarse, np.int32)
        current = coarse
    assert np.diff(current.indptr).mean() > 20
