"""Frozen multilevel partitioner outputs in the high-degree coarse regime.

Captured before the coarsening and refinement kernels were batched, so
that work can only change how long partitioning takes, never what it
computes.  ``tests/test_engine_goldens.py`` pins a 2 000-vertex graph
that coarsens about three levels; this one coarsens seven, with coarse
vertices of degree 100-190, where matching and contraction merge the
most parallel edges and refinement sees the most exact gain ties.

Re-freeze only with an explanation of why a partition moved.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.graph import generators
from repro.partitioning import multilevel
from repro.partitioning.micro import MicroPartitioner
from repro.partitioning.multilevel import MultilevelPartitioner
from repro.utils.rng import derive_rng


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(array.dtype.str.encode())
        h.update(array.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def graph():
    g = generators.community_graph(
        20000, num_communities=32, avg_degree=16, mixing=0.1, seed=5
    )
    assert (g.num_vertices, g.num_edges) == (20000, 316324)
    return g


# One sha256 per coarsening level: the matching's (cmap, num_coarse)
# and the contracted graph's indptr / indices / edge / vertex weights.
# Frozen when levels held int64 ids and float64 weights; the levels now
# store int32 (METIS width), hashed widened back: the same values.
LEVELS = [
    (10423, "c0b9d80100a64641070be68f10e6379abe4a44af9134ec4977a5d2865a45b09b"),
    (5421, "f3e2d9047f329485a4042658f6da8395eece3f8bdca320a1c819ac7fafbd1546"),
    (2791, "ff67e9425bf2bc5d7e0905bfcbd7f946ec9d92ea2a386503e8b4a59b50c3e872"),
    (1422, "1b241fa38971b3ba603b720319d2f70ff6d0245973cd7e7acc35d7b69990fc2b"),
    (717, "47da9e5df0d3a176b120820755f0e119765b47e000b79e51d0b754da8b5e8a14"),
    (361, "c28f022a7b60330fd7c46261c8c3a35786de88ddc4a6a3fcc7bbe17e5696b6a5"),
    (181, "ff3feaa08a6d064b72cdbd9b732ca32406c3c21ace586f3fc2321dcf7d335ba1"),
]
UNDIRECTED = "95633a6c560194e6792cc8cc278efe2cc013904d9918b5c37a127fcdb2e43c08"
EIGHT_WAY = "184e9e820bf4bbaa630126470c07c5e77df6e875701d32757216ab8436fefc7f"
MICRO_64 = "c1f0217e1916679523a0c847467ee3ab7c273570e92e71fca3aaadd28d28da22"


def test_undirected(graph):
    und = graph.undirected()
    assert digest(und.indptr, und.indices, und.weights) == UNDIRECTED


def test_coarsening_levels(graph):
    current = MultilevelPartitioner()._to_wgraph(graph, None)
    rng = derive_rng(5, "levels")
    observed = []
    while current.num_vertices > 200:
        cmap, num_coarse = multilevel._heavy_edge_matching(current, rng)
        current = multilevel._contract(current, cmap, num_coarse)
        assert (current.indices.dtype, current.ewgts.dtype) == (np.int32, np.int32)
        observed.append(
            (
                num_coarse,
                digest(
                    cmap,
                    current.indptr,
                    current.indices.astype(np.int64),
                    current.ewgts.astype(np.float64),
                    current.vwgts,
                ),
            )
        )
    # The regime this file exists for: deep, with dense coarse graphs.
    assert np.diff(current.indptr).mean() > 100
    assert observed == LEVELS


def test_multilevel_eight_way(graph):
    assignment = MultilevelPartitioner().partition(graph, 8, seed=5).assignment
    assert digest(assignment) == EIGHT_WAY


def test_micro_build(graph):
    artefact = MicroPartitioner(num_micro_parts=64).build(graph, seed=5)
    quotient = artefact.quotient
    assert (
        digest(
            artefact.micro.assignment,
            quotient.indptr,
            quotient.indices,
            quotient.weights,
            artefact.micro_vertex_weights,
        )
        == MICRO_64
    )
