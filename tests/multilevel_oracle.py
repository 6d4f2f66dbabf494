"""Reference oracles for multilevel coarsening: the original loops.

Relocated verbatim from ``repro.partitioning.multilevel`` (matching,
contraction) and ``repro.graph.graph.Graph.undirected`` (the
parallel-edge merge) when the production kernels were batched: matching
proposes a batch of vertices' heaviest free neighbours at once,
contraction and the merge sum parallel edges with one ``np.bincount``
instead of a stable sort and ``np.add.at``.  The production routines
must return array-equal results on every input, which
``tests/test_multilevel_equivalence.py`` asserts on generated graphs —
the way ``tests/refine_oracle.py`` holds ``_refine`` to its loop.  Never
use them outside tests: matching makes several NumPy calls per vertex.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from tests.scalar_oracle import from_edges


def neighbors(wg, v: int) -> np.ndarray:
    """Neighbour ids of *v* in the internal weighted graph ``wg``."""
    return wg.indices[wg.indptr[v] : wg.indptr[v + 1]]


def neighbor_weights(wg, v: int) -> np.ndarray:
    """Edge weights parallel to ``neighbors(wg, v)``."""
    return wg.ewgts[wg.indptr[v] : wg.indptr[v + 1]]


def heavy_edge_matching_reference(wg, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Greedy heavy-edge matching.

    Returns ``(cmap, num_coarse)`` where ``cmap[v]`` is the coarse vertex
    id of ``v``; matched pairs share a coarse id.
    """
    n = wg.num_vertices
    match = np.full(n, -1, dtype=np.int64)
    order = rng.permutation(n)
    for v in order:
        if match[v] >= 0:
            continue
        neigh = neighbors(wg, v)
        wts = neighbor_weights(wg, v)
        free = match[neigh] < 0
        free &= neigh != v
        if not free.any():
            match[v] = v
            continue
        cand = neigh[free]
        cand_w = wts[free]
        best = int(cand[np.argmax(cand_w)])
        match[v] = best
        match[best] = v
    cmap = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for v in range(n):
        if cmap[v] >= 0:
            continue
        cmap[v] = next_id
        partner = match[v]
        if partner != v and cmap[partner] < 0:
            cmap[partner] = next_id
        next_id += 1
    return cmap, next_id


def contract_reference(wg, cmap: np.ndarray, num_coarse: int):
    """Contract matched pairs into coarse vertices, merging parallel edges.

    Returns ``(indptr, indices, ewgts, vwgts)`` of the coarse graph.
    """
    src = np.repeat(np.arange(wg.num_vertices, dtype=np.int64), np.diff(wg.indptr))
    csrc = cmap[src]
    cdst = cmap[wg.indices]
    keep = csrc != cdst
    csrc, cdst, cw = csrc[keep], cdst[keep], wg.ewgts[keep]
    key = csrc * num_coarse + cdst
    order = np.argsort(key, kind="stable")
    key, csrc, cdst, cw = key[order], csrc[order], cdst[order], cw[order]
    if len(key):
        uniq = np.empty(len(key), dtype=bool)
        uniq[0] = True
        uniq[1:] = key[1:] != key[:-1]
        group = np.cumsum(uniq) - 1
        merged_w = np.zeros(int(group[-1]) + 1)
        np.add.at(merged_w, group, cw)
        csrc, cdst, cw = csrc[uniq], cdst[uniq], merged_w
    counts = np.bincount(csrc, minlength=num_coarse)
    indptr = np.zeros(num_coarse + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    vwgts = np.zeros(num_coarse)
    np.add.at(vwgts, cmap, wg.vwgts)
    return indptr, cdst, cw, vwgts


def undirected_reference(graph: Graph) -> Graph:
    """Return the symmetrised graph (u->v and v->u for every edge).

    Duplicate edges are merged; when the graph is weighted, merged
    parallel edges accumulate their weights.  Self-loops are dropped,
    matching the behaviour partitioners expect.
    """
    sources = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), graph.out_degrees())
    src = np.concatenate([sources, graph.indices])
    dst = np.concatenate([graph.indices, sources])
    if graph.weights is not None:
        w = np.concatenate([graph.weights, graph.weights])
    else:
        w = np.ones(len(src), dtype=np.float64)
    keep = src != dst
    src, dst, w = src[keep], dst[keep], w[keep]
    # Merge duplicates by sorting on the (src, dst) key.
    key = src * graph.num_vertices + dst
    order = np.argsort(key, kind="stable")
    key, src, dst, w = key[order], src[order], dst[order], w[order]
    if len(key):
        unique_mask = np.empty(len(key), dtype=bool)
        unique_mask[0] = True
        unique_mask[1:] = key[1:] != key[:-1]
        group_ids = np.cumsum(unique_mask) - 1
        merged_w = np.zeros(int(group_ids[-1]) + 1, dtype=np.float64)
        np.add.at(merged_w, group_ids, w)
        src, dst, w = src[unique_mask], dst[unique_mask], merged_w
    return from_edges(
        src, dst, num_vertices=graph.num_vertices, weights=w, name=graph.name
    )
