"""Multilevel k-way graph partitioner (METIS-like), from scratch.

The classic three-phase scheme of Karypis & Kumar:

1. **Coarsening** — repeatedly contract a heavy-edge matching until the
   graph is small.
2. **Initial partitioning** — recursive bisection by BFS region growing
   on the coarsest graph.
3. **Uncoarsening + refinement** — project the partition back level by
   level, running greedy boundary (FM-style) refinement at each level
   under a balance constraint.

The Hourglass paper uses METIS both as the offline micro-partition
generator and as the online clustering engine for the micro-partition
quotient graph (§6.2); this module serves both roles.  It accepts
weighted graphs (edge weights = contracted multiplicities or quotient
cross-edge counts, vertex weights = contained vertices/edges), which is
exactly what micro-partition clustering requires.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.graph import Graph
from repro.partitioning.base import Partitioner, Partitioning
from repro.utils.rng import derive_rng


@dataclass
class _WGraph:
    """Symmetric weighted graph used internally across levels."""

    indptr: np.ndarray
    indices: np.ndarray
    ewgts: np.ndarray
    vwgts: np.ndarray

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return len(self.indptr) - 1

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbour ids of *v*."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Edge weights parallel to neighbors(v)."""
        return self.ewgts[self.indptr[v] : self.indptr[v + 1]]


class MultilevelPartitioner(Partitioner):
    """METIS-style multilevel k-way partitioner.

    Args:
        balance_slack: maximum part weight as a multiple of the average
            part weight (default 1.1, i.e. 10 % imbalance tolerated, the
            usual METIS default ``ufactor``).
        balance_by: ``"vertices"`` balances vertex counts; ``"edges"``
            balances total degree (the paper's Fig 8 setting, matching
            "we set both partitioners to balance the total number of
            edges assigned to the different partitions").
        coarsen_until: stop coarsening when at most
            ``max(coarsen_until, 20 * k)`` vertices remain.
        refine_passes: greedy refinement passes per level.
        restarts: independent runs with different seeds, keeping the
            best (feasible, lowest-cut) result.  Cheap and very effective
            on small graphs; the micro-partition clusterer uses several
            restarts since its quotient graphs have only ~64 vertices.
    """

    name = "multilevel"

    def __init__(
        self,
        balance_slack: float = 1.1,
        balance_by: str = "edges",
        coarsen_until: int = 200,
        refine_passes: int = 4,
        restarts: int = 1,
    ):
        if balance_slack < 1.0:
            raise ValueError(f"balance_slack must be >= 1, got {balance_slack}")
        if balance_by not in ("vertices", "edges"):
            raise ValueError(f"balance_by must be 'vertices' or 'edges', got {balance_by!r}")
        if restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {restarts}")
        self.balance_slack = balance_slack
        self.balance_by = balance_by
        self.coarsen_until = coarsen_until
        self.refine_passes = refine_passes
        self.restarts = restarts

    # ------------------------------------------------------------------
    def partition(
        self, graph: Graph, num_parts: int, seed=None, vertex_weights=None
    ) -> Partitioning:
        """Partition *graph* (treated as undirected) into *num_parts*.

        ``vertex_weights`` overrides the balance weights (used when
        clustering micro-partition quotient graphs, where each quotient
        vertex stands for many original vertices).
        """
        self._check_args(graph, num_parts)
        wg = self._to_wgraph(graph, vertex_weights)
        if num_parts == 1:
            return Partitioning(
                assignment=np.zeros(graph.num_vertices, dtype=np.int64), num_parts=1
            )
        if num_parts >= wg.num_vertices:
            # Degenerate: one vertex per part (extra parts stay empty).
            assignment = np.arange(wg.num_vertices, dtype=np.int64)
            return Partitioning(assignment=assignment, num_parts=num_parts)

        max_load = self._max_load(wg, num_parts)
        best_assignment = None
        best_key = None
        for attempt in range(self.restarts):
            rng = derive_rng(seed, "multilevel", attempt)
            assignment = self._partition_once(wg, num_parts, rng, max_load)
            loads = np.zeros(num_parts)
            np.add.at(loads, assignment, wg.vwgts)
            overload = max(0.0, float(loads.max()) / max_load - 1.0)
            key = (overload > 1e-9, overload, _weighted_cut(wg, assignment))
            if best_key is None or key < best_key:
                best_key, best_assignment = key, assignment
        return Partitioning(assignment=best_assignment, num_parts=num_parts)

    def _partition_once(
        self,
        wg: _WGraph,
        num_parts: int,
        rng: np.random.Generator,
        max_load: float,
    ) -> np.ndarray:
        # Phase 1: coarsen.
        levels: list[tuple[_WGraph, np.ndarray]] = []  # (fine graph, fine->coarse map)
        current = wg
        target = max(self.coarsen_until, 20 * num_parts)
        while current.num_vertices > target:
            cmap, num_coarse = _heavy_edge_matching(current, rng)
            if num_coarse >= current.num_vertices * 0.95:
                break  # matching stalled (e.g. star graphs): stop coarsening
            coarse = _contract(current, cmap, num_coarse)
            levels.append((current, cmap))
            current = coarse

        # Phase 2: initial partition on the coarsest graph.
        assignment = _recursive_bisection(current, num_parts, rng)
        assignment = _refine(current, assignment, num_parts, max_load, self.refine_passes)

        # Phase 3: uncoarsen + refine.
        for fine, cmap in reversed(levels):
            assignment = assignment[cmap]
            assignment = _refine(fine, assignment, num_parts, max_load, self.refine_passes)

        return assignment

    # ------------------------------------------------------------------
    def _to_wgraph(self, graph: Graph, vertex_weights) -> _WGraph:
        und = graph.undirected()
        ewgts = und.weights if und.weights is not None else np.ones(und.num_edges)
        if vertex_weights is not None:
            vwgts = np.asarray(vertex_weights, dtype=np.float64)
            if vwgts.shape != (graph.num_vertices,):
                raise ValueError("vertex_weights must have one entry per vertex")
        elif self.balance_by == "edges":
            # Weight vertices by degree (plus one so isolated vertices count).
            vwgts = np.diff(und.indptr).astype(np.float64) + 1.0
        else:
            vwgts = np.ones(graph.num_vertices, dtype=np.float64)
        return _WGraph(
            indptr=und.indptr, indices=und.indices,
            ewgts=np.ascontiguousarray(ewgts, dtype=np.float64), vwgts=vwgts,
        )

    def _max_load(self, wg: _WGraph, num_parts: int) -> float:
        avg = wg.vwgts.sum() / num_parts
        return self.balance_slack * avg


# ----------------------------------------------------------------------
# Coarsening
# ----------------------------------------------------------------------
def _heavy_edge_matching(wg: _WGraph, rng: np.random.Generator) -> tuple[np.ndarray, int]:
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
        neigh = wg.neighbors(v)
        wts = wg.neighbor_weights(v)
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


def _contract(wg: _WGraph, cmap: np.ndarray, num_coarse: int) -> _WGraph:
    """Contract matched pairs into coarse vertices, merging parallel edges."""
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
    return _WGraph(indptr=indptr, indices=cdst, ewgts=cw, vwgts=vwgts)


# ----------------------------------------------------------------------
# Initial partitioning
# ----------------------------------------------------------------------
def _recursive_bisection(wg: _WGraph, num_parts: int, rng: np.random.Generator) -> np.ndarray:
    """k-way initial partition by recursive BFS-growing bisection."""
    assignment = np.zeros(wg.num_vertices, dtype=np.int64)
    _bisect_into(wg, np.arange(wg.num_vertices, dtype=np.int64), 0, num_parts, assignment, rng)
    return assignment


def _bisect_into(
    wg: _WGraph,
    vertices: np.ndarray,
    first_part: int,
    num_parts: int,
    assignment: np.ndarray,
    rng: np.random.Generator,
) -> None:
    if num_parts == 1 or len(vertices) == 0:
        assignment[vertices] = first_part
        return
    left_parts = num_parts // 2
    right_parts = num_parts - left_parts
    total = wg.vwgts[vertices].sum()
    target_left = total * left_parts / num_parts
    left_set = _grow_region(wg, vertices, target_left, rng)
    in_left = np.zeros(wg.num_vertices, dtype=bool)
    in_left[left_set] = True
    right_set = vertices[~in_left[vertices]]
    _bisect_into(wg, left_set, first_part, left_parts, assignment, rng)
    _bisect_into(wg, right_set, first_part + left_parts, right_parts, assignment, rng)


def _grow_region(
    wg: _WGraph, vertices: np.ndarray, target_weight: float, rng: np.random.Generator
) -> np.ndarray:
    """BFS-grow a region of ~target_weight inside the induced subgraph."""
    member = np.zeros(wg.num_vertices, dtype=bool)
    member[vertices] = True
    taken = np.zeros(wg.num_vertices, dtype=bool)
    region: list[int] = []
    weight = 0.0
    from collections import deque

    queue: deque[int] = deque()
    shuffled = vertices[rng.permutation(len(vertices))]
    seed_iter = iter(shuffled)
    while weight < target_weight:
        if not queue:
            root = None
            for cand in seed_iter:
                if not taken[cand]:
                    root = int(cand)
                    break
            if root is None:
                break
            taken[root] = True
            queue.append(root)
        v = queue.popleft()
        region.append(v)
        weight += wg.vwgts[v]
        for u in wg.neighbors(v):
            if member[u] and not taken[u]:
                taken[u] = True
                queue.append(int(u))
    return np.asarray(region, dtype=np.int64)


# ----------------------------------------------------------------------
# Refinement
# ----------------------------------------------------------------------
#: Bytes one connectivity sweep of ``_refine`` may allocate (rows x parts
#: float64); a pass over more boundary vertices sweeps them block by block.
_SWEEP_BYTES = 8 << 20


def _refine(
    wg: _WGraph,
    assignment: np.ndarray,
    num_parts: int,
    max_load: float,
    passes: int,
) -> np.ndarray:
    """Greedy boundary refinement (FM-style, without rollback).

    Each pass visits boundary vertices and moves a vertex to the
    neighbouring part with the highest positive gain, subject to the
    balance constraint.  Vertices sitting in an *overloaded* part may
    also move with zero or negative gain (to the best part with room),
    which actively restores balance after coarse-level projections.
    Stops early when a pass makes no move.

    The pass walks its boundary vertices a block at a time.  One
    vectorised sweep per block computes every vertex's connectivity to
    every part and marks the *settled* ones: strictly better connected
    to their own part than to any other, and not in an overloaded part.
    A settled vertex cannot move for as long as its neighbourhood is
    what the sweep saw — its gain is negative whatever the balance cap
    hides, and a part never *becomes* overloaded mid-pass (moves only go
    where there is room) — so the loop skips it unless a neighbour moved
    since.  The visit order and every float are those of the plain loop
    kept in ``tests/refine_oracle.py``; the result is array-equal to it.
    """
    assignment = assignment.copy()
    indptr, indices, ewgts, vwgts = wg.indptr, wg.indices, wg.ewgts, wg.vwgts
    loads = np.bincount(assignment, weights=vwgts, minlength=num_parts)
    block_rows = max(1, _SWEEP_BYTES // (8 * num_parts))
    for _ in range(passes):
        boundary = _boundary_vertices(wg, assignment)
        disturbed = np.zeros(wg.num_vertices, dtype=bool)  # a neighbour moved
        moved = 0
        for first in range(0, len(boundary), block_rows):
            block = boundary[first : first + block_rows]
            conn = _connectivity(wg, assignment, block, num_parts)
            disturbed[block] = False  # the sweep saw every move so far
            rows = np.arange(len(block))
            own_part = assignment[block]
            internal = conn[rows, own_part]
            conn[rows, own_part] = -np.inf
            settled = (conn.max(axis=1) < internal) & ~(loads > max_load)[own_part]
            conn[rows, own_part] = internal
            for i, v, is_settled in zip(rows.tolist(), block.tolist(), settled.tolist()):
                if disturbed[v]:
                    lo, hi = indptr[v], indptr[v + 1]
                    reach = np.bincount(
                        assignment[indices[lo:hi]],
                        weights=ewgts[lo:hi],
                        minlength=num_parts,
                    )
                elif is_settled:
                    continue
                else:
                    reach = conn[i]  # visited once per pass: ours to overwrite
                own = assignment[v]
                vw = vwgts[v]
                stay = reach[own]
                reach[own] = -np.inf
                # Respect the balance cap; allow moves into parts with room.
                reach[loads + vw > max_load] = -np.inf
                best = int(reach.argmax())
                if reach[best] == -np.inf:
                    continue
                gain = reach[best] - stay
                overloaded = loads[own] > max_load
                improves_tie = gain == 0 and loads[own] > loads[best] + vw
                if gain > 0 or improves_tie or overloaded:
                    assignment[v] = best
                    loads[own] -= vw
                    loads[best] += vw
                    disturbed[indices[indptr[v] : indptr[v + 1]]] = True
                    moved += 1
        if moved == 0:
            break
    return assignment


def _connectivity(
    wg: _WGraph, assignment: np.ndarray, vertices: np.ndarray, num_parts: int
) -> np.ndarray:
    """``conn[i, p]``: weight of ``vertices[i]``'s edges into part ``p``.

    One ``bincount`` over the vertices' concatenated CSR rows; each cell
    sums its edges in CSR order, exactly as a per-vertex
    ``np.bincount(assignment[neighbours], weights=...)`` would.
    """
    degrees = wg.indptr[vertices + 1] - wg.indptr[vertices]
    row = np.repeat(np.arange(len(vertices)), degrees)
    # Edge positions of the ragged rows: each row's CSR start, shifted by
    # where the row begins in the concatenation.
    row_start = np.cumsum(degrees) - degrees
    edges = np.repeat(wg.indptr[vertices] - row_start, degrees) + np.arange(len(row))
    return np.bincount(
        row * num_parts + assignment[wg.indices[edges]],
        weights=wg.ewgts[edges],
        minlength=len(vertices) * num_parts,
    ).reshape(len(vertices), num_parts)


def _weighted_cut(wg: _WGraph, assignment: np.ndarray) -> float:
    """Total weight of edges crossing parts (each undirected edge twice)."""
    src = np.repeat(np.arange(wg.num_vertices, dtype=np.int64), np.diff(wg.indptr))
    cross = assignment[src] != assignment[wg.indices]
    return float(wg.ewgts[cross].sum())


def _boundary_vertices(wg: _WGraph, assignment: np.ndarray) -> np.ndarray:
    """Vertices with at least one neighbour in a different part, ascending."""
    src = np.repeat(np.arange(wg.num_vertices, dtype=np.int64), np.diff(wg.indptr))
    on_boundary = np.zeros(wg.num_vertices, dtype=bool)
    on_boundary[src[assignment[src] != assignment[wg.indices]]] = True
    return np.flatnonzero(on_boundary)
