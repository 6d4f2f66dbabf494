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

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.graph.graph import Graph, merge_parallel_edges
from repro.partitioning.base import BALANCE_SLACK, Partitioner, Partitioning
from repro.utils.rng import derive_rng

#: Edges one batch of matching proposals, or one refresh of refinement
#: options, gathers at most (see ``_batch_edges``).
_BATCH_EDGES = 1 << 13

#: Largest vertex id, and largest total edge weight stored as integers, of
#: a level: METIS's 32-bit ``idx_t``.
_INT32_MAX = np.iinfo(np.int32).max

#: Coarsening stops once at most ``max(COARSEN_UNTIL, 20 * k)`` vertices
#: remain.
COARSEN_UNTIL = 200

#: Greedy refinement passes per level.
REFINE_PASSES = 4


@dataclass
class _WGraph:
    """Symmetric weighted graph used internally across levels.

    Stored at METIS width: ``indices`` are ``int32`` on every level;
    ``ewgts`` are ``int32`` when the finest level's weights are
    non-negative integers whose total fits in ``int32`` (every
    unweighted and every quotient graph), and ``float64`` otherwise.
    A coarse weight is a sum of fine ones, so it never exceeds that
    total.  ``indptr`` and ``vwgts`` (per vertex) stay ``int64`` and
    ``float64``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    ewgts: np.ndarray
    vwgts: np.ndarray

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return len(self.indptr) - 1


class MultilevelPartitioner(Partitioner):
    """METIS-style multilevel k-way partitioner.

    Balances total degree, the paper's Fig 8 setting ("we set both
    partitioners to balance the total number of edges assigned to the
    different partitions"): a vertex weighs its degree plus one, unless
    :meth:`partition` is given ``vertex_weights``.  No part may weigh
    more than :data:`~repro.partitioning.base.BALANCE_SLACK` times the
    average.  Coarsening stops at ``max(COARSEN_UNTIL, 20 * k)``
    vertices, and each level gets ``REFINE_PASSES`` refinement passes.

    Args:
        restarts: independent runs with different seeds, keeping the
            best (feasible, lowest-cut) result.  Cheap and very effective
            on small graphs; micro-partition clustering uses eight
            restarts since its quotient graphs have only ~64 vertices.
    """

    name = "multilevel"

    def __init__(self, restarts: int = 1):
        if restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {restarts}")
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

        max_load = BALANCE_SLACK * (wg.vwgts.sum() / num_parts)
        best_assignment = None
        best_key = None
        for attempt in range(self.restarts):
            rng = derive_rng(seed, "multilevel", attempt)
            assignment = self._partition_once(wg, num_parts, rng, max_load)
            loads = np.bincount(assignment, weights=wg.vwgts, minlength=num_parts)
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
        target = max(COARSEN_UNTIL, 20 * num_parts)
        while current.num_vertices > target:
            cmap, num_coarse = _heavy_edge_matching(current, rng)
            if num_coarse >= current.num_vertices * 0.95:
                break  # matching stalled (e.g. star graphs): stop coarsening
            coarse = _contract(current, cmap, num_coarse)
            levels.append((current, cmap))
            current = coarse

        # Phase 2: initial partition on the coarsest graph.
        assignment = _recursive_bisection(current, num_parts, rng)
        assignment = _refine(current, assignment, num_parts, max_load, REFINE_PASSES)

        # Phase 3: uncoarsen + refine, dropping each coarse level as it is left.
        while levels:
            current, cmap = levels.pop()
            assignment = _refine(current, assignment[cmap], num_parts, max_load, REFINE_PASSES)
        return assignment

    # ------------------------------------------------------------------
    @staticmethod
    def _to_wgraph(graph: Graph, vertex_weights) -> _WGraph:
        if graph.num_vertices > _INT32_MAX:
            raise ValueError(f"graphs of more than {_INT32_MAX} vertices need 64-bit ids")
        if graph.weights is not None:
            if not np.isfinite(graph.weights).all():
                raise ValueError("edge weights must be finite")
            if (graph.weights < 0).any():
                # Heavy-edge matching and refinement gains assume it, and so
                # does the int32 bound: only then is no coarse weight above
                # the total.
                raise ValueError("edge weights must be non-negative")
        und = graph.undirected()
        ewgts = und.weights if und.weights is not None else np.ones(und.num_edges)
        # Integer weights whose total fits are stored as int32 (see _WGraph);
        # non-negative integers sum exactly in float64 far beyond _INT32_MAX.
        if ewgts.sum() <= _INT32_MAX:
            narrow = ewgts.astype(np.int32)
            if np.array_equal(narrow, ewgts):
                ewgts = narrow
        if vertex_weights is not None:
            vwgts = np.asarray(vertex_weights, dtype=np.float64)
            if vwgts.shape != (graph.num_vertices,):
                raise ValueError("vertex_weights must have one entry per vertex")
            if not (np.isfinite(vwgts).all() and (vwgts >= 0).all() and vwgts.sum() > 0):
                raise ValueError(
                    "vertex_weights must be finite and non-negative, with a positive total"
                )
        else:
            # Weight vertices by degree (plus one so isolated vertices count).
            vwgts = np.diff(und.indptr).astype(np.float64) + 1.0
        return _WGraph(
            indptr=und.indptr, indices=und.indices.astype(np.int32), ewgts=ewgts, vwgts=vwgts
        )


def _widened(wg: _WGraph) -> _WGraph:
    """*wg* with its ids as ``intp``, for a kernel that gathers through
    them: NumPy casts an ``int32`` index array on every gather, which
    costs more than one cast of the level."""
    return _WGraph(wg.indptr, wg.indices.astype(np.intp), wg.ewgts, wg.vwgts)


def _batch_edges(wg: _WGraph) -> int:
    """Edges one batch gathers: ``_BATCH_EDGES``, but at most an eighth
    of the graph's.  A batch is redone in part whenever an earlier visit
    invalidates it, and on a small dense graph one move reaches most of
    the graph."""
    return max(1, min(_BATCH_EDGES, len(wg.indices) // 8))


# ----------------------------------------------------------------------
# Coarsening
# ----------------------------------------------------------------------
def _heavy_edge_matching(wg: _WGraph, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Greedy heavy-edge matching.

    Visits the vertices in a random order; an unmatched vertex takes its
    heaviest unmatched neighbour (the first in CSR order on ties) or, with
    none left, stays single.  Returns ``(cmap, num_coarse)`` where
    ``cmap[v]`` is the coarse vertex id of ``v``: matched pairs share one,
    and ids follow the pairs' smaller members.

    The visits run in batches of ``_batch_edges`` edges.  One
    vectorised call proposes, for every vertex of a batch, its heaviest
    neighbour unmatched at the batch start; the walk through the batch
    takes a proposal whenever it is still unmatched — the heaviest of a
    set stays the heaviest of any subset holding it — and proposes again
    for the one vertex when an earlier vertex of the batch took it.  The
    decisions are the plain loop's (``tests/multilevel_oracle.py``), one
    by one.
    """
    wg = _widened(wg)
    n = wg.num_vertices
    match = np.full(n, -1, dtype=np.int64)
    order = rng.permutation(n)
    reach = np.cumsum(np.diff(wg.indptr)[order])  # edges up to each visit
    batch_edges = _batch_edges(wg)
    first = 0
    while first < n:
        budget = (reach[first - 1] if first else 0) + batch_edges
        last = max(first + 1, int(np.searchsorted(reach, budget, side="right")))
        batch = order[first:last]
        batch = batch[match[batch] < 0]
        for v, best in zip(batch.tolist(), _heaviest_free(wg, match, batch).tolist()):
            if match[v] >= 0:
                continue
            if best >= 0 and match[best] >= 0:  # taken since the batch began
                best = int(_heaviest_free(wg, match, np.array([v]))[0])
            match[v] = v if best < 0 else best
            if best >= 0:
                match[best] = v
        first = last
    # Number the pairs by their smaller member (a single by itself).
    leader = np.minimum(match, np.arange(n))
    coarse_id = np.cumsum(leader == np.arange(n)) - 1
    return coarse_id[leader], int(coarse_id[-1]) + 1 if n else 0


def _heaviest_free(wg: _WGraph, match: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each row's heaviest unmatched neighbour other than itself, the first
    in CSR order on ties (weights are finite); ``-1`` where there is none."""
    edges, row = _row_edges(wg.indptr, rows)
    neighbour = wg.indices[edges]
    free = (match[neighbour] < 0) & (neighbour != rows[row])
    best = np.full(len(rows), -1, dtype=np.int64)
    row, neighbour = row[free], neighbour[free]
    if not len(row):
        return best
    weight = wg.ewgts[edges[free]]
    # Each row's heaviest free weight, then its first free edge carrying it.
    opens = np.concatenate(([True], row[1:] != row[:-1]))
    heaviest = np.maximum.reduceat(weight, np.flatnonzero(opens))
    ties = np.flatnonzero(weight == heaviest[np.cumsum(opens) - 1])
    first = ties[np.concatenate(([True], row[ties[1:]] != row[ties[:-1]]))]
    best[row[first]] = neighbour[first]
    return best


def _row_edges(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR positions of the concatenated rows ``rows`` and, for each, the
    index into ``rows`` of the row it belongs to."""
    degrees = indptr[rows + 1] - indptr[rows]
    row = np.repeat(np.arange(len(rows)), degrees)
    # Each row's CSR start, shifted by where the row begins in the concatenation.
    row_start = np.cumsum(degrees) - degrees
    return np.repeat(indptr[rows] - row_start, degrees) + np.arange(len(row)), row


def _contract(wg: _WGraph, cmap: np.ndarray, num_coarse: int) -> _WGraph:
    """Contract matched pairs into coarse vertices, merging parallel edges.

    A merged edge sums its weights in fine CSR order (integer weights
    exactly, at their own dtype) and a coarse vertex its members' weights
    in id order: ``np.bincount`` accumulates in input order.  The coarse
    level keeps the fine one's width.  The merge takes every fine edge,
    and the coarse self-loops (each matched pair's own edge, at most one
    per row) leave afterwards: filtering first would copy the keys and
    weights once more.
    """
    indptr, indices, ewgts = merge_parallel_edges(
        _coarse_keys(wg, cmap, num_coarse), wg.ewgts, num_coarse
    )
    indices = indices.astype(np.int32)
    loops = indices == np.repeat(np.arange(num_coarse, dtype=np.int32), np.diff(indptr))
    dropped = np.bincount(indices[loops], minlength=num_coarse)
    np.subtract(indptr[1:], np.cumsum(dropped), out=indptr[1:])
    keep = ~loops
    vwgts = np.bincount(cmap, weights=wg.vwgts, minlength=num_coarse)
    return _WGraph(indptr=indptr, indices=indices[keep], ewgts=ewgts[keep], vwgts=vwgts)


def _coarse_keys(wg: _WGraph, cmap: np.ndarray, num_coarse: int) -> np.ndarray:
    """Key ``coarse source * num_coarse + coarse target`` of every fine edge."""
    keys = np.repeat(cmap * num_coarse, np.diff(wg.indptr))
    keys += cmap[wg.indices]
    return keys


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
    member = bytearray(wg.num_vertices)
    np.frombuffer(member, dtype=bool)[vertices] = True
    taken = bytearray(wg.num_vertices)
    indptr = wg.indptr.tolist()
    vwgts = wg.vwgts.tolist()
    region: list[int] = []
    weight = 0.0
    queue: deque[int] = deque()
    seed_iter = iter(vertices[rng.permutation(len(vertices))].tolist())
    while weight < target_weight:
        if not queue:
            root = None
            for cand in seed_iter:
                if not taken[cand]:
                    root = cand
                    break
            if root is None:
                break
            taken[root] = True
            queue.append(root)
        v = queue.popleft()
        region.append(v)
        weight += vwgts[v]
        for u in wg.indices[indptr[v] : indptr[v + 1]].tolist():
            if member[u] and not taken[u]:
                taken[u] = True
                queue.append(u)
    return np.asarray(region, dtype=np.int64)


# ----------------------------------------------------------------------
# Refinement
# ----------------------------------------------------------------------
#: Bytes one refresh of ``_refine``'s options may allocate (rows x parts
#: float64): it caps the rows a refresh spans.
_SWEEP_BYTES = 8 << 20

# A vertex's place in ``_refine``'s cache.
_STALE, _OPEN, _SETTLED = 0, 1, 2


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

    ``wg`` must be symmetric, as every level is.  The visit order and
    every float are those of the plain loop kept in
    ``tests/refine_oracle.py``; the result is array-equal to it.  What
    changes is where a visit's numbers come from.  Every vertex caches
    its *options*: the other parts at least as well connected as its own
    one, with their connectivity (every other part while its own part is
    overloaded).  A vertex without options is *settled*.  Any part outside
    the options costs weight, which only an overloaded part may give up,
    and a part never *becomes* overloaded (moves only go where there is
    room), so the options hold every move the loop could make.  A cache
    lives until the vertex or a neighbour moves, across passes.  Visiting
    a vertex without one refreshes every such boundary vertex in the next
    ``_batch_edges`` edges of the CSR with one ``bincount``, each cell
    summing its edges in CSR order as a per-vertex one would.  The
    decision itself is plain Python over the options and a list of part
    loads, with the loop's float operations.
    """
    wg = _widened(wg)
    assignment = assignment.copy()
    indptr = wg.indptr.tolist()
    vwgts = wg.vwgts.tolist()
    loads = np.bincount(assignment, weights=wg.vwgts, minlength=num_parts).tolist()
    max_load = float(max_load)
    overloaded = sum(load > max_load for load in loads)  # only ever falls
    max_rows = max(1, _SWEEP_BYTES // (8 * num_parts))
    batch_edges = _batch_edges(wg)
    degrees = np.diff(wg.indptr)
    options: list = [None] * wg.num_vertices
    # One buffer behind two views: read per visit as bytes, written per
    # refresh and per move (a whole neighbourhood at once) through NumPy.
    state = bytearray(wg.num_vertices)  # _STALE
    state_of = np.frombuffer(state, dtype=np.uint8)
    for _ in range(passes):
        on_boundary = _on_boundary(wg, assignment)
        moved = 0
        for v in on_boundary.nonzero()[0].tolist():
            if state[v] == _STALE:
                hi = bisect_right(indptr, indptr[v] + batch_edges) - 1
                hi = min(max(hi, v + 1), v + max_rows)
                edges = slice(indptr[v], indptr[hi])
                # Each edge's cell: its row of the block, then its target's part.
                cell = np.repeat(np.arange(0, (hi - v) * num_parts, num_parts), degrees[v:hi])
                cell += assignment[wg.indices[edges]]
                conn = np.bincount(
                    cell,
                    weights=wg.ewgts[edges],
                    minlength=(hi - v) * num_parts,
                ).reshape(hi - v, num_parts)
                stale = (on_boundary[v:hi] > state_of[v:hi]).nonzero()[0]
                rows = stale + v
                full = np.asarray(loads) > max_load if overloaded else None
                open_rows, entries = _options(conn[stale], assignment[rows], full)
                open_rows = rows[open_rows]
                state_of[rows] = _SETTLED
                state_of[open_rows] = _OPEN
                for u, entry in zip(open_rows.tolist(), entries):
                    options[u] = entry
            if state[v] == _SETTLED:
                continue
            own, stay, parts, conns = options[v]
            vw = vwgts[v]
            # The best-connected part with room, the first on ties.
            best, reach = -1, -math.inf
            for part, part_conn in zip(parts, conns):
                if part_conn > reach and loads[part] + vw <= max_load:
                    best, reach = part, part_conn
            if best < 0:
                continue
            gain = reach - stay
            overloaded_own = loads[own] > max_load
            improves_tie = gain == 0 and loads[own] > loads[best] + vw
            if gain > 0 or improves_tie or overloaded_own:
                assignment[v] = best
                loads[own] -= vw
                loads[best] += vw
                if overloaded_own and loads[own] <= max_load:
                    overloaded -= 1
                state_of[wg.indices[indptr[v] : indptr[v + 1]]] = _STALE
                state[v] = _STALE
                moved += 1
        if moved == 0:
            break
    return assignment


def _options(
    conn: np.ndarray, own: np.ndarray, overloaded: np.ndarray | None
) -> tuple[np.ndarray, list]:
    """``_refine``'s options for each row of ``conn``: a vertex's
    connectivity to every part, ``own`` its part.

    Returns the rows that have any, and for each of them ``(own part, own
    connectivity, parts, their connectivities)``, the parts ascending.
    ``overloaded`` marks the overloaded parts, ``None`` when there are none.
    """
    everyone = np.arange(len(own))
    stay = conn[everyone, own]
    open_parts = conn >= stay[:, None]
    if overloaded is not None:
        open_parts[overloaded[own]] = True
    open_parts[everyone, own] = False
    flat = open_parts.ravel().nonzero()[0]
    row, part = np.divmod(flat, conn.shape[1])
    counts = np.bincount(row, minlength=len(own))
    open_rows = counts.nonzero()[0]
    ends = np.cumsum(counts[open_rows]).tolist()
    own, stay, part, value = own.tolist(), stay.tolist(), part.tolist(), conn.ravel()[flat].tolist()
    entries = [
        (own[r], stay[r], part[first:last], value[first:last])
        for r, first, last in zip(open_rows.tolist(), [0] + ends, ends)
    ]
    return open_rows, entries


def _weighted_cut(wg: _WGraph, assignment: np.ndarray) -> float:
    """Total weight of edges crossing parts (each undirected edge twice);
    ``int32`` weights sum exactly, in ``int64``."""
    cross = np.repeat(assignment, np.diff(wg.indptr)) != assignment[wg.indices]
    return float(wg.ewgts[cross].sum())


def _on_boundary(wg: _WGraph, assignment: np.ndarray) -> np.ndarray:
    """Whether each vertex has at least one neighbour in a different part:
    a row whose neighbours' smallest or largest part is not its own."""
    # Closed by a copy of the last entry, which leaves the last row's
    # extremes as they are ("clip" writes ``out`` unbuffered).
    parts = np.zeros(len(wg.indices) + 1, dtype=np.int64)
    np.take(assignment, wg.indices, out=parts[:-1], mode="clip")
    if len(wg.indices):
        parts[-1] = parts[-2]
    # ``reduceat`` reads one element for an empty row: mask those out.
    starts = wg.indptr[:-1]
    return (
        (np.minimum.reduceat(parts, starts) != assignment)
        | (np.maximum.reduceat(parts, starts) != assignment)
    ) & (wg.indptr[1:] > starts)
