"""Reference oracle for multilevel refinement: the original greedy loop.

Relocated verbatim from ``repro.partitioning.multilevel`` when the
production ``_refine`` was made faster (``np.bincount`` accumulation, a
vectorised pre-pass that skips boundary vertices which provably cannot
move).  The production routine must return an array-equal assignment on
every input, which ``tests/test_refine_equivalence.py`` asserts on
generated weighted graphs — the way ``tests/recursive_oracle.py`` holds
the iterative DP to the recursion.  Never use it outside tests: it
evaluates every boundary vertex with a per-visit ``np.add.at``.
"""

from __future__ import annotations

import numpy as np


def neighbors(wg, v: int) -> np.ndarray:
    """Neighbour ids of *v* in the internal weighted graph ``wg``."""
    return wg.indices[wg.indptr[v] : wg.indptr[v + 1]]


def neighbor_weights(wg, v: int) -> np.ndarray:
    """Edge weights parallel to ``neighbors(wg, v)``."""
    return wg.ewgts[wg.indptr[v] : wg.indptr[v + 1]]


def boundary_vertices(wg, assignment: np.ndarray) -> np.ndarray:
    """Vertices with at least one neighbour in a different part."""
    src = np.repeat(np.arange(wg.num_vertices, dtype=np.int64), np.diff(wg.indptr))
    cross = assignment[src] != assignment[wg.indices]
    return np.unique(src[cross])


def refine_reference(
    wg,
    assignment: np.ndarray,
    num_parts: int,
    max_load: float,
    passes: int,
) -> np.ndarray:
    """Greedy boundary refinement (FM-style, without rollback)."""
    assignment = assignment.copy()
    loads = np.zeros(num_parts)
    np.add.at(loads, assignment, wg.vwgts)
    for _ in range(passes):
        boundary = boundary_vertices(wg, assignment)
        moved = 0
        for v in boundary:
            neigh = neighbors(wg, v)
            wts = neighbor_weights(wg, v)
            own = assignment[v]
            vw = wg.vwgts[v]
            conn = np.zeros(num_parts)
            np.add.at(conn, assignment[neigh], wts)
            internal = conn[own]
            conn[own] = -np.inf
            # Respect the balance cap; allow moves into parts with room.
            room = loads + vw <= max_load
            conn[~room] = -np.inf
            best = int(np.argmax(conn))
            if not np.isfinite(conn[best]):
                continue
            gain = conn[best] - internal
            overloaded = loads[own] > max_load
            improves_tie = gain == 0 and loads[own] > loads[best] + vw
            if gain > 0 or improves_tie or overloaded:
                assignment[v] = best
                loads[own] -= vw
                loads[best] += vw
                moved += 1
        if moved == 0:
            break
    return assignment
