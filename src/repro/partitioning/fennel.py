"""FENNEL one-pass streaming partitioner (Tsourakakis et al., WSDM'14).

Vertices arrive in a random stream; each is greedily placed in the
partition ``p`` maximising

    |N(v) ∩ S_p|  -  alpha * GAMMA * |S_p|^(GAMMA - 1)

i.e. neighbours already in ``p`` minus a superlinear load penalty.  With
``GAMMA = 1.5`` (the paper's setting) and
``alpha = sqrt(k) * m / n^1.5`` this interpolates between modularity-style
clustering and balanced partitioning.  A hard balance cap keeps every
part at most ``BALANCE_SLACK`` times the average: a vertex only joins a
part it leaves within the cap, and when no part has room (on a small
graph the caps together can hold fewer than all its vertices) it joins
the least-loaded part.

The Hourglass paper uses FENNEL both as a baseline partitioner and as one
of the micro-partition generators (F-MICRO in Fig 8).
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.partitioning.base import BALANCE_SLACK, Partitioner, Partitioning
from repro.utils.rng import derive_rng

#: Exponent of the load penalty (the paper's setting).
GAMMA = 1.5


class FennelPartitioner(Partitioner):
    """One-pass streaming graph partitioner over a seeded random vertex
    order, with penalty exponent :data:`GAMMA` and part sizes capped at
    :data:`~repro.partitioning.base.BALANCE_SLACK` times the average."""

    name = "fennel"

    def partition(self, graph: Graph, num_parts: int, seed=None) -> Partitioning:
        """Partition *graph* into *num_parts* (see class docstring)."""
        self._check_args(graph, num_parts)
        undirected = graph.undirected()
        n = undirected.num_vertices
        m = max(1, undirected.num_edges // 2)  # undirected edge count
        k = num_parts
        alpha = np.sqrt(k) * m / max(1.0, n**1.5)
        load_cap = max(1.0, BALANCE_SLACK * n / k)

        order = derive_rng(seed, "fennel-order").permutation(n)
        assignment = np.full(n, -1, dtype=np.int64)
        sizes = np.zeros(k, dtype=np.float64)

        for v in order:
            neigh = undirected.neighbors(v)
            placed = assignment[neigh]
            placed = placed[placed >= 0]
            neighbour_score = np.bincount(placed, minlength=k).astype(np.float64)
            penalty = alpha * GAMMA * np.power(sizes, GAMMA - 1.0)
            score = neighbour_score - penalty
            full = sizes + 1.0 > load_cap
            if full.all():
                best = int(np.argmin(sizes))
            else:
                score[full] = -np.inf
                best = int(np.argmax(score))
            assignment[v] = best
            sizes[best] += 1.0

        return Partitioning(assignment=assignment, num_parts=k)
