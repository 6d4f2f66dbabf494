"""Hash partitioner: ``partition(v) = v mod k`` (Pregel's default).

There is no partitioning phase at all — the assignment is implicit in the
hash function — which is why the paper treats hashing as the zero-cost
baseline: instant to "compute", trivially parallel to load, but blind to
graph structure (its edge cut matches random assignment, ``1 - 1/k``).
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.partitioning.base import Partitioner, Partitioning


class HashPartitioner(Partitioner):
    """Assign vertex ``v`` to partition ``v mod num_parts``."""

    name = "hash"

    def partition(self, graph: Graph, num_parts: int, seed=None) -> Partitioning:
        """Partition *graph* into *num_parts* (see class docstring)."""
        self._check_args(graph, num_parts)
        assignment = np.arange(graph.num_vertices, dtype=np.int64) % num_parts
        return Partitioning(assignment=assignment, num_parts=num_parts)
