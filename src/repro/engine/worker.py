"""Worker abstraction of the simulated distributed deployment.

A :class:`Worker` owns a set of vertices (one partition of the graph)
and a view of their state.  Vertex values and halted flags live in dense
numpy arrays indexed by *global* vertex id; when workers are built by the
engine they all share the engine's arrays (ownership is disjoint, so
sharing is safe), which is what lets the superstep loop compute active
sets and the halt condition with array operations instead of per-vertex
dict scans.  Workers still exist as real objects (rather than an index
space) so that loading and the per-worker traffic stats have an honest
home.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def value_dtype_of(program) -> np.dtype:
    """The numpy dtype a program's vertex values are stored as."""
    dtype = getattr(program, "value_dtype", None)
    return np.dtype(object) if dtype is None else np.dtype(dtype)


@dataclass
class Worker:
    """One simulated machine's share of the computation.

    Attributes:
        worker_id: dense id in ``[0, num_workers)``.
        vertices: global vertex ids owned by this worker (sorted).
        values: dense value array indexed by global vertex id (this
            worker only touches its own slots).
        halted: dense boolean halted-flag array, same indexing.
    """

    worker_id: int
    vertices: np.ndarray
    values: np.ndarray | None = None
    halted: np.ndarray | None = None

    def attach(self, values: np.ndarray, halted: np.ndarray) -> None:
        """Share the engine's global state arrays."""
        self.values = values
        self.halted = halted


def build_workers(partitioning, num_workers: int) -> list[Worker]:
    """Create workers from a partitioning (partition p -> worker p)."""
    if partitioning.num_parts != num_workers:
        raise ValueError(
            f"partitioning has {partitioning.num_parts} parts but deployment "
            f"has {num_workers} workers"
        )
    return [
        Worker(worker_id=w, vertices=partitioning.part_vertices(w))
        for w in range(num_workers)
    ]
