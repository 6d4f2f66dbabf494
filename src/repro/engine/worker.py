"""Worker abstraction of the simulated distributed deployment.

A :class:`Worker` owns a set of vertices (one partition of the graph).
Vertex state is not kept per worker: the engine holds values and halted
flags in dense arrays indexed by *global* vertex id, which is what lets
the superstep loop compute active sets and the halt condition with array
operations instead of per-vertex dict scans.  Workers still exist as
objects (rather than an index space) so that loading and the per-worker
traffic stats have an honest home.
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
    """

    worker_id: int
    vertices: np.ndarray


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
