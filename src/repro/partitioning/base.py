"""Partitioner interfaces and the :class:`Partitioning` result type."""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.graph.graph import Graph

#: Largest part load the multilevel and FENNEL partitioners allow, as a
#: multiple of the average part load: 10 % imbalance, METIS's default
#: ``ufactor``.
BALANCE_SLACK = 1.1


@dataclass(frozen=True)
class Partitioning:
    """Assignment of every vertex to one of ``num_parts`` partitions.

    Invariants (validated at construction): ``assignment`` has one entry
    per vertex, and every value is in ``[0, num_parts)``.  Empty
    partitions are allowed (they occur for tiny graphs with many parts).
    """

    assignment: np.ndarray
    num_parts: int

    def __post_init__(self):
        assignment = np.ascontiguousarray(self.assignment, dtype=np.int64)
        object.__setattr__(self, "assignment", assignment)
        if self.num_parts < 1:
            raise ValueError(f"num_parts must be >= 1, got {self.num_parts}")
        if assignment.ndim != 1:
            raise ValueError("assignment must be one-dimensional")
        if len(assignment) and (assignment.min() < 0 or assignment.max() >= self.num_parts):
            raise ValueError("partition id out of range")

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return len(self.assignment)

    def relabel(self, mapping: np.ndarray, num_parts: int) -> "Partitioning":
        """Compose with a part-level mapping (micro -> macro clustering).

        ``mapping[p]`` gives the new partition of every vertex whose
        current partition is ``p``.
        """
        mapping = np.asarray(mapping, dtype=np.int64)
        if mapping.shape != (self.num_parts,):
            raise ValueError(
                f"mapping must have {self.num_parts} entries, got {mapping.shape}"
            )
        return Partitioning(assignment=mapping[self.assignment], num_parts=num_parts)


class Partitioner(abc.ABC):
    """A vertex partitioner.

    Implementations must be deterministic given their ``seed`` argument
    and must treat the input graph as undirected (symmetrising internally
    if needed), which is the convention of the partitioning literature the
    paper builds on.
    """

    #: Human-readable algorithm name, overridden by subclasses.
    name: str = "abstract"

    @abc.abstractmethod
    def partition(self, graph: Graph, num_parts: int, seed=None) -> Partitioning:
        """Partition *graph* into *num_parts* parts."""

    def _check_args(self, graph: Graph, num_parts: int) -> None:
        if num_parts < 1:
            raise ValueError(f"num_parts must be >= 1, got {num_parts}")
        if graph.num_vertices == 0:
            raise ValueError("cannot partition an empty graph")
