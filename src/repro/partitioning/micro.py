"""Micro-partitioning and online clustering (Hourglass §6, Fig 4).

Offline, the graph is over-sharded into many *micro-partitions* using any
base partitioner (METIS-like multilevel, FENNEL, or hashing).  The
micro-partitions induce a **quotient graph**: one vertex per
micro-partition, an edge between two micro-partitions weighted by the
number of original edges crossing them, and vertex weights equal to the
contained load.  Online, when a deployment configuration with ``k``
workers is selected, the tiny quotient graph is partitioned into ``k``
clusters in milliseconds, and each worker loads its micro-partitions in
parallel with no shuffling (parallel recovery).

The number of micro-partitions is chosen as the least common multiple of
the worker counts of all candidate configurations, so every clustering
can be perfectly size-balanced (§6.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.graph.graph import Graph, merge_parallel_edges
from repro.partitioning.base import Partitioner, Partitioning
from repro.partitioning.multilevel import MultilevelPartitioner


def micro_partition_count(worker_counts: Sequence[int], minimum: int = 1) -> int:
    """LCM of the candidate worker counts (Hourglass's choice of shard count).

    ``minimum`` lets callers force extra over-sharding (the LCM of
    {4, 8, 16} is only 16; the paper's Fig 8 uses 64 micro-partitions).
    The result is the smallest multiple of the LCM that is >= minimum.
    """
    counts = [int(c) for c in worker_counts]
    if not counts or any(c < 1 for c in counts):
        raise ValueError(f"worker_counts must be positive, got {worker_counts}")
    lcm = math.lcm(*counts)
    multiplier = max(1, math.ceil(minimum / lcm))
    return lcm * multiplier


@dataclass(frozen=True)
class MicroPartitioning:
    """The offline artefact: micro assignment + quotient graph.

    Attributes:
        micro: assignment of original vertices to micro-partitions.
        quotient: weighted quotient graph over micro-partitions.
        micro_vertex_weights: per-micro-partition load (original edge
            endpoints contained), used to balance clustering.
        source_graph_name: provenance label.
    """

    micro: Partitioning
    quotient: Graph
    micro_vertex_weights: np.ndarray
    source_graph_name: str = ""

    @property
    def num_micro_parts(self) -> int:
        """Number of micro-partitions in the artefact."""
        return self.micro.num_parts

    def cluster(self, num_parts: int, seed=None) -> Partitioning:
        """Cluster micro-partitions into ``num_parts`` macro-partitions.

        This is the *online* step: it runs on the quotient graph (a few
        dozen vertices), so it completes in milliseconds regardless of
        the original graph's size.  It is a multilevel partitioning
        balanced by the micro-partitions' loads, keeping the best of
        eight restarts.
        """
        if num_parts < 1:
            raise ValueError(f"num_parts must be >= 1, got {num_parts}")
        if num_parts > self.num_micro_parts:
            raise ValueError(
                f"cannot cluster {self.num_micro_parts} micro-partitions into "
                f"{num_parts} parts"
            )
        macro_of_micro = MultilevelPartitioner(restarts=8).partition(
            self.quotient,
            num_parts,
            seed=seed,
            vertex_weights=self.micro_vertex_weights,
        )
        return self.micro.relabel(macro_of_micro.assignment, num_parts)


class MicroPartitioner:
    """Builds the offline micro-partitioning artefact.

    Args:
        base: partitioner used to create micro-partitions (METIS-like by
            default; FENNEL and hashing are the paper's alternatives).
        num_micro_parts: shard count; typically
            :func:`micro_partition_count` of the configuration catalogue.
    """

    def __init__(self, base: Partitioner | None = None, num_micro_parts: int = 64):
        if num_micro_parts < 1:
            raise ValueError(f"num_micro_parts must be >= 1, got {num_micro_parts}")
        self.base = base or MultilevelPartitioner()
        self.num_micro_parts = num_micro_parts

    def build(self, graph: Graph, seed=None) -> MicroPartitioning:
        """Run the offline phase: micro-partition and reduce the graph."""
        micro = self.base.partition(graph, self.num_micro_parts, seed=seed)
        quotient, vertex_weights = build_quotient_graph(graph, micro)
        return MicroPartitioning(
            micro=micro,
            quotient=quotient,
            micro_vertex_weights=vertex_weights,
            source_graph_name=graph.name,
        )


def build_quotient_graph(graph: Graph, micro: Partitioning) -> tuple[Graph, np.ndarray]:
    """Reduce *graph* modulo *micro* (Fig 4 step 2).

    Returns the weighted quotient graph and per-micro-partition vertex
    weights.  Edge weight between two quotient vertices = number of
    original directed edges crossing those micro-partitions; quotient
    vertex weight = number of original edge endpoints inside (so
    balancing quotient vertices balances edges, the paper's criterion).
    """
    if micro.num_vertices != graph.num_vertices:
        raise ValueError("partitioning does not match graph")
    k = micro.num_parts
    part = micro.assignment
    src_part = np.repeat(part, graph.out_degrees())
    dst_part = part[graph.indices]
    cross = src_part != dst_part
    # Aggregate parallel quotient edges: each weighs one, so the merge counts.
    indptr, indices, counts = merge_parallel_edges(
        src_part[cross] * k + dst_part[cross], None, k
    )
    quotient = Graph(
        indptr=indptr, indices=indices, weights=counts, name=f"quotient({graph.name})"
    )
    # Load per micro-partition: edge endpoints contained (internal edges
    # count twice, which is what work balance cares about), min 1.
    endpoint_load = np.bincount(src_part, minlength=k) + np.bincount(dst_part, minlength=k)
    endpoint_load = np.maximum(endpoint_load.astype(np.float64), 1.0)
    return quotient, endpoint_load
