"""Partitioners: hash, FENNEL streaming, METIS-like multilevel, micro."""

from repro.partitioning.base import Partitioner, Partitioning
from repro.partitioning.fennel import FennelPartitioner
from repro.partitioning.hashing import HashPartitioner, RandomPartitioner
from repro.partitioning.micro import (
    MicroPartitioner,
    MicroPartitioning,
    build_quotient_graph,
    micro_partition_count,
)
from repro.partitioning.multilevel import MultilevelPartitioner
from repro.partitioning.quality import (
    PartitionQuality,
    edge_balance,
    edge_cut_fraction,
    evaluate,
    random_cut_expectation,
    vertex_balance,
)

__all__ = [
    "Partitioner",
    "Partitioning",
    "HashPartitioner",
    "RandomPartitioner",
    "FennelPartitioner",
    "MultilevelPartitioner",
    "MicroPartitioner",
    "MicroPartitioning",
    "PartitionQuality",
    "build_quotient_graph",
    "micro_partition_count",
    "edge_balance",
    "edge_cut_fraction",
    "evaluate",
    "random_cut_expectation",
    "vertex_balance",
]
