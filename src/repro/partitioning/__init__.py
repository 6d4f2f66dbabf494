"""Partitioners: hash, FENNEL streaming, METIS-like multilevel, micro."""

from repro.partitioning.base import Partitioner, Partitioning
from repro.partitioning.fennel import FennelPartitioner
from repro.partitioning.hashing import HashPartitioner
from repro.partitioning.micro import (
    MicroPartitioner,
    MicroPartitioning,
    build_quotient_graph,
    micro_partition_count,
)
from repro.partitioning.multilevel import MultilevelPartitioner
from repro.partitioning.quality import (
    edge_balance,
    edge_cut_fraction,
    random_cut_expectation,
)

__all__ = [
    "Partitioner",
    "Partitioning",
    "HashPartitioner",
    "FennelPartitioner",
    "MultilevelPartitioner",
    "MicroPartitioner",
    "MicroPartitioning",
    "build_quotient_graph",
    "micro_partition_count",
    "edge_balance",
    "edge_cut_fraction",
    "random_cut_expectation",
]
