"""Partition quality metrics.

The paper measures partition quality as the **percentage of edges cut**
(edges whose endpoints land in different partitions), which estimates the
fraction of messages that must cross machines during execution (§8.3.3).
Random assignment cuts ``1 - 1/k`` of the edges in expectation, which the
paper's Fig 8 plots as the "Random" reference line.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.partitioning.base import Partitioning


def edge_cut_fraction(graph: Graph, partitioning: Partitioning) -> float:
    """Fraction of directed edges crossing partitions, in [0, 1]."""
    if partitioning.num_vertices != graph.num_vertices:
        raise ValueError("partitioning does not match graph")
    if graph.num_edges == 0:
        return 0.0
    part = partitioning.assignment
    src_part = np.repeat(part, graph.out_degrees())
    dst_part = part[graph.indices]
    return float(np.count_nonzero(src_part != dst_part) / graph.num_edges)


def edge_balance(graph: Graph, partitioning: Partitioning) -> float:
    """Max/avg ratio of per-partition *edge* counts (paper balances edges).

    Returns 1.0 for a perfectly edge-balanced partitioning; values above 1
    indicate overloaded partitions.  Empty graphs report 1.0.
    """
    if graph.num_edges == 0:
        return 1.0
    part = partitioning.assignment
    src_part = np.repeat(part, graph.out_degrees())
    loads = np.bincount(src_part, minlength=partitioning.num_parts).astype(np.float64)
    avg = graph.num_edges / partitioning.num_parts
    return float(loads.max() / avg)


def random_cut_expectation(num_parts: int) -> float:
    """Expected edge-cut fraction of uniform random assignment: 1 - 1/k."""
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    return 1.0 - 1.0 / num_parts
