"""Descriptive statistics over graphs (used by reports and tests)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.graph import Graph


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics of a graph."""

    num_vertices: int
    num_edges: int
    avg_out_degree: float
    max_out_degree: int
    max_in_degree: int
    isolated_vertices: int
    degree_gini: float


def compute_stats(graph: Graph) -> GraphStats:
    """Compute :class:`GraphStats` for *graph*."""
    out_deg = graph.out_degrees()
    in_deg = graph.in_degrees()
    total_deg = out_deg + in_deg
    return GraphStats(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        avg_out_degree=float(out_deg.mean()) if len(out_deg) else 0.0,
        max_out_degree=int(out_deg.max()) if len(out_deg) else 0,
        max_in_degree=int(in_deg.max()) if len(in_deg) else 0,
        isolated_vertices=int(np.count_nonzero(total_deg == 0)),
        degree_gini=gini(out_deg),
    )


def gini(values: np.ndarray) -> float:
    """Gini coefficient of a non-negative array (degree inequality).

    0 = perfectly uniform degrees, ->1 = extremely skewed.  Power-law
    graphs land well above random graphs, which tests rely on.
    """
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = len(v)
    if n == 0 or v.sum() == 0:
        return 0.0
    cum = np.cumsum(v)
    return float((n + 1 - 2 * (cum / cum[-1]).sum()) / n)
