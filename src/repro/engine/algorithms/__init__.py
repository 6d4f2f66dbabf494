"""Vertex programs: the paper's SSSP and PageRank jobs."""

from repro.engine.algorithms.pagerank import PageRank
from repro.engine.algorithms.sssp import SSSP

__all__ = [
    "PageRank",
    "SSSP",
]
