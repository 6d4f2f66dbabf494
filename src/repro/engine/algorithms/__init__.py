"""Vertex programs: the paper's SSSP and PageRank jobs, WCC and in-degree."""

from repro.engine.algorithms.degree import InDegree
from repro.engine.algorithms.pagerank import PageRank
from repro.engine.algorithms.sssp import SSSP
from repro.engine.algorithms.wcc import ConnectedComponents

__all__ = [
    "ConnectedComponents",
    "InDegree",
    "PageRank",
    "SSSP",
]
