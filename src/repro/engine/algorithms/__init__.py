"""Vertex programs: the paper's SSSP and PageRank jobs, WCC and degrees."""

from repro.engine.algorithms.degree import InDegree, OutDegree
from repro.engine.algorithms.pagerank import PageRank
from repro.engine.algorithms.sssp import SSSP
from repro.engine.algorithms.wcc import ConnectedComponents, component_sizes

__all__ = [
    "ConnectedComponents",
    "InDegree",
    "OutDegree",
    "PageRank",
    "SSSP",
    "component_sizes",
]
