"""Vertex programs: the paper's three jobs plus degree and colouring."""

from repro.engine.algorithms.coloring import (
    UNCOLOURED,
    GraphColoring,
    count_colors,
    is_proper_coloring,
)
from repro.engine.algorithms.degree import InDegree, OutDegree
from repro.engine.algorithms.pagerank import PageRank
from repro.engine.algorithms.sssp import SSSP
from repro.engine.algorithms.wcc import ConnectedComponents, component_sizes

__all__ = [
    "ConnectedComponents",
    "GraphColoring",
    "InDegree",
    "OutDegree",
    "PageRank",
    "SSSP",
    "UNCOLOURED",
    "component_sizes",
    "count_colors",
    "is_proper_coloring",
]
