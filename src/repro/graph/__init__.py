"""Graph substrate: CSR graphs, generators, CSR stores, dataset registry."""

from repro.graph.datasets import DATASETS, DatasetSpec, get_dataset, rmat_spec
from repro.graph.graph import Graph, empty_graph, from_edges
from repro.graph.stats import GraphStats, compute_stats

__all__ = [
    "Graph",
    "GraphStats",
    "DatasetSpec",
    "DATASETS",
    "compute_stats",
    "empty_graph",
    "from_edges",
    "get_dataset",
    "rmat_spec",
]
