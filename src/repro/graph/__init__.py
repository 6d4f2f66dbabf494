"""Graph substrate: CSR graphs, builders, IO, generators, dataset registry."""

from repro.graph.builder import GraphBuilder
from repro.graph.datasets import DATASETS, DatasetSpec, get_dataset, rmat_spec
from repro.graph.graph import Graph, empty_graph, from_edges
from repro.graph.io import (
    GraphChunk,
    assemble_chunks,
    read_adjacency,
    read_edge_list,
    split_into_chunks,
    write_adjacency,
    write_edge_list,
)
from repro.graph.stats import GraphStats, compute_stats

__all__ = [
    "Graph",
    "GraphBuilder",
    "GraphChunk",
    "GraphStats",
    "DatasetSpec",
    "DATASETS",
    "assemble_chunks",
    "compute_stats",
    "empty_graph",
    "from_edges",
    "get_dataset",
    "read_adjacency",
    "read_edge_list",
    "rmat_spec",
    "split_into_chunks",
    "write_adjacency",
    "write_edge_list",
]
