"""In-memory graph representation.

The library stores graphs in Compressed Sparse Row (CSR) form: an
``indptr`` array of length ``num_vertices + 1`` and an ``indices`` array of
length ``num_edges`` holding, for every vertex ``v``, the destination
vertices of its out-edges in ``indices[indptr[v]:indptr[v + 1]]``.
Optional per-edge weights live in a parallel ``weights`` array.

This is the substrate for everything else: the Pregel engine iterates
out-edges, the partitioners consume the (symmetrised) adjacency structure,
and the loaders move serialized CSR chunks around.
"""

from __future__ import annotations

import shutil
import tempfile
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np
from numpy.lib.format import open_memmap


@dataclass(frozen=True)
class Graph:
    """An immutable directed graph in CSR form.

    Attributes:
        indptr: ``int64`` array, shape ``(num_vertices + 1,)``; monotone,
            ``indptr[0] == 0`` and ``indptr[-1] == num_edges``.
        indices: ``int64`` array of edge destinations, shape ``(num_edges,)``.
        weights: optional ``float64`` array parallel to ``indices``.
        name: optional human-readable dataset name.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        if self.weights is not None:
            weights = np.ascontiguousarray(self.weights, dtype=np.float64)
            if weights.shape != indices.shape:
                raise ValueError(
                    f"weights shape {weights.shape} != indices shape {indices.shape}"
                )
            object.__setattr__(self, "weights", weights)
        # Derived lazily by edge_sources(); not fields, so equality, repr
        # and dataclasses.replace never see them.
        object.__setattr__(self, "_edge_src", None)
        object.__setattr__(self, "_edge_src_cleanup", None)
        self._validate()

    def _validate(self) -> None:
        if self.indptr.ndim != 1 or self.indices.ndim != 1:
            raise ValueError("indptr and indices must be one-dimensional")
        if len(self.indptr) == 0:
            raise ValueError("indptr must have at least one entry")
        if self.indptr[0] != 0:
            raise ValueError(f"indptr[0] must be 0, got {self.indptr[0]}")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indptr[-1] != len(self.indices):
            raise ValueError(
                f"indptr[-1] ({self.indptr[-1]}) != len(indices) ({len(self.indices)})"
            )
        n = self.num_vertices
        if len(self.indices) and (self.indices.min() < 0 or self.indices.max() >= n):
            raise ValueError("edge destination out of range")

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return len(self.indices)

    def neighbors(self, v: int) -> np.ndarray:
        """Destinations of the out-edges of ``v`` (a CSR slice, zero-copy)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def edge_weights(self, v: int) -> np.ndarray:
        """Weights of the out-edges of ``v`` (all 1.0 when unweighted)."""
        if self.weights is None:
            return np.ones(self.out_degree(v), dtype=np.float64)
        return self.weights[self.indptr[v] : self.indptr[v + 1]]

    def out_degree(self, v: int) -> int:
        """Out-degree of vertex ``v``."""
        return int(self.indptr[v + 1] - self.indptr[v])

    def out_degrees(self) -> np.ndarray:
        """Array of out-degrees for all vertices."""
        return np.diff(self.indptr)

    def in_degrees(self) -> np.ndarray:
        """Array of in-degrees for all vertices."""
        return np.bincount(self.indices, minlength=self.num_vertices)

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Yield ``(src, dst)`` pairs in CSR order."""
        for v in range(self.num_vertices):
            for u in self.neighbors(v):
                yield v, int(u)

    def edge_array(self) -> np.ndarray:
        """Return an ``(num_edges, 2)`` array of ``(src, dst)`` pairs."""
        srcs = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.out_degrees())
        return np.column_stack([srcs, self.indices])

    def edge_sources(self) -> np.ndarray:
        """Source vertex of every CSR edge (parallel to ``indices``).

        A pure function of ``indptr``, so it is derived once per graph
        and shared by every engine built over it (a job redeploys onto
        the same graph many times).  Treat the result as read-only.  A
        memory-mapped graph, whose edge arrays may not fit in RAM twice,
        gets the array spilled to a temporary ``.npy`` instead; call
        :meth:`release` to remove it (garbage collection of the graph
        does so as a backstop).
        """
        if self._edge_src is None:
            from repro.graph.io import is_memmap_backed

            if is_memmap_backed(self.indices) and self.num_edges:
                edge_src, cleanup = _spill_edge_sources(self)
                object.__setattr__(self, "_edge_src_cleanup", cleanup)
            else:
                edge_src = np.repeat(
                    np.arange(self.num_vertices, dtype=np.int64), self.out_degrees()
                )
            object.__setattr__(self, "_edge_src", edge_src)
        return self._edge_src

    def release(self) -> None:
        """Drop the derived edge-source array and delete its on-disk
        spill, if any (idempotent; the array is re-derived on demand)."""
        object.__setattr__(self, "_edge_src", None)
        if self._edge_src_cleanup is not None:
            self._edge_src_cleanup()
            object.__setattr__(self, "_edge_src_cleanup", None)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def reversed(self) -> "Graph":
        """Return the graph with every edge direction flipped."""
        edges = self.edge_array()
        return from_edges(
            edges[:, 1],
            edges[:, 0],
            num_vertices=self.num_vertices,
            weights=self.weights,
            name=self.name,
        )

    def undirected(self) -> "Graph":
        """Return the symmetrised graph (u->v and v->u for every edge).

        Duplicate edges are merged; when the graph is weighted, merged
        parallel edges accumulate their weights (every ``u->v`` edge in
        CSR order, then every ``v->u`` one).  Self-loops are dropped,
        matching the behaviour partitioners expect.
        """
        n = self.num_vertices
        src = np.repeat(np.arange(n, dtype=np.int64), self.out_degrees())
        keep = src != self.indices
        src, dst = src[keep], self.indices[keep]
        w = self.weights[keep] if self.weights is not None else np.ones(len(src))
        keys = np.concatenate([src * n + dst, dst * n + src])
        del src, dst  # the merge holds the peak: free what it no longer needs
        indptr, indices, weights = merge_parallel_edges(keys, np.concatenate([w, w]), n)
        return Graph(indptr=indptr, indices=indices, weights=weights, name=self.name)

    def subgraph_edge_count(self, vertex_mask: np.ndarray) -> int:
        """Count edges whose endpoints are both inside ``vertex_mask``."""
        mask = np.asarray(vertex_mask, dtype=bool)
        if mask.shape != (self.num_vertices,):
            raise ValueError("vertex_mask must have one entry per vertex")
        srcs = np.repeat(mask, self.out_degrees())
        return int(np.count_nonzero(srcs & mask[self.indices]))

    # ------------------------------------------------------------------
    # Size accounting (used by the loading-time model)
    # ------------------------------------------------------------------
    def payload_bytes(self) -> int:
        """Approximate serialized size: 8 bytes per vertex id and edge entry."""
        per_edge = 8 + (8 if self.weights is not None else 0)
        return 8 * (self.num_vertices + 1) + per_edge * self.num_edges

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return (
            f"Graph({label} |V|={self.num_vertices:,} |E|={self.num_edges:,}"
            f"{' weighted' if self.weights is not None else ''})"
        )


def _spill_edge_sources(graph: Graph):
    """Write *graph*'s per-edge source ids to a temporary ``.npy``.

    Returns the memory-mapped array and a ``weakref.finalize`` bound to
    the graph that removes the directory (call it to release early).
    """
    directory = tempfile.mkdtemp(prefix="repro-edge-src-")
    cleanup = weakref.finalize(graph, shutil.rmtree, directory, ignore_errors=True)
    spill = open_memmap(
        Path(directory) / "edge_src.npy",
        mode="w+",
        dtype=np.int64,
        shape=(graph.num_edges,),
    )
    indptr = graph.indptr
    n = graph.num_vertices
    chunk = 1 << 20
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        spill[indptr[lo] : indptr[hi]] = np.repeat(
            np.arange(lo, hi, dtype=np.int64), np.diff(indptr[lo : hi + 1])
        )
    spill.flush()
    return spill, cleanup


#: Composite-key rows per ``stable_argsort`` position fill: the fill adds
#: an ``arange`` of this length at a time, never one of the full length.
_POSITION_CHUNK = 1 << 16


def stable_argsort(keys, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys in ``[0, bound)``.

    With ``m = len(keys)``, every composite ``keys[i] * m + i`` is
    distinct and orders first by key, then by position, so sorting the
    composites *values* with NumPy's default (SIMD) sort and reading each
    back modulo ``m`` gives exactly the stable permutation, several times
    faster than the stable argsort's timsort.  The composite is built in
    one array (a product, then positions added in chunks) and sorted in
    place.  When ``bound * m`` does not fit in an ``int64`` it falls back
    to the stable argsort itself.
    """
    keys = np.asarray(keys)
    m = len(keys)
    if int(bound) * m >= 2**63:
        return np.argsort(keys, kind="stable")
    composite = np.multiply(keys, m, dtype=np.int64)
    for lo in range(0, m, _POSITION_CHUNK):
        hi = min(m, lo + _POSITION_CHUNK)
        composite[lo:hi] += np.arange(lo, hi, dtype=np.int64)
    composite.sort()
    composite %= max(m, 1)
    return composite


def merge_parallel_edges(keys, weights, num_vertices: int):
    """CSR of the distinct edges among ``keys`` (``src * num_vertices +
    dst``), rows and columns ascending.

    Returns ``(indptr, indices, merged)``: ``merged`` sums each edge's
    weights in input order, because ``np.bincount`` adds its inputs in
    the order it meets them, so the floats are those of a stable sort
    followed by a sequential accumulation.
    """
    order = stable_argsort(keys, num_vertices * num_vertices)
    keys = keys[order]
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    rank = np.cumsum(first)
    rank -= 1
    group = np.empty_like(order)
    group[order] = rank
    del order, rank
    merged = np.bincount(group, weights=weights, minlength=int(first.sum()))
    keys = keys[first]
    rows = keys // num_vertices
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_vertices), out=indptr[1:])
    return indptr, keys - rows * num_vertices, merged


def from_edges(
    src,
    dst,
    *,
    num_vertices: int | None = None,
    weights=None,
    name: str = "",
    dedup: bool = False,
) -> Graph:
    """Build a :class:`Graph` from parallel source/destination arrays.

    Args:
        src, dst: integer array-likes of equal length.
        num_vertices: total vertex count; inferred as ``max(id) + 1`` when
            omitted.
        weights: optional per-edge weights, parallel to ``src``.
        name: dataset label.
        dedup: drop exact duplicate ``(src, dst)`` pairs (keeping the first
            weight) before building.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise ValueError(f"src shape {src.shape} != dst shape {dst.shape}")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != src.shape:
            raise ValueError("weights must be parallel to src/dst")
    if num_vertices is None:
        num_vertices = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1
    if len(src) and (src.min() < 0 or dst.min() < 0):
        raise ValueError("vertex ids must be non-negative")
    if len(src) and (src.max() >= num_vertices or dst.max() >= num_vertices):
        raise ValueError("vertex id exceeds num_vertices")

    order = stable_argsort(src, num_vertices)
    src, dst = src[order], dst[order]
    if weights is not None:
        weights = weights[order]
    if dedup and len(src):
        key = src * num_vertices + dst
        sort2 = stable_argsort(key, num_vertices * num_vertices)
        key_sorted = key[sort2]
        keep_sorted = np.empty(len(key), dtype=bool)
        keep_sorted[0] = True
        keep_sorted[1:] = key_sorted[1:] != key_sorted[:-1]
        keep = np.zeros(len(key), dtype=bool)
        keep[sort2[keep_sorted]] = True
        src, dst = src[keep], dst[keep]
        if weights is not None:
            weights = weights[keep]

    counts = np.bincount(src, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return Graph(indptr=indptr, indices=dst, weights=weights, name=name)


def empty_graph(num_vertices: int, name: str = "") -> Graph:
    """A graph with ``num_vertices`` vertices and no edges."""
    return Graph(
        indptr=np.zeros(num_vertices + 1, dtype=np.int64),
        indices=np.empty(0, dtype=np.int64),
        name=name,
    )
