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

from dataclasses import dataclass

import numpy as np


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
        # Derived lazily by edge_sources(); not a field, so equality, repr
        # and dataclasses.replace never see it.
        object.__setattr__(self, "_edge_src", None)
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

    def out_degrees(self) -> np.ndarray:
        """Array of out-degrees for all vertices."""
        return np.diff(self.indptr)

    def in_degrees(self) -> np.ndarray:
        """Array of in-degrees for all vertices."""
        return np.bincount(self.indices, minlength=self.num_vertices)

    def edge_sources(self) -> np.ndarray:
        """Source vertex of every CSR edge (parallel to ``indices``).

        A pure function of ``indptr``, so it is derived once per graph
        and shared by every engine built over it (a job redeploys onto
        the same graph many times).  Treat the result as read-only.  It
        is held in RAM for a memory-mapped graph too: only a full
        broadcast reads it, and partial sends never build it.
        """
        if self._edge_src is None:
            edge_src = np.repeat(
                np.arange(self.num_vertices, dtype=np.int64), self.out_degrees()
            )
            object.__setattr__(self, "_edge_src", edge_src)
        return self._edge_src

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def undirected(self) -> "Graph":
        """Return the symmetrised graph (u->v and v->u for every edge).

        Duplicate edges are merged; when the graph is weighted, merged
        parallel edges accumulate their weights (every ``u->v`` edge in
        CSR order, then every ``v->u`` one).  Self-loops are dropped,
        matching the behaviour partitioners expect.
        """
        n = self.num_vertices
        keep = np.repeat(np.arange(n, dtype=np.int64), self.out_degrees()) != self.indices
        if keep.all():
            keep = slice(None)  # no self-loop: read the edge arrays as they are
        weights = None
        if self.weights is not None:
            weights = np.concatenate([self.weights[keep]] * 2)
        indptr, indices, weights = merge_parallel_edges(
            _both_ways(*_edge_endpoints(self, keep), n), weights, n
        )
        return Graph(indptr=indptr, indices=indices, weights=weights, name=self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return (
            f"Graph({label} |V|={self.num_vertices:,} |E|={self.num_edges:,}"
            f"{' weighted' if self.weights is not None else ''})"
        )


def _edge_endpoints(graph: Graph, keep) -> tuple[np.ndarray, np.ndarray]:
    """Source and destination of every edge of *graph* selected by ``keep``."""
    src = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), graph.out_degrees())
    return src[keep], graph.indices[keep]


def _both_ways(src: np.ndarray, dst: np.ndarray, num_vertices: int) -> np.ndarray:
    """Keys ``src * n + dst`` of every edge, then ``dst * n + src`` of every
    edge, filled into one array with no second full-length temporary."""
    half = len(src)
    keys = np.empty(2 * half, dtype=np.int64)
    np.multiply(src, num_vertices, out=keys[:half])
    keys[:half] += dst
    np.multiply(dst, num_vertices, out=keys[half:])
    keys[half:] += src
    return keys


#: Composite-key rows per position fill: the fill adds an ``arange`` of
#: this length at a time, never one of the full length.
_POSITION_CHUNK = 1 << 16


def _composite(keys, out: np.ndarray) -> np.ndarray:
    """Write ``keys[i] * len(keys) + i`` into ``out`` (``keys`` itself when
    the caller owns it) and sort it in place.

    Every composite is distinct and orders first by key, then by
    position, so the sorted composites hold the stable sort of ``keys``:
    the keys are the quotients by ``len(keys)``, the permutation the
    remainders.  NumPy's default (SIMD) sort of the values is several
    times faster than a stable argsort's timsort.  The caller checks that
    ``bound * len(keys)`` fits in an ``int64``.
    """
    m = len(keys)
    np.multiply(keys, m, out=out, dtype=np.int64)
    for lo in range(0, m, _POSITION_CHUNK):
        hi = min(m, lo + _POSITION_CHUNK)
        out[lo:hi] += np.arange(lo, hi, dtype=np.int64)
    out.sort()
    return out


def _fits(bound: int, m: int) -> bool:
    """Whether composites of ``m`` keys below ``bound`` fit in an ``int64``
    (checked in Python ints)."""
    return int(bound) * m < 2**63


def stable_argsort(keys, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys in ``[0, bound)``.

    Sorts the composites ``keys[i] * len(keys) + i`` (see ``_composite``)
    and reads each back modulo ``len(keys)``.  When ``bound * len(keys)``
    does not fit in an ``int64`` it falls back to the stable argsort
    itself.
    """
    keys = np.asarray(keys)
    return _stable_order(keys, bound, np.empty(len(keys), dtype=np.int64))


def _stable_order(keys, bound: int, out: np.ndarray) -> np.ndarray:
    """``stable_argsort(keys, bound)``, built in ``out`` (``keys`` itself
    when the caller owns it) unless it falls back."""
    m = len(keys)
    if not _fits(bound, m):
        return np.argsort(keys, kind="stable")
    order = _composite(keys, out)
    order %= max(m, 1)
    return order


def _sort_with_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """Sort the ``int64`` array ``keys`` (values in ``[0, bound)``) in place
    and return the stable permutation that sorts it."""
    m = len(keys)
    if not _fits(bound, m):
        order = np.argsort(keys, kind="stable")
        keys[:] = keys[order]
        return order
    _composite(keys, keys)
    order = keys % max(m, 1)
    keys //= max(m, 1)
    return order


def _run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal sorted keys."""
    first = np.empty(len(sorted_keys), dtype=bool)
    first[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return first


def _first_occurrences(keys: np.ndarray, bound: int) -> np.ndarray:
    """Mask, in input order, of each key's first occurrence (keys in
    ``[0, bound)``)."""
    sorted_keys = keys.astype(np.int64)  # a copy: the caller's keys stay as they are
    order = _sort_with_order(sorted_keys, bound)
    first = _run_starts(sorted_keys)
    del sorted_keys
    keep = np.zeros(len(keys), dtype=bool)
    keep[order[first]] = True
    return keep


def merge_parallel_edges(keys, weights, num_vertices: int):
    """CSR of the distinct edges among ``keys`` (``src * num_vertices +
    dst``), rows and columns ascending.

    Returns ``(indptr, indices, merged)``: ``merged`` sums each edge's
    weights in input order.  ``weights=None`` weighs every edge 1.0, and
    the merge counts each edge's copies instead (``np.bincount``, then
    ``float64``: the same doubles, since every count is exact).

    The merge owns ``keys``, a writable ``int64`` array: it sorts in that
    buffer and reuses it, so callers build it inline in the call and never
    read it again; the merge frees it as soon as it is done with it.

    Given weights, the keys are sorted stably and each group's weights
    gathered in sorted order, at their own dtype, into the key buffer.
    Float weights are summed by ``np.bincount`` over ranks written into
    the permutation's buffer; it adds its inputs in the order it meets
    them, so every sum is a sequential accumulation in input order.
    Integer weights are summed exactly, at their own dtype (the caller
    guarantees that their total fits): they become running totals in
    place, and each group's sum is the difference of two, with no ranks
    and no ``float64`` copy.  The merge holds at most three arrays of
    ``len(keys)`` (keys, permutation, weights) and a mask.
    """
    counting = weights is None
    if counting:
        keys.sort()  # no weights to carry along: any sort will do
        rank = keys
    else:
        rank = _sort_with_order(keys, num_vertices * num_vertices)  # the order, for now
    first = _run_starts(keys)
    distinct = keys[first]
    if not counting:
        # Gather into the sorted keys' buffer (mode="clip" writes ``out``
        # unbuffered; every index is in range).
        weights = np.take(
            weights, rank, out=keys.view(weights.dtype)[: len(keys)], mode="clip"
        )
    del keys
    if counting or weights.dtype.kind == "f":
        # The ranks go into the order's buffer (the keys' when counting).
        rank[:] = first  # cumsum of the int64 copy runs in place; of the mask it would not
        del first
        np.cumsum(rank, out=rank)
        rank -= 1
        merged = np.bincount(rank, weights=weights, minlength=len(distinct))
        del rank
    else:
        # Running totals, read at each run's last edge, minus the
        # previous run's: exact while the total fits the dtype.
        del rank
        np.cumsum(weights, out=weights)
        merged = np.concatenate((weights[np.flatnonzero(first[1:])], weights[-1:]))
        del first
        merged[1:] -= merged[:-1]  # NumPy reads an overlapping input as a copy
    del weights
    if counting and len(merged):  # an empty bincount is int64, weighted or not
        merged = merged.astype(np.float64)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(distinct // num_vertices, minlength=num_vertices), out=indptr[1:])
    distinct %= num_vertices  # now each edge's column
    return indptr, distinct, merged


def _unique_edges(keys, num_vertices: int, name: str = "", weights=None) -> Graph:
    """The CSR of the distinct edges ``keys = src * n + dst``, each kept at
    its first occurrence (with its weight), rows in ascending source
    order and each row's edges in input order.

    The build owns ``keys``: callers pass the array they build inline in
    the call, and it is freed as soon as the distinct edges are out.
    """
    keep = _first_occurrences(keys, num_vertices * num_vertices)
    keys = keys[keep]
    if weights is not None:
        weights = weights[keep]
    del keep
    rows = keys // num_vertices
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_vertices), out=indptr[1:])
    order = _stable_order(rows, num_vertices, out=rows)
    del rows
    indices = keys[order]
    del keys
    indices %= num_vertices
    if weights is not None:
        weights = weights[order]
    return Graph(indptr=indptr, indices=indices, weights=weights, name=name)


def empty_graph(num_vertices: int, name: str = "") -> Graph:
    """A graph with ``num_vertices`` vertices and no edges."""
    return Graph(
        indptr=np.zeros(num_vertices + 1, dtype=np.int64),
        indices=np.empty(0, dtype=np.int64),
        name=name,
    )
