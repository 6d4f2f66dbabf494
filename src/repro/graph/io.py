"""Memory-mapped CSR stores: graphs bigger than RAM.

A store is a directory of ``.npy`` arrays (``indptr``/``indices``/
``weights``) plus a JSON manifest, loaded with ``np.load(mmap_mode="r")``
so the engine and loaders consume graphs bigger than RAM without ever
materializing the edge list (:func:`load_csr`).  :func:`build_csr_on_disk`
constructs a store from a stream of edge batches in two passes (degree
count, then scatter).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterable

import numpy as np
from numpy.lib.format import open_memmap

from repro.graph.graph import Graph, stable_argsort

#: Manifest filename inside a CSR store directory.
CSR_META_FILENAME = "csr-meta.json"
_CSR_STORE_FORMAT = 1


def is_memmap_backed(array) -> bool:
    """Whether *array* (or any array up its ``.base`` chain) is an
    ``np.memmap`` — i.e. reads page from disk rather than RAM."""
    seen = 0
    while isinstance(array, np.ndarray) and seen < 32:
        if isinstance(array, np.memmap):
            return True
        array = array.base
        seen += 1
    return False


def csr_nbytes(graph: Graph) -> int:
    """Byte footprint of a graph's CSR arrays (= its on-disk store size)."""
    total = graph.indptr.nbytes + graph.indices.nbytes
    if graph.weights is not None:
        total += graph.weights.nbytes
    return int(total)


def load_csr(directory, mmap: bool = True) -> Graph:
    """Open a CSR store written by :func:`build_csr_on_disk`.

    With ``mmap=True`` (default) the arrays are memory-mapped read-only:
    construction touches each array once for validation, but the edge
    list is never materialized in RAM — supersteps page in only what
    they read.  ``mmap=False`` loads everything into memory.  A store
    with a bad manifest or a truncated array raises one ``ValueError``
    naming the store directory.
    """
    directory = Path(directory)
    try:
        manifest = json.loads((directory / CSR_META_FILENAME).read_text())
        if manifest["format"] != _CSR_STORE_FORMAT:
            raise ValueError(f"unsupported CSR store format {manifest['format']}")
        mmap_mode = "r" if mmap else None
        indptr = np.load(directory / "indptr.npy", mmap_mode=mmap_mode)
        indices = np.load(directory / "indices.npy", mmap_mode=mmap_mode)
        weights = None
        if manifest["weighted"]:
            weights = np.load(directory / "weights.npy", mmap_mode=mmap_mode)
        graph = Graph(indptr=indptr, indices=indices, weights=weights, name=manifest["name"])
        stored = (manifest["num_vertices"], manifest["num_edges"])
    except KeyError as exc:
        raise ValueError(f"CSR store {directory}: manifest has no {exc} key") from exc
    except ValueError as exc:
        raise ValueError(f"CSR store {directory}: {exc}") from exc
    if (graph.num_vertices, graph.num_edges) != stored:
        raise ValueError(
            f"CSR store {directory} arrays disagree with its manifest "
            f"({graph.num_vertices}x{graph.num_edges} vs {stored[0]}x{stored[1]})"
        )
    return graph


def build_csr_on_disk(
    edge_batches: Callable[[], Iterable],
    num_vertices: int,
    directory,
    name: str = "",
    mmap: bool = True,
) -> Graph:
    """Construct a CSR store from a stream of edge batches, out of core.

    ``edge_batches`` is a zero-argument callable returning an iterator of
    ``(src, dst)`` or ``(src, dst, weights)`` array batches; it is called
    twice (the classic two-pass build): pass 1 counts out-degrees to lay
    out ``indptr``, pass 2 regenerates the batches and scatters each one
    into the on-disk ``indices``/``weights`` arrays at per-vertex write
    cursors.  Peak memory is O(num_vertices + batch) regardless of the
    edge count.  Neighbor lists preserve batch order per source vertex.

    Returns the built graph, opened via :func:`load_csr` with *mmap*.
    """
    if num_vertices < 1:
        raise ValueError("num_vertices must be >= 1")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    # Pass 1: out-degree histogram -> indptr.
    degrees = np.zeros(num_vertices, dtype=np.int64)
    weighted: bool | None = None
    for batch in edge_batches():
        src, _, w = _checked_batch(batch, num_vertices, weighted)
        weighted = w is not None
        if len(src):
            degrees += np.bincount(src, minlength=num_vertices)
    weighted = bool(weighted)
    num_edges = int(degrees.sum())

    indptr = open_memmap(
        directory / "indptr.npy", mode="w+", dtype=np.int64, shape=(num_vertices + 1,)
    )
    indptr[0] = 0
    np.cumsum(degrees, out=indptr[1:])
    indices = open_memmap(
        directory / "indices.npy", mode="w+", dtype=np.int64, shape=(num_edges,)
    )
    weights = None
    if weighted:
        weights = open_memmap(
            directory / "weights.npy", mode="w+", dtype=np.float64, shape=(num_edges,)
        )

    # Pass 2: scatter each batch at the per-vertex write cursors.  The
    # batches must repeat pass 1's: a vertex whose edges outrun its slot
    # would write into the next vertex's.
    cursors = indptr[:-1].copy()  # O(num_vertices) RAM
    changed = None
    for batch in edge_batches():
        try:
            src, dst, w = _checked_batch(batch, num_vertices, weighted)
        except ValueError as exc:
            changed = exc
            break
        if len(src) == 0:
            continue
        order = stable_argsort(src, num_vertices)
        src_sorted = src[order]
        run_starts = np.flatnonzero(
            np.concatenate(([True], src_sorted[1:] != src_sorted[:-1]))
        )
        run_lengths = np.diff(np.append(run_starts, len(src_sorted)))
        sources = src_sorted[run_starts]
        ends = cursors[sources] + run_lengths
        if (ends > indptr[1:][sources]).any():
            changed = "a vertex has more edges"
            break
        ranks = np.arange(len(src_sorted)) - np.repeat(run_starts, run_lengths)
        positions = cursors[src_sorted] + ranks
        indices[positions] = dst[order]
        if weighted:
            weights[positions] = w[order]
        cursors[sources] = ends
    if changed is None and not np.array_equal(cursors, indptr[1:]):
        changed = "a vertex has fewer edges"
    if changed is not None:
        raise ValueError(
            f"CSR store {directory}: pass 2's edge batches differ from pass 1's: {changed}"
        )
    indptr.flush()
    indices.flush()
    if weighted:
        weights.flush()
    del indptr, indices, weights

    manifest = {
        "format": _CSR_STORE_FORMAT,
        "name": name,
        "num_vertices": num_vertices,
        "num_edges": num_edges,
        "weighted": weighted,
    }
    (directory / CSR_META_FILENAME).write_text(json.dumps(manifest, indent=2))
    return load_csr(directory, mmap=mmap)


def _checked_batch(batch, num_vertices: int, weighted: bool | None):
    """``(src, dst, weights or None)`` of one edge batch, checked: parallel
    arrays, ids in range, and weighted as the batches before it
    (``weighted=None`` for the first)."""
    src, dst = np.asarray(batch[0]), np.asarray(batch[1])
    w = np.asarray(batch[2]) if len(batch) > 2 and batch[2] is not None else None
    if weighted is not None and weighted != (w is not None):
        raise ValueError("edge batches disagree about weightedness")
    if len(src) != len(dst) or (w is not None and len(w) != len(src)):
        raise ValueError("src, dst and weight batches must be parallel")
    if len(src) and (src.min() < 0 or src.max() >= num_vertices):
        raise ValueError("edge source out of range")
    if len(dst) and (dst.min() < 0 or dst.max() >= num_vertices):
        raise ValueError("edge destination out of range")
    return src, dst, w
