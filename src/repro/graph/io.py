"""Memory-mapped CSR stores: graphs bigger than RAM.

A store is a directory of ``.npy`` arrays (``indptr``/``indices``/
``weights``) plus a JSON manifest, loaded with ``np.load(mmap_mode="r")``
so the engine and loaders consume graphs bigger than RAM without ever
materializing the edge list (:func:`load_csr`).  :func:`build_csr_on_disk`
constructs a store from a stream of edge batches in two passes (degree
count, then scatter), and :func:`build_rmat_csr` wires the streaming RMAT
generator into it for beyond-RAM synthetic graphs.
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
        src, dst = np.asarray(batch[0]), np.asarray(batch[1])
        has_w = len(batch) > 2 and batch[2] is not None
        if weighted is None:
            weighted = has_w
        elif weighted != has_w:
            raise ValueError("edge batches disagree about weightedness")
        if len(src) != len(dst):
            raise ValueError("src and dst batches must be parallel")
        if len(src) == 0:
            continue
        if src.min() < 0 or src.max() >= num_vertices:
            raise ValueError("edge source out of range")
        if dst.min() < 0 or dst.max() >= num_vertices:
            raise ValueError("edge destination out of range")
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

    # Pass 2: scatter each batch at the per-vertex write cursors.
    cursors = indptr[:-1].copy()  # O(num_vertices) RAM
    for batch in edge_batches():
        src, dst = np.asarray(batch[0]), np.asarray(batch[1])
        if len(src) == 0:
            continue
        order = stable_argsort(src, num_vertices)
        src_sorted = src[order]
        run_starts = np.flatnonzero(
            np.concatenate(([True], src_sorted[1:] != src_sorted[:-1]))
        )
        run_lengths = np.diff(np.append(run_starts, len(src_sorted)))
        ranks = np.arange(len(src_sorted)) - np.repeat(run_starts, run_lengths)
        positions = cursors[src_sorted] + ranks
        indices[positions] = dst[order]
        if weighted:
            weights[positions] = np.asarray(batch[2])[order]
        cursors[src_sorted[run_starts]] += run_lengths
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


def build_rmat_csr(
    scale: int,
    directory,
    edge_factor: int = 16,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed=None,
    batch_edges: int = 1 << 20,
    name: str | None = None,
    mmap: bool = True,
) -> Graph:
    """Stream an RMAT graph straight into an on-disk CSR store.

    Combines :func:`repro.graph.generators.rmat_edge_batches` (which
    regenerates identical batches on each pass) with
    :func:`build_csr_on_disk`, so graphs beyond RAM — the paper's
    RMAT-24..26 scales — can be generated and processed on one machine.
    """
    from repro.graph.generators import rmat_edge_batches

    def batches():
        return rmat_edge_batches(
            scale,
            edge_factor=edge_factor,
            a=a,
            b=b,
            c=c,
            seed=seed,
            batch_edges=batch_edges,
        )

    return build_csr_on_disk(
        batches,
        num_vertices=1 << scale,
        directory=directory,
        name=name or f"rmat-stream-{scale}",
        mmap=mmap,
    )
