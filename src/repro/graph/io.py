"""Graph persistence: edge-list text, chunked blocks, and mmap CSR stores.

Three formats are supported:

* **Edge-list text** (``src dst [weight]`` per line) — the interchange
  format used by examples and for importing external graphs.
* **Chunked binary blocks** — the on-"datastore" representation the
  loaders consume.  A graph is split into fixed-count vertex-range chunks,
  mirroring how Giraph reads HDFS/S3 file blocks; micro-partition-aligned
  chunking is what enables the Micro loader's shuffle-free parallel load.
* **Memory-mapped CSR stores** — a directory of ``.npy`` arrays
  (``indptr``/``indices``/``weights``) plus a JSON manifest, loaded with
  ``np.load(mmap_mode="r")`` so the engine and loaders consume graphs
  bigger than RAM without ever materializing the edge list
  (:func:`save_csr` / :func:`load_csr`).  :func:`build_csr_on_disk`
  constructs such a store from a stream of edge batches in two passes
  (degree count, then scatter), and :func:`build_rmat_csr` wires the
  streaming RMAT generator into it for beyond-RAM synthetic graphs.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.format import open_memmap

from repro.graph.graph import Graph, from_edges, stable_argsort

_MAGIC = b"RPRG"
_VERSION = 1


def write_edge_list(graph: Graph, path) -> None:
    """Write ``src dst [weight]`` lines to *path*."""
    path = Path(path)
    with path.open("w") as fh:
        if graph.weights is None:
            for src, dst in graph.iter_edges():
                fh.write(f"{src} {dst}\n")
        else:
            edges = graph.edge_array()
            for (src, dst), w in zip(edges, graph.weights):
                fh.write(f"{src} {dst} {w:g}\n")


def read_edge_list(path, num_vertices: int | None = None, name: str = "") -> Graph:
    """Parse an edge-list file written by :func:`write_edge_list`.

    Lines starting with ``#`` and blank lines are skipped.  A third column,
    when present on every edge line, is parsed as the edge weight.
    """
    src_list: list[int] = []
    dst_list: list[int] = []
    weights: list[float] = []
    weighted: bool | None = None
    path = Path(path)
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ValueError(f"{path}:{lineno}: expected 2 or 3 columns, got {len(parts)}")
            is_weighted = len(parts) == 3
            if weighted is None:
                weighted = is_weighted
            elif weighted != is_weighted:
                raise ValueError(f"{path}:{lineno}: inconsistent column count")
            src_list.append(int(parts[0]))
            dst_list.append(int(parts[1]))
            if is_weighted:
                weights.append(float(parts[2]))
    return from_edges(
        src_list,
        dst_list,
        num_vertices=num_vertices,
        weights=np.asarray(weights) if weighted else None,
        name=name or path.stem,
    )


def write_adjacency(graph: Graph, path) -> None:
    """Write the Giraph-style adjacency text format.

    One line per vertex: ``vertex_id neighbor1 neighbor2 ...`` (for
    weighted graphs, ``neighbor:weight`` pairs).  Vertices without
    out-edges still get a line, so the vertex set round-trips.
    """
    path = Path(path)
    with path.open("w") as fh:
        for v in range(graph.num_vertices):
            neighbors = graph.neighbors(v)
            if graph.weights is None:
                tail = " ".join(str(int(u)) for u in neighbors)
            else:
                weights = graph.edge_weights(v)
                tail = " ".join(
                    f"{int(u)}:{w:g}" for u, w in zip(neighbors, weights)
                )
            fh.write(f"{v} {tail}".rstrip() + "\n")


def read_adjacency(path, name: str = "") -> Graph:
    """Parse the adjacency format written by :func:`write_adjacency`.

    Vertex ids may appear in any order; missing ids up to the maximum
    seen are treated as isolated vertices.
    """
    path = Path(path)
    src_list: list[int] = []
    dst_list: list[int] = []
    weights: list[float] = []
    weighted: bool | None = None
    max_vertex = -1
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            v = int(parts[0])
            max_vertex = max(max_vertex, v)
            for token in parts[1:]:
                if ":" in token:
                    is_weighted = True
                    dst_text, weight_text = token.split(":", 1)
                else:
                    is_weighted = False
                    dst_text, weight_text = token, None
                if weighted is None:
                    weighted = is_weighted
                elif weighted != is_weighted:
                    raise ValueError(f"{path}:{lineno}: mixed weighted/unweighted")
                dst = int(dst_text)
                max_vertex = max(max_vertex, dst)
                src_list.append(v)
                dst_list.append(dst)
                if is_weighted:
                    weights.append(float(weight_text))
    if max_vertex < 0:
        raise ValueError(f"{path}: no vertices found")
    return from_edges(
        src_list,
        dst_list,
        num_vertices=max_vertex + 1,
        weights=np.asarray(weights) if weighted else None,
        name=name or path.stem,
    )


# ----------------------------------------------------------------------
# Chunked binary representation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GraphChunk:
    """A contiguous vertex range of a graph, with its out-edges.

    ``vertex_start`` is inclusive, ``vertex_stop`` exclusive.  The chunk
    owns the CSR rows of exactly those vertices.
    """

    vertex_start: int
    vertex_stop: int
    indptr: np.ndarray  # local indptr, length (stop - start + 1), starts at 0
    indices: np.ndarray
    weights: np.ndarray | None = None

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return self.vertex_stop - self.vertex_start

    @property
    def num_edges(self) -> int:
        """Number of edges."""
        return len(self.indices)

    def payload_bytes(self) -> int:
        """Serialized size estimate used by the loading-time model."""
        per_edge = 8 + (8 if self.weights is not None else 0)
        return 8 * (self.num_vertices + 1) + per_edge * self.num_edges + 32

    def to_bytes(self) -> bytes:
        """Serialize the chunk (header + raw little-endian arrays)."""
        has_w = self.weights is not None
        header = struct.pack(
            "<4sBBqqq",
            _MAGIC,
            _VERSION,
            1 if has_w else 0,
            self.vertex_start,
            self.vertex_stop,
            self.num_edges,
        )
        buf = io.BytesIO()
        buf.write(header)
        buf.write(self.indptr.astype("<i8").tobytes())
        buf.write(self.indices.astype("<i8").tobytes())
        if has_w:
            buf.write(self.weights.astype("<f8").tobytes())
        return buf.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "GraphChunk":
        """Deserialize a chunk produced by :meth:`to_bytes`."""
        head_size = struct.calcsize("<4sBBqqq")
        magic, version, has_w, start, stop, num_edges = struct.unpack(
            "<4sBBqqq", data[:head_size]
        )
        if magic != _MAGIC:
            raise ValueError("not a graph chunk (bad magic)")
        if version != _VERSION:
            raise ValueError(f"unsupported chunk version {version}")
        n = stop - start
        offset = head_size
        indptr = np.frombuffer(data, dtype="<i8", count=n + 1, offset=offset).astype(np.int64)
        offset += 8 * (n + 1)
        indices = np.frombuffer(data, dtype="<i8", count=num_edges, offset=offset).astype(np.int64)
        offset += 8 * num_edges
        weights = None
        if has_w:
            weights = np.frombuffer(data, dtype="<f8", count=num_edges, offset=offset).astype(
                np.float64
            )
        return cls(
            vertex_start=start, vertex_stop=stop, indptr=indptr, indices=indices, weights=weights
        )


def split_into_chunks(graph: Graph, num_chunks: int) -> list[GraphChunk]:
    """Split a graph into ``num_chunks`` contiguous vertex-range chunks.

    Boundaries are chosen so chunks carry roughly equal numbers of edges
    (file blocks are size-balanced, not vertex-balanced).
    """
    if num_chunks < 1:
        raise ValueError("num_chunks must be >= 1")
    n = graph.num_vertices
    num_chunks = min(num_chunks, max(1, n))
    # Edge-balanced boundaries via the cumulative edge counts in indptr.
    targets = np.linspace(0, graph.num_edges, num_chunks + 1)
    bounds = np.searchsorted(graph.indptr, targets, side="left")
    bounds[0], bounds[-1] = 0, n
    bounds = np.maximum.accumulate(bounds)
    chunks = []
    for i in range(num_chunks):
        start, stop = int(bounds[i]), int(bounds[i + 1])
        e0, e1 = int(graph.indptr[start]), int(graph.indptr[stop])
        chunks.append(
            GraphChunk(
                vertex_start=start,
                vertex_stop=stop,
                indptr=(graph.indptr[start : stop + 1] - e0).copy(),
                indices=graph.indices[e0:e1].copy(),
                weights=None if graph.weights is None else graph.weights[e0:e1].copy(),
            )
        )
    return chunks


def assemble_chunks(chunks: Sequence[GraphChunk], name: str = "") -> Graph:
    """Reassemble a full graph from a complete, ordered set of chunks."""
    if not chunks:
        raise ValueError("need at least one chunk")
    ordered = sorted(chunks, key=lambda ch: ch.vertex_start)
    expected = 0
    for ch in ordered:
        if ch.vertex_start != expected:
            raise ValueError(
                f"chunk gap/overlap: expected vertex_start={expected}, got {ch.vertex_start}"
            )
        expected = ch.vertex_stop
    n = expected
    total_edges = sum(ch.num_edges for ch in ordered)
    indptr = np.zeros(n + 1, dtype=np.int64)
    indices = np.empty(total_edges, dtype=np.int64)
    weighted = ordered[0].weights is not None
    weights = np.empty(total_edges, dtype=np.float64) if weighted else None
    edge_offset = 0
    for ch in ordered:
        if (ch.weights is not None) != weighted:
            raise ValueError("chunks disagree about weightedness")
        indptr[ch.vertex_start + 1 : ch.vertex_stop + 1] = ch.indptr[1:] + edge_offset
        indices[edge_offset : edge_offset + ch.num_edges] = ch.indices
        if weighted:
            weights[edge_offset : edge_offset + ch.num_edges] = ch.weights
        edge_offset += ch.num_edges
    return Graph(indptr=indptr, indices=indices, weights=weights, name=name)


# ----------------------------------------------------------------------
# Memory-mapped CSR stores (out-of-core graphs)
# ----------------------------------------------------------------------
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


def save_csr(graph: Graph, directory) -> Path:
    """Persist *graph* as a directory of ``.npy`` arrays plus a manifest.

    The store round-trips through :func:`load_csr`, which can map the
    arrays straight from disk.  Returns the store directory.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    np.save(directory / "indptr.npy", graph.indptr)
    np.save(directory / "indices.npy", graph.indices)
    if graph.weights is not None:
        np.save(directory / "weights.npy", graph.weights)
    manifest = {
        "format": _CSR_STORE_FORMAT,
        "name": graph.name,
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "weighted": graph.weights is not None,
    }
    (directory / CSR_META_FILENAME).write_text(json.dumps(manifest, indent=2))
    return directory


def load_csr(directory, mmap: bool = True) -> Graph:
    """Open a CSR store written by :func:`save_csr` / :func:`build_csr_on_disk`.

    With ``mmap=True`` (default) the arrays are memory-mapped read-only:
    construction touches each array once for validation, but the edge
    list is never materialized in RAM — supersteps page in only what
    they read.  ``mmap=False`` loads everything into memory.
    """
    directory = Path(directory)
    manifest = json.loads((directory / CSR_META_FILENAME).read_text())
    if manifest["format"] != _CSR_STORE_FORMAT:
        raise ValueError(f"unsupported CSR store format {manifest['format']}")
    mmap_mode = "r" if mmap else None
    indptr = np.load(directory / "indptr.npy", mmap_mode=mmap_mode)
    indices = np.load(directory / "indices.npy", mmap_mode=mmap_mode)
    weights = None
    if manifest["weighted"]:
        weights = np.load(directory / "weights.npy", mmap_mode=mmap_mode)
    graph = Graph(
        indptr=indptr, indices=indices, weights=weights, name=manifest["name"]
    )
    if graph.num_vertices != manifest["num_vertices"] or graph.num_edges != manifest[
        "num_edges"
    ]:
        raise ValueError(
            f"CSR store {directory} arrays disagree with its manifest "
            f"({graph.num_vertices}x{graph.num_edges} vs "
            f"{manifest['num_vertices']}x{manifest['num_edges']})"
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
