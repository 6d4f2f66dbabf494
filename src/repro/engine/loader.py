"""Graph loading strategies and their timing model (paper §6.1, Fig 6).

Three loading strategies, mirroring the paper's measurement:

* **stream** (timing only, :func:`stream_time`) — a
  single master machine reads and parses the entire (text) dataset, then
  assigns vertices; models stream-based partitioners with centralized
  loading logic.  Time grows linearly with dataset size regardless of
  the deployment.
* **HashLoader** — all workers read and parse text chunks in parallel,
  then shuffle every entity to its hash owner over the network.  Parallel
  read, but an all-to-all exchange of ~``(1 - 1/w)`` of the graph.
* **MicroLoader** — Hourglass's fast reload: workers read only their own
  *pre-partitioned binary* micro-partition chunks.  Fully parallel,
  no network exchange, no text parsing, and valid for **any** worker
  count thanks to the micro-partition clustering (parallel recovery).

Each loader class both (a) functionally produces the partitioning/per-worker
ownership used by the engine and (b) reports a *simulated* loading time
from the module's timing functions.  They are driven by dataset byte
counts so experiments can evaluate paper-scale datasets while
functionally loading repro-scale graphs.  The constants approximate the
paper's EC2/S3 environment: single-stream storage reads at the store's
:data:`~repro.engine.datastore.STORE_BANDWIDTH`, text parsing as the CPU
bottleneck, and a 1 GbE-class network per machine for shuffles.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

from repro.engine.datastore import STORE_BANDWIDTH
from repro.graph.graph import Graph
from repro.graph.io import csr_nbytes, is_memmap_backed
from repro.partitioning.base import Partitioning
from repro.partitioning.hashing import HashPartitioner
from repro.partitioning.micro import MicroPartitioning
from repro.utils.units import MiB

#: Per-machine text parse throughput (bytes/s): the CPU bottleneck of a
#: text load.
PARSE_RATE = 12 * MiB
#: Per-machine network throughput for shuffles (bytes/s), 1 GbE class.
NETWORK_BANDWIDTH = 120 * MiB
#: CPU seconds per shuffled edge (serialize + deserialize + object churn).
PER_EDGE_SHUFFLE_CPU = 500e-9
#: Average edge-list text footprint per edge (bytes).
TEXT_BYTES_PER_EDGE = 15.0
#: Binary CSR footprint per edge (bytes).
BINARY_BYTES_PER_EDGE = 8.0
#: Constant per-load coordination cost (seconds).
LOAD_OVERHEAD = 2.0


def text_bytes(num_edges: int) -> float:
    """Edge-list text size of a dataset."""
    return TEXT_BYTES_PER_EDGE * num_edges


def binary_bytes(num_edges: int, num_vertices: int) -> float:
    """Binary CSR size of a dataset."""
    return BINARY_BYTES_PER_EDGE * num_edges + 8.0 * (num_vertices + 1)


def stream_time(num_edges: int, num_vertices: int, num_workers: int) -> float:
    """Single-master read + parse of the whole text dataset."""
    _check(num_workers)
    text = text_bytes(num_edges)
    return LOAD_OVERHEAD + text / STORE_BANDWIDTH + text / PARSE_RATE


def hash_time(num_edges: int, num_vertices: int, num_workers: int) -> float:
    """Parallel read/parse plus the all-to-all shuffle."""
    _check(num_workers)
    w = num_workers
    text = text_bytes(num_edges)
    read = text / (w * STORE_BANDWIDTH)
    parse = text / (w * PARSE_RATE)
    moved_edges = num_edges * (1.0 - 1.0 / w)
    moved_bytes = moved_edges * BINARY_BYTES_PER_EDGE
    # Each machine both sends and receives its share of the shuffle.
    network = 2.0 * moved_bytes / (w * NETWORK_BANDWIDTH)
    shuffle_cpu = moved_edges * PER_EDGE_SHUFFLE_CPU / w
    return LOAD_OVERHEAD + read + parse + network + shuffle_cpu


def micro_time(num_edges: int, num_vertices: int, num_workers: int) -> float:
    """Parallel, shuffle-free read of pre-partitioned binary chunks."""
    return micro_time_bytes(binary_bytes(num_edges, num_vertices), num_workers)


def micro_time_bytes(nbytes: float, num_workers: int) -> float:
    """Parallel binary read of *nbytes* of CSR.

    Memory-mapped CSR stores are priced by their true on-disk footprint
    through this directly, instead of by the per-edge estimate.
    """
    _check(num_workers)
    return LOAD_OVERHEAD + nbytes / (num_workers * STORE_BANDWIDTH)


_STRATEGIES = {"stream": stream_time, "hash": hash_time, "micro": micro_time}


def estimate(strategy: str, num_edges: int, num_vertices: int, num_workers: int) -> float:
    """Loading time by strategy name ('stream' | 'hash' | 'micro')."""
    if strategy not in _STRATEGIES:
        raise ValueError(
            f"unknown load strategy {strategy!r}; options: {sorted(_STRATEGIES)}"
        )
    return _STRATEGIES[strategy](num_edges, num_vertices, num_workers)


def _check(num_workers: int) -> None:
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")


@dataclass(frozen=True)
class LoadResult:
    """Outcome of a load: ownership plus the simulated cost."""

    partitioning: Partitioning
    simulated_seconds: float
    strategy: str
    num_workers: int
    shuffled_edges: int = 0


class HashLoader:
    """Parallel text load with an all-to-all shuffle to hash owners."""

    name = "hash"

    def load(
        self, graph: Graph, num_workers: int, seed=None,
        size_override: tuple[int, int] | None = None,
    ) -> LoadResult:
        """Load *graph* for *num_workers* machines (see class docstring)."""
        partitioning = HashPartitioner().partition(graph, num_workers)
        e, n = size_override or (graph.num_edges, graph.num_vertices)
        return LoadResult(
            partitioning=partitioning,
            simulated_seconds=hash_time(e, n, num_workers),
            strategy=self.name,
            num_workers=num_workers,
            shuffled_edges=int(e * (1.0 - 1.0 / num_workers)),
        )


class MicroLoader:
    """Hourglass's fast reload from micro-partition binary chunks.

    Requires the offline :class:`MicroPartitioning` artefact; the online
    clustering step adapts it to any worker count in milliseconds.

    A clustering is a pure function of ``(artefact, num_workers, seed)``
    for an integer seed, and §6.2 fixes the candidate worker counts up
    front (the micro-partition count is their LCM), so a job battered by
    evictions keeps coming back to the same handful of counts: each is
    clustered once and kept, read-only.  ``seed=None`` (fresh entropy)
    and ``Generator`` seeds (a consumed stream) cluster every time.
    """

    name = "micro"

    def __init__(self, artefact: MicroPartitioning):
        self.artefact = artefact
        self._clusterings: dict[tuple[int, int], Partitioning] = {}

    def _cluster(self, num_workers: int, seed) -> Partitioning:
        if not isinstance(seed, numbers.Integral):
            return self.artefact.cluster(num_workers, seed=seed)
        key = (num_workers, int(seed))
        partitioning = self._clusterings.get(key)
        if partitioning is None:
            partitioning = self.artefact.cluster(num_workers, seed=seed)
            # Shared by every later load: a caller must not edit it.
            partitioning.assignment.setflags(write=False)
            self._clusterings[key] = partitioning
        return partitioning

    def load(
        self, graph: Graph, num_workers: int, seed=None,
        size_override: tuple[int, int] | None = None,
    ) -> LoadResult:
        """Load *graph* for *num_workers* machines (see class docstring).

        A memory-mapped CSR graph (``repro.graph.io.load_csr``) is never
        materialized here — clustering works on the micro-partition
        quotient graph — and is priced by its true on-disk footprint.
        """
        partitioning = self._cluster(num_workers, seed)
        if size_override is None and is_memmap_backed(graph.indices):
            simulated = micro_time_bytes(csr_nbytes(graph), num_workers)
        else:
            e, n = size_override or (graph.num_edges, graph.num_vertices)
            simulated = micro_time(e, n, num_workers)
        return LoadResult(
            partitioning=partitioning,
            simulated_seconds=simulated,
            strategy=self.name,
            num_workers=num_workers,
        )
