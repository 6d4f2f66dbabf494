"""Graph loading strategies and their timing model (paper §6.1, Fig 6).

Three loaders, mirroring the paper's measurement:

* **StreamLoader** — a single master machine reads and parses the entire
  (text) dataset, then assigns vertices; models stream-based partitioners
  with centralized loading logic.  Time grows linearly with dataset size
  regardless of the deployment.
* **HashLoader** — all workers read and parse text chunks in parallel,
  then shuffle every entity to its hash owner over the network.  Parallel
  read, but an all-to-all exchange of ~``(1 - 1/w)`` of the graph.
* **MicroLoader** — Hourglass's fast reload: workers read only their own
  *pre-partitioned binary* micro-partition chunks.  Fully parallel,
  no network exchange, no text parsing, and valid for **any** worker
  count thanks to the micro-partition clustering (parallel recovery).

Each loader both (a) functionally produces the partitioning/per-worker
ownership used by the engine and (b) reports a *simulated* loading time
from :class:`LoadTimingModel`.  The timing model is driven by dataset
byte counts so experiments can evaluate paper-scale datasets while
functionally loading repro-scale graphs.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from repro.engine.datastore import DataStore
from repro.graph.graph import Graph
from repro.graph.io import csr_nbytes, is_memmap_backed
from repro.partitioning.base import Partitioning
from repro.partitioning.hashing import HashPartitioner
from repro.partitioning.micro import MicroPartitioning
from repro.utils.units import MiB
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class LoadTimingModel:
    """Constants behind the loading-time estimates.

    Defaults approximate the paper's EC2/S3 environment: ~100 MiB/s
    single-stream storage reads, text parsing as the CPU bottleneck, and
    a shared 1 GbE-class network per machine for shuffles.

    Attributes:
        read_bandwidth: per-machine storage read throughput (bytes/s).
        parse_rate: per-machine text parse throughput (bytes/s).
        network_bandwidth: per-machine network throughput (bytes/s).
        per_edge_shuffle_cpu: CPU seconds per shuffled edge
            (serialize + deserialize + object churn).
        text_bytes_per_edge: average edge-list text footprint.
        binary_bytes_per_edge: binary CSR footprint per edge.
        fixed_overhead: constant per-load coordination cost (seconds).
    """

    read_bandwidth: float = 100 * MiB
    parse_rate: float = 12 * MiB
    network_bandwidth: float = 120 * MiB
    per_edge_shuffle_cpu: float = 500e-9
    text_bytes_per_edge: float = 15.0
    binary_bytes_per_edge: float = 8.0
    fixed_overhead: float = 2.0

    def text_bytes(self, num_edges: int, num_vertices: int) -> float:
        """Edge-list text size of a dataset."""
        return self.text_bytes_per_edge * num_edges

    def binary_bytes(self, num_edges: int, num_vertices: int) -> float:
        """Binary CSR size of a dataset."""
        return self.binary_bytes_per_edge * num_edges + 8.0 * (num_vertices + 1)

    # -- per-strategy estimates ----------------------------------------
    def stream_time(self, num_edges: int, num_vertices: int, num_workers: int) -> float:
        """Single-master read + parse of the whole text dataset."""
        self._check(num_workers)
        text = self.text_bytes(num_edges, num_vertices)
        return self.fixed_overhead + text / self.read_bandwidth + text / self.parse_rate

    def hash_time(self, num_edges: int, num_vertices: int, num_workers: int) -> float:
        """Parallel read/parse plus the all-to-all shuffle."""
        self._check(num_workers)
        w = num_workers
        text = self.text_bytes(num_edges, num_vertices)
        read = text / (w * self.read_bandwidth)
        parse = text / (w * self.parse_rate)
        moved_edges = num_edges * (1.0 - 1.0 / w)
        moved_bytes = moved_edges * self.binary_bytes_per_edge
        # Each machine both sends and receives its share of the shuffle.
        network = 2.0 * moved_bytes / (w * self.network_bandwidth)
        shuffle_cpu = moved_edges * self.per_edge_shuffle_cpu / w
        return self.fixed_overhead + read + parse + network + shuffle_cpu

    def micro_time(self, num_edges: int, num_vertices: int, num_workers: int) -> float:
        """Parallel, shuffle-free read of pre-partitioned binary chunks."""
        self._check(num_workers)
        w = num_workers
        binary = self.binary_bytes(num_edges, num_vertices)
        return self.fixed_overhead + binary / (w * self.read_bandwidth)

    def micro_time_bytes(self, nbytes: float, num_workers: int) -> float:
        """Parallel binary read of an on-disk CSR of *known* byte size.

        Used for memory-mapped CSR stores, where the true footprint is
        available instead of the per-edge estimate.
        """
        self._check(num_workers)
        return self.fixed_overhead + nbytes / (num_workers * self.read_bandwidth)

    def estimate(self, strategy: str, num_edges: int, num_vertices: int, num_workers: int) -> float:
        """Dispatch by strategy name ('stream' | 'hash' | 'micro')."""
        table = {
            "stream": self.stream_time,
            "hash": self.hash_time,
            "micro": self.micro_time,
        }
        if strategy not in table:
            raise ValueError(f"unknown load strategy {strategy!r}; options: {sorted(table)}")
        return table[strategy](num_edges, num_vertices, num_workers)

    @staticmethod
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


class StreamLoader:
    """Centralized loading: one machine streams the whole dataset.

    The partitioner (e.g. FENNEL) runs on the master as data streams in;
    per the paper's measurement we report only the loading time, not the
    partitioning compute time.
    """

    name = "stream"

    def __init__(self, partitioner, timing: LoadTimingModel | None = None):
        self.partitioner = partitioner
        self.timing = timing or LoadTimingModel()

    def load(
        self, graph: Graph, num_workers: int, seed=None,
        size_override: tuple[int, int] | None = None,
    ) -> LoadResult:
        """Load *graph* for *num_workers* machines.

        ``size_override = (num_edges, num_vertices)`` makes the timing
        model price a different (e.g. paper-scale) dataset size.
        """
        partitioning = self.partitioner.partition(graph, num_workers, seed=seed)
        e, n = size_override or (graph.num_edges, graph.num_vertices)
        return LoadResult(
            partitioning=partitioning,
            simulated_seconds=self.timing.stream_time(e, n, num_workers),
            strategy=self.name,
            num_workers=num_workers,
        )


class HashLoader:
    """Parallel text load with an all-to-all shuffle to hash owners."""

    name = "hash"

    def __init__(self, timing: LoadTimingModel | None = None):
        self.timing = timing or LoadTimingModel()

    def load(
        self, graph: Graph, num_workers: int, seed=None,
        size_override: tuple[int, int] | None = None,
    ) -> LoadResult:
        """Load *graph* for *num_workers* machines (see class docstring)."""
        partitioning = HashPartitioner().partition(graph, num_workers)
        e, n = size_override or (graph.num_edges, graph.num_vertices)
        return LoadResult(
            partitioning=partitioning,
            simulated_seconds=self.timing.hash_time(e, n, num_workers),
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

    def __init__(self, artefact: MicroPartitioning, timing: LoadTimingModel | None = None):
        self.artefact = artefact
        self.timing = timing or LoadTimingModel()
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
            simulated = self.timing.micro_time_bytes(csr_nbytes(graph), num_workers)
        else:
            e, n = size_override or (graph.num_edges, graph.num_vertices)
            simulated = self.timing.micro_time(e, n, num_workers)
        return LoadResult(
            partitioning=partitioning,
            simulated_seconds=simulated,
            strategy=self.name,
            num_workers=num_workers,
        )
