"""``prepare_recover`` — the §6 fast-reload path in wall-clock time.

Closed loop, no DP anywhere and next to no superstep compute:

* *prepare*: stream the graph into an on-disk CSR store, map it back
  read-only, build the 64-way micro-partitioning artefact;
* *recover*, over and over: the deployment was just evicted and the next
  one has k workers (k cycles 2/4/8/16) — cluster the micro-partitions
  for k, load, build a fresh engine over that partitioning, restore the
  full+delta SSSP checkpoint chain into it, take the first superstep.

A partitioner / checkpoint / IO change shows here and must not show on
the two serve workloads.  The dataset and the partitioner's seed are
fixed: ``edge_cut_ratio`` is the quotient of two randomised heuristics
and moves +-15 % with either, more than any bound could absorb.
``--seed`` picks the job being recovered (the SSSP source, so the
checkpointed state) and the order in which worker counts come up.  The direct k=8 multilevel partitioning that
``edge_cut_ratio`` compares against (the Fig 8 gap) is computed after
the timed region.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from bench.stats import percentile
from bench.workloads.base import (
    DATASET_SEED,
    GRAPH_AVG_DEGREE,
    GRAPH_COMMUNITIES,
    GRAPH_MIXING,
    GRAPH_VERTICES,
    WORKER_COUNTS,
    Workload,
    clustered_imbalance,
)

RECOVERIES_PER_SECOND = 5
MIN_RECOVERIES = 100  # the fewest that leave ten samples beyond the p90
MICRO_PARTS = 64
EDGE_BATCH = 1 << 18
FULL_AT_SUPERSTEP = 3  # full snapshot, then a delta two supersteps later
DELTA_AFTER = 2
QUALITY_K = 8
#: micro-partitions are built within 1.1 of even and clustered within
#: 1.1 again, so no worker may carry more than 1.1 x 1.1 of the average.
BALANCE_LIMIT = 1.1 * 1.1


class PrepareRecover(Workload):
    name = "prepare_recover"
    setup_repeats = 3

    def __init__(self, seed, seconds, recorder, num_vertices: int = GRAPH_VERTICES):
        super().__init__(seed, seconds, recorder)
        self.num_vertices = num_vertices
        self.recoveries = max(MIN_RECOVERIES, int(round(RECOVERIES_PER_SECOND * seconds)))
        self.store_dir: Path | None = None
        self.latencies: list[float] = []
        self.mismatches: list[str] = []
        self.prepare_s = 0.0

    def setup(self) -> None:
        from repro.graph.generators import community_graph

        with self.rec.span("graph.generate", "graph"):
            self.source = community_graph(
                self.num_vertices,
                GRAPH_COMMUNITIES,
                avg_degree=GRAPH_AVG_DEGREE,
                mixing=GRAPH_MIXING,
                seed=DATASET_SEED,
            )
        rng = np.random.default_rng([self.seed, self.recoveries])
        self.sssp_source = int(rng.integers(self.source.num_vertices))
        cycles = -(-self.recoveries // len(WORKER_COUNTS))
        self.worker_counts = rng.permutation(np.tile(WORKER_COUNTS, cycles))[
            : self.recoveries
        ].tolist()
        self.inputs = {
            "graph_edges": int(self.source.num_edges),
            "graph_vertices": int(self.source.num_vertices),
            "sssp_source": self.sssp_source,
            "worker_counts": "".join(f"{k:x}" for k in self.worker_counts),
        }

    def _edge_batches(self):
        graph = self.source
        src = np.repeat(np.arange(graph.num_vertices), np.diff(graph.indptr))
        dst = np.asarray(graph.indices)
        for lo in range(0, len(src), EDGE_BATCH):
            yield src[lo : lo + EDGE_BATCH], dst[lo : lo + EDGE_BATCH]

    def _prepare(self) -> None:
        from repro.graph.io import build_csr_on_disk, load_csr
        from repro.partitioning.micro import MicroPartitioner

        self.store_dir = Path(tempfile.mkdtemp(prefix="csr-"))
        with self.rec.span("graph.csr_build", "graph"):
            build_csr_on_disk(
                self._edge_batches, self.source.num_vertices, self.store_dir, name="bench"
            )
        with self.rec.span("graph.csr_load", "graph"):
            self.graph = load_csr(self.store_dir, mmap=True)
        self.artefact = MicroPartitioner(num_micro_parts=MICRO_PARTS).build(
            self.graph, seed=DATASET_SEED
        )

    def _checkpoint_chain(self) -> None:
        """An SSSP job checkpointed full, then delta: what every recovery restores."""
        from repro.engine import CheckpointManager, DataStore, PregelEngine
        from repro.engine.algorithms.sssp import SSSP

        self.datastore = DataStore()
        self.checkpoints = CheckpointManager(self.datastore, "bench", delta=True)
        engine = PregelEngine(
            self.graph, SSSP(source=self.sssp_source), self.artefact.cluster(4, seed=DATASET_SEED)
        )
        for _ in range(FULL_AT_SUPERSTEP):
            engine.step()
        self.checkpoints.save(engine)
        for _ in range(DELTA_AFTER):
            engine.step()
        info = self.checkpoints.save(engine)
        if info.kind != "delta":
            raise RuntimeError("checkpoint chain did not end in a delta")
        self.saved = engine.capture_state()
        engine.close()

    def _recover(self, k: int) -> None:
        from repro.engine import PregelEngine
        from repro.engine.algorithms.sssp import SSSP

        with self.rec.span("bench.recovery", "bench", new_trace=True):
            started = time.perf_counter()
            loaded = self.loader.load(self.graph, k, seed=DATASET_SEED)
            engine = PregelEngine(self.graph, SSSP(source=self.sssp_source), loaded.partitioning)
            self.checkpoints.load_into(engine)
            restored = engine.capture_state()
            engine.step()
            self.latencies.append(time.perf_counter() - started)
        engine.close()
        saved = self.saved
        if (
            restored["superstep"] != saved["superstep"]
            or not np.array_equal(restored["values"], saved["values"])
            or not np.array_equal(restored["halted"], saved["halted"])
        ):
            self.mismatches.append(f"k={k}: restored state differs from the checkpoint")
        assignment = loaded.partitioning.assignment
        if len(assignment) != self.graph.num_vertices or assignment.min() < 0 or (
            assignment.max() >= k
        ):
            self.mismatches.append(f"k={k}: not every vertex is assigned to a worker")

    def run(self) -> None:
        from repro.engine.loader import MicroLoader

        started = time.perf_counter()
        self._prepare()
        self.prepare_s = time.perf_counter() - started
        self._checkpoint_chain()
        self.loader = MicroLoader(self.artefact)
        for k in self.worker_counts:
            self._recover(k)

    def teardown(self) -> None:
        if self.store_dir is not None:
            self.graph = None  # drop the memory maps before the files go
            shutil.rmtree(self.store_dir, ignore_errors=True)
            self.store_dir = None

    def verify(self) -> list[str]:
        from repro.partitioning.multilevel import MultilevelPartitioner
        from repro.partitioning.quality import edge_cut_fraction

        problems = list(self.mismatches)
        self.imbalance = clustered_imbalance(self.graph, self.artefact, DATASET_SEED)
        micro_cut = edge_cut_fraction(
            self.graph, self.artefact.cluster(QUALITY_K, seed=DATASET_SEED)
        )
        if self.imbalance > BALANCE_LIMIT + 1e-9:
            problems.append(
                f"clustered imbalance {self.imbalance:.3f} exceeds {BALANCE_LIMIT:.3f}"
            )
        direct = MultilevelPartitioner().partition(self.graph, QUALITY_K, seed=DATASET_SEED)
        self.edge_cut_ratio = micro_cut / edge_cut_fraction(self.graph, direct)
        self.attempted = self.recoveries
        self.failed = len(self.mismatches)
        return problems[:20]

    def results(self, wall_s: float) -> dict[str, float]:
        return {
            "prepare_s": self.prepare_s,
            "recover_p50_ms": 1000.0 * percentile(self.latencies, 50),
            "recover_p90_ms": 1000.0 * percentile(self.latencies, 90),
            "edge_cut_ratio": self.edge_cut_ratio,
        }

    def samples(self) -> dict[str, int]:
        return {"recover_p50_ms": self.recoveries, "recover_p90_ms": self.recoveries}

    def layers(self, view) -> dict[str, float]:
        from repro.graph.io import csr_nbytes

        return {
            "engine.datastore_bytes": self.datastore.total_stored_bytes(),
            "partitioning.imbalance_max": self.imbalance,
            "graph.csr_bytes": csr_nbytes(self.source),
        }
