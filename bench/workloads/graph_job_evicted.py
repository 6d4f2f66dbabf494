"""``graph_job_evicted`` — the paper's Fig 2 loop with every component real.

Closed loop, one job at a time: a genuine 30-iteration PageRank on a
60k-vertex community graph runs through ``HourglassRuntime`` (offline
micro-partitioning, a Pregel engine per deployment, checkpoints into the
datastore, evictions replayed from the market, re-cluster + reload +
restore on every recovery) at fixed releases of the market trace.  The
engine's supersteps, checkpoint saves and the reload path dominate
(~80 %); the DP is at most a fifth.  Durations are simulated
(``time_scale`` / ``data_scale`` stretch the job to hours so evictions
land); the wall clock measured here is the real work of doing it.
"""

from __future__ import annotations

import time

import numpy as np

from bench.stats import percentile, smoothed_share
from bench.workloads.base import (
    GRAPH_AVG_DEGREE,
    GRAPH_COMMUNITIES,
    GRAPH_MIXING,
    GRAPH_VERTICES,
    MARKET_SEED,
    Workload,
    clustered_imbalance,
)

#: Lively regions of the fixed market trace (hours from its start); each
#: forces between zero and five real recoveries.
RELEASES_H = (40, 100, 200, 400)
#: Seconds of ``--seconds`` per job: a job takes ~6.5 s here, but the
#: 16 s of set-up (micro-partitioning, calibration) every run pays leaves
#: room for two within the driver's total-time cap.
JOB_SECONDS = 10.0
PAGERANK_ITERATIONS = 30
DEADLINE_SLACK = 1.5
VALUE_TOLERANCE = 1e-12


class GraphJobEvicted(Workload):
    name = "graph_job_evicted"

    def __init__(self, seed, seconds, recorder, num_vertices: int = GRAPH_VERTICES):
        super().__init__(seed, seconds, recorder)
        self.num_vertices = num_vertices
        self.num_jobs = min(len(RELEASES_H), max(1, round(seconds / JOB_SECONDS)))
        self.walls: list[float] = []
        self.outcomes: list = []

    def setup(self) -> None:
        from repro.core.provisioner import HourglassProvisioner
        from repro.engine.algorithms import PageRank
        from repro.experiments.common import ExperimentSetup
        from repro.graph.generators import community_graph
        from repro.runtime import HourglassRuntime

        with self.rec.span("cloud.market_build", "cloud"):
            setup = ExperimentSetup(seed=MARKET_SEED)
        with self.rec.span("graph.generate", "graph"):
            self.graph = community_graph(
                self.num_vertices,
                GRAPH_COMMUNITIES,
                avg_degree=GRAPH_AVG_DEGREE,
                mixing=GRAPH_MIXING,
                seed=self.seed,
            )
        # Micro-partitioning and the calibration run happen in here.
        self.runtime = HourglassRuntime(
            self.graph,
            lambda: PageRank(iterations=PAGERANK_ITERATIONS),
            setup.market,
            setup.catalog,
            HourglassProvisioner(),
            seed=self.seed,
            time_scale=4000,
            data_scale=10_000,
        )
        self.inputs = {
            "graph_edges": int(self.graph.num_edges),
            "graph_vertices": int(self.graph.num_vertices),
            "jobs": self.num_jobs,
        }

    def run(self) -> None:
        from repro.utils.units import HOURS

        runtime = self.runtime
        lrc = runtime.lrc
        budget = runtime.perf.fixed_time(lrc) + DEADLINE_SLACK * runtime.perf.exec_time(lrc)
        for hours in RELEASES_H[: self.num_jobs]:
            release = hours * HOURS
            started = time.perf_counter()
            try:
                outcome = runtime.execute(release, release + budget)
            except Exception as exc:  # a job that raises is a failed op
                outcome = exc
            self.walls.append(time.perf_counter() - started)
            self.outcomes.append(outcome)

    def verify(self) -> list[str]:
        # The runtime's calibration run *is* an undisturbed PregelEngine
        # run of the same program on the same graph; a job battered by
        # evictions must land on the same values.
        reference = self.runtime.perf.calibration.values_array()
        problems = []
        failed = 0
        for hours, outcome in zip(RELEASES_H, self.outcomes):
            if isinstance(outcome, Exception):
                failed += 1
                problems.append(f"release {hours} h raised {outcome!r}")
                continue
            values = np.array([outcome.values[v] for v in range(len(reference))])
            worst = float(np.max(np.abs(values - reference)))
            if not worst <= VALUE_TOLERANCE:
                failed += 1
                problems.append(
                    f"release {hours} h: PageRank deviates {worst:.3e} from the "
                    "undisturbed run"
                )
        self.attempted = self.num_jobs
        self.failed = failed
        return problems

    def _finished(self) -> list:
        return [o for o in self.outcomes if not isinstance(o, Exception)]

    def results(self, wall_s: float) -> dict[str, float]:
        done = self._finished()
        return {
            "job_wall_s": percentile(self.walls, 50),
            "deadline_miss_rate": smoothed_share(
                sum(o.missed_deadline for o in done), len(done)
            ),
            "user_cost_dollars": sum(o.cost for o in done),
        }

    def samples(self) -> dict[str, int]:
        return {"job_wall_s": self.num_jobs, "deadline_miss_rate": self.num_jobs}

    def layers(self, view) -> dict[str, float]:
        return {
            "engine.datastore_bytes": self.runtime.datastore.total_stored_bytes(),
            "partitioning.imbalance_max": clustered_imbalance(
                self.graph, self.runtime.artefact, self.seed
            ),
        }

