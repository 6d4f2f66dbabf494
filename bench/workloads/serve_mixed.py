"""``serve_mixed`` — the standing macro-benchmark, used the way the load
harness is meant to be used.

Closed loop at saturation: one ``LoadHarness.run`` over a generated
arrival trace (windowed admission -> ``plan_many`` -> ``ExecutionSimulator``
-> the 4x6 recurring phase), the next window planned when the previous
one finishes.  Continuous slack and 3 apps x 3 scales make almost every
request distinct, so nothing coalesces: cold DP evaluations and
price-epoch invalidations at lifecycle decision points own the run
(``core`` ~ 98 %) and the async frontend is bypassed entirely.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from bench.layers import DecisionCollector, service_layer_metrics
from bench.stats import percentile, smoothed_share
from bench.workloads.base import MARKET_DAYS, MARKET_SEED, Workload

JOBS_PER_SECOND = 30  # trace jobs per second of ``--seconds``
#: Every job is ~4.6 service decisions (one admission slot plus its
#: lifecycle re-plans); 300 jobs leave ten samples beyond the p99.
MIN_JOBS = 300
#: Arrival slots whose jobs ``--seed`` shuffles among themselves.
SHUFFLE_BLOCK = 8
#: ``LoadReport.fingerprint()`` by (seed, trace jobs): ``--seed 42`` at
#: the benchmark's 20 s.  Other seeds pass the structural gates only.
PINNED = {
    (42, 600): "be59b3431e5a111f153be91846adead1db70a5ef8350655921deea3c1c425e8b",
}


class ServeMixed(Workload):
    name = "serve_mixed"
    setup_repeats = 5

    def __init__(self, seed, seconds, recorder, num_jobs: int | None = None):
        super().__init__(seed, seconds, recorder)
        self.num_jobs = num_jobs or max(MIN_JOBS, int(round(JOBS_PER_SECOND * seconds)))
        self.report = None
        self.collector = None

    def setup(self) -> None:
        from repro.load import (
            ArrivalTrace,
            HarnessConfig,
            LoadHarness,
            LoadTraceConfig,
            generate_trace,
        )
        from repro.obs.metrics import MetricsRegistry

        trace_config = LoadTraceConfig(num_jobs=self.num_jobs, seed=MARKET_SEED)
        config = HarnessConfig(trace=trace_config, trace_days=MARKET_DAYS)
        # The harness synthesises its market in the constructor.
        with self.rec.span("cloud.market_build", "cloud"):
            self.harness = LoadHarness(config, metrics=MetricsRegistry())
        with self.rec.span("load.trace_gen", "load"):
            base = generate_trace(trace_config)
        # The arrival process (times, bursts, the multiset of jobs) is
        # fixed with the market; the seed decides which tenant's job
        # lands in which arrival slot, within neighbourhoods of eight.
        # A fresh Poisson trace per seed moves the DP work by +-20 %.
        rng = np.random.default_rng([self.seed, self.num_jobs])
        order = np.arange(self.num_jobs)
        for lo in range(0, self.num_jobs, SHUFFLE_BLOCK):
            order[lo : lo + SHUFFLE_BLOCK] = rng.permutation(order[lo : lo + SHUFFLE_BLOCK])
        jobs = tuple(
            dataclasses.replace(
                base.jobs[int(src)], job_id=slot.job_id, arrival_s=slot.arrival_s
            )
            for slot, src in zip(base.jobs, order)
        )
        self.trace = ArrivalTrace(config=trace_config, jobs=jobs)
        self.inputs = {
            "trace_checksum": self.trace.checksum(),
            "num_jobs": self.num_jobs,
        }
        self.collector = DecisionCollector()
        self.harness.service.add_decision_hook(self.collector)

    def run(self) -> None:
        self.report = self.harness.run(self.trace)

    def verify(self) -> list[str]:
        r = self.report
        problems = []
        accounted = r.planned + r.rejected_overload + r.rejected_invalid + r.deadline_lost
        if r.offered != accounted:
            problems.append(f"offered {r.offered} != accounted outcomes {accounted}")
        if r.offered != self.num_jobs:
            problems.append(f"offered {r.offered} of {self.num_jobs} trace jobs")
        if r.trace_checksum != self.inputs["trace_checksum"]:
            problems.append("report was built over a different trace")
        pinned = PINNED.get((self.seed, self.num_jobs))
        self.inputs["fingerprint"] = r.fingerprint()
        if pinned is not None and r.fingerprint() != pinned:
            problems.append(
                f"fingerprint {r.fingerprint()[:16]} != pinned {pinned[:16]}"
            )
        self.attempted = self.num_jobs
        self.failed = self.num_jobs - r.planned
        return problems

    def results(self, wall_s: float) -> dict[str, float]:
        r = self.report
        # Every decision the service answered during run() — admission
        # slots and lifecycle re-plans alike.  The report's slot-only
        # percentiles stay per-layer (``load.slot_*``): its p99 is the
        # tenth-largest of the slots and moves +-20 % between runs of one
        # commit and seed, four times more than this one.
        latencies = self.collector.latencies()
        return {
            "jobs_per_s": self.num_jobs / wall_s,
            "plan_p50_ms": 1000.0 * percentile(latencies, 50),
            "plan_p99_ms": 1000.0 * percentile(latencies, 99),
            "deadline_miss_rate": smoothed_share(r.missed, r.executed),
            "user_cost_dollars": r.user_cost_dollars,
        }

    def samples(self) -> dict[str, int]:
        decisions = len(self.collector.seen)
        return {
            "plan_p50_ms": decisions,
            "plan_p99_ms": decisions,
            "deadline_miss_rate": self.report.executed,
        }

    def layers(self, view) -> dict[str, float]:
        r = self.report
        service = self.harness.service
        out = service_layer_metrics(service, self.collector)
        out["load.slot_p50_ms"] = r.plan_p50_ms
        out["load.slot_p99_ms"] = r.plan_p99_ms
        out["load.jobs_offered"] = r.offered
        out["load.jobs_executed"] = r.executed + r.recurring_runs
        return out
