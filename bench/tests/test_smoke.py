"""Every workload end to end at toy size, and the contract they print."""

import json
import time

import pytest

from bench import runner
from bench.spans import NullRecorder
from bench.workloads import WORKLOADS
from bench.workloads import serve_burst_dup


@pytest.fixture()
def small(monkeypatch):
    """20 jobs / 2 bursts / 1 graph job / small graphs."""
    monkeypatch.setattr(serve_burst_dup, "BURST_SIZE", 1000)
    monkeypatch.setattr(serve_burst_dup, "BURST_INTERVAL_S", 0.2)
    monkeypatch.setattr(serve_burst_dup, "WARMUP_BURSTS", 1)
    classes = dict(WORKLOADS)

    def build(name, seed, recorder=None):
        recorder = recorder or NullRecorder()
        cls = classes[name]
        if name == "serve_mixed":
            return cls(seed, 1, recorder, num_jobs=20)
        if name == "serve_burst_dup":
            return cls(seed, 2, recorder)
        return cls(seed, 1, recorder, num_vertices=2000)

    return build


def test_twenty_job_smoke_of_each_workload(small):
    started = time.perf_counter()
    for name in WORKLOADS:
        workload = small(name, seed=7)
        try:
            workload.setup()
            lo = time.perf_counter()
            workload.run()
            wall = time.perf_counter() - lo
            problems = workload.verify()
            results = workload.results(wall)
        finally:
            workload.teardown()
        assert problems == [], (name, problems)
        assert workload.attempted >= 1 and workload.failed == 0
        assert all(value > 0 for value in results.values()), (name, results)
        assert workload.inputs
    assert time.perf_counter() - started < 30.0


def test_same_seed_same_inputs_other_seed_other_inputs(small):
    def inputs(name, seed):
        workload = small(name, seed)
        try:
            workload.setup()
            return dict(workload.inputs)
        finally:
            workload.teardown()

    for name in ("serve_mixed", "serve_burst_dup"):
        assert inputs(name, 42) == inputs(name, 42)
        assert inputs(name, 42) != inputs(name, 7)


def test_run_once_prints_every_contract_metric(small, monkeypatch):
    contract = runner.load_contract()
    monkeypatch.setitem(runner.WORKLOADS, "prepare_recover",
                        lambda seed, seconds, rec: small("prepare_recover", seed, rec))
    record = runner.run_once("prepare_recover", 7, 1, trace=False)
    line = json.loads(runner.driver_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m["name"] for m in contract["end_to_end"]]
    assert all(entry["value"] > 0 for entry in line["metrics"].values())
    assert line["correct"] and line["failed"] == 0

    traced = runner.run_once("prepare_recover", 7, 1, trace=True)
    assert list(traced["metrics"]) == [m["name"] for m in contract["per_layer"]]
    assert traced["layer_sum_over_wall"] == pytest.approx(1.0, abs=0.02)
    assert traced["layer_seconds"].get("core", 0.0) == 0.0
    assert traced["metrics"]["engine.ckpt_restore_p50_ms"]["value"] > 0


def test_every_per_layer_name_is_produced_by_some_workload(small):
    """A typo in a metric name would otherwise read as a silent 0."""
    from bench.layers import TraceView, span_metrics

    produced = set(span_metrics(TraceView([], 0.0, 1.0)))
    produced |= {"obs.trace_overhead_ratio", "bench.gen_late_max_ms"}
    produced |= {
        "service.queue_wait_p50_ms", "service.memo_hit_rate",
        "service.estimator_reuse_rate", "service.snapshot_hit_rate",
        "service.invalidations", "service.coalesced_share", "service.batch_mean",
        "service.pool_size_peak", "service.overflowed", "service.storm_p99_ms",
        "load.slot_p50_ms", "load.slot_p99_ms", "load.jobs_offered",
        "load.jobs_executed", "engine.datastore_bytes",
        "partitioning.imbalance_max", "graph.csr_bytes",
    }
    contract = {m["name"] for m in runner.load_contract()["per_layer"]}
    assert contract == produced
