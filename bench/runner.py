"""One run of one workload in this process: set up, time, verify, report."""

from __future__ import annotations

import json
import os
import resource
import shutil
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

from bench.layers import TraceView, span_metrics, wrap_targets
from bench.spans import Instrument, NullRecorder, SpanRecorder, span_cost_seconds
from bench.stats import percentile, require_tail_support, smoothed_share
from bench.workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def load_contract() -> dict:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _stand_in(unit: str, wall_s: float, ops: int) -> float:
    """Value reported for a metric the workload does not exercise.

    The driver wants every end-to-end metric from every workload, never
    0, and no time that reads the same twice.  A timing or rate the
    workload has no use for therefore carries the workload's own timed
    wall clock in that unit (so it moves only when the workload itself
    gets slower, which its real metrics already say); an outcome it has
    no use for is the constant 1.
    """
    if unit == "s":
        return wall_s
    if unit == "ms":
        return 1000.0 * wall_s / ops
    if unit == "1/s":
        return ops / wall_s
    return 1.0


def run_once(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    untraced_wall_s: float | None = None,
) -> dict:
    """Run workload *name* once; returns the full result record."""
    contract = load_contract()
    recorder = SpanRecorder() if trace else NullRecorder()
    workload = WORKLOADS[name](seed, seconds, recorder)

    # Everything the program spills (on-disk CSR, the engine's edge-source
    # spill) goes under bench/out, inside the checkout.
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"tmp-{os.getpid()}-", dir=OUT_DIR))
    saved_tempdir = tempfile.tempdir
    tempfile.tempdir = str(scratch)
    instrument = Instrument(recorder, wrap_targets()) if trace else nullcontext()
    try:
        with instrument:
            setups = []
            for _ in range(workload.setup_repeats):
                workload.teardown()
                started = time.perf_counter()
                with recorder.span("bench.setup", "bench"):
                    workload.setup()
                setups.append(time.perf_counter() - started)
            lo = time.perf_counter()
            with recorder.span("bench.run", "bench", new_trace=True):
                workload.run()
            hi = time.perf_counter()
            wall_s = hi - lo
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            problems = workload.verify()
        record = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "traced": trace,
            "correct": not problems,
            "problems": problems,
            "attempted": workload.attempted,
            "failed": workload.failed,
            "wall_s": wall_s,
            "inputs": workload.inputs,
            "samples": workload.samples(),
        }
        if trace:
            record.update(
                _traced(workload, recorder, contract, lo, hi, untraced_wall_s)
            )
        else:
            native = {
                "setup_s": percentile(setups, 50),
                "peak_rss_mb": rss_mb,
                "failed_share": smoothed_share(workload.failed, workload.attempted),
                **workload.results(wall_s),
            }
            for metric, n in record["samples"].items():
                require_tail_support(metric, n)
            record["native"] = sorted(native)
            record["metrics"] = {
                m["name"]: {
                    "value": native[m["name"]]
                    if m["name"] in native
                    else _stand_in(m["unit"], wall_s, workload.attempted),
                    "unit": m["unit"],
                }
                for m in contract["end_to_end"]
            }
        return record
    finally:
        workload.teardown()
        tempfile.tempdir = saved_tempdir
        shutil.rmtree(scratch, ignore_errors=True)


def _traced(workload, recorder, contract, lo, hi, untraced_wall_s) -> dict:
    view = TraceView(recorder.spans, lo, hi)
    values = span_metrics(view)
    values.update(workload.layers(view))
    wall_s = hi - lo
    if untraced_wall_s:
        overhead = wall_s / untraced_wall_s
    else:
        # No untraced twin to divide by (the driver's --trace 1 run
        # stands alone): spans recorded x the measured cost of one.
        spent = span_cost_seconds() * sum(1 for s in view.spans if lo <= s.start <= hi)
        overhead = wall_s / max(wall_s - spent, 1e-9)
    values["obs.trace_overhead_ratio"] = overhead
    table = view.layer_seconds()
    out = {
        "metrics": {
            m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in contract["per_layer"]
        },
        "layer_seconds": table,
        "layer_sum_over_wall": sum(table.values()) / wall_s,
        "spans": len(view.spans),
        "layer_split": workload.layer_split(view),
    }
    recorder.write_jsonl(OUT_DIR / f"spans-{workload.name}.jsonl")
    return out


def driver_line(record: dict) -> str:
    """The one JSON object the driver reads off the last line."""
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }
    )
