"""Engine scale-out benchmark: parallel speedup + delta-checkpoint bytes.

Runs one order of magnitude beyond the largest scale anything else
runs (the 60k-vertex graphs of ``python3 -m bench``): an RMAT scale-19 graph —
524,288 vertices, ~8M edges — streamed straight into an on-disk CSR
store and memory-mapped, never materialized as an edge list in RAM.

Two pins:

* **Parallel speedup** — the shared-memory multiprocess engine must be
  bit-identical to the serial engine at this scale, and >= 1.5x faster
  in supersteps/sec when the runner has >= 4 cores (the speedup
  assertion is skipped on smaller machines; identity always holds).
* **Delta checkpoints** — a steady-state delta checkpoint on SSSP must
  be >= 3x smaller than the format-2 full snapshot of the same state.
"""

from __future__ import annotations

import os
import pickle
import time

import numpy as np
import pytest

from repro.engine import (
    CheckpointManager,
    DataStore,
    PregelEngine,
    parallel_execution_supported,
)
from repro.engine.algorithms import SSSP, PageRank
from repro.graph.io import build_rmat_csr, csr_nbytes
from repro.partitioning.hashing import HashPartitioner

SCALE = 19  # 2**19 = 524,288 vertices, ~8M edges after self-loop drops
NUM_WORKERS = 4
PAGERANK_ITERATIONS = 3
MIN_PARALLEL_SPEEDUP = 1.5
MIN_DELTA_RATIO = 3.0


@pytest.fixture(scope="module")
def graph(tmp_path_factory):
    directory = tmp_path_factory.mktemp("rmat-scaleout")
    return build_rmat_csr(SCALE, directory, seed=42)


@pytest.fixture(scope="module")
def partitioning(graph):
    return HashPartitioner().partition(graph, NUM_WORKERS)


@pytest.mark.skipif(
    not parallel_execution_supported(),
    reason="fork start method unavailable on this platform",
)
def test_parallel_speedup(graph, partitioning, save_result):
    serial_engine = PregelEngine(graph, PageRank(iterations=PAGERANK_ITERATIONS), partitioning)
    t0 = time.perf_counter()
    serial = serial_engine.run()
    serial_elapsed = time.perf_counter() - t0
    serial_rate = serial.supersteps_run / serial_elapsed

    with PregelEngine(
        graph,
        PageRank(iterations=PAGERANK_ITERATIONS),
        partitioning,
        execution="parallel",
    ) as engine:
        t0 = time.perf_counter()
        parallel = engine.run()
        parallel_elapsed = time.perf_counter() - t0
    parallel_rate = parallel.supersteps_run / parallel_elapsed

    speedup = parallel_rate / serial_rate
    cores = os.cpu_count() or 1
    rendered = "\n".join(
        [
            f"engine scale-out: PageRank (RMAT scale {SCALE}, "
            f"{graph.num_vertices:,} vertices, {graph.num_edges:,} edges, "
            f"{csr_nbytes(graph) >> 20} MiB on-disk CSR, "
            f"{NUM_WORKERS} workers, {cores} cores)",
            f"  serial engine  : {serial_rate:8.2f} supersteps/s "
            f"({serial_elapsed:.3f}s)",
            f"  parallel engine: {parallel_rate:8.2f} supersteps/s "
            f"({parallel_elapsed:.3f}s)",
            f"  speedup        : {speedup:8.2f}x",
        ]
    )
    save_result("engine_scaleout_speedup", rendered)

    # Bit-identity holds at every scale and core count.
    assert serial.supersteps_run == parallel.supersteps_run
    assert np.array_equal(serial.values_array(), parallel.values_array())
    assert serial.stats == parallel.stats
    if cores >= 4:
        assert speedup >= MIN_PARALLEL_SPEEDUP, (
            f"parallel engine only {speedup:.2f}x faster on {cores} cores "
            f"(need >= {MIN_PARALLEL_SPEEDUP}x)"
        )


def test_delta_checkpoint_bytes(graph, partitioning, save_result):
    # Drive SSSP into steady state: on a scale-19 RMAT the distance
    # frontier collapses after a handful of supersteps, so most vertex
    # values are final and a delta captures only the stragglers.
    engine = PregelEngine(graph, SSSP(source=0), partitioning)
    for _ in range(6):
        if not engine.step():
            break

    # What the same state takes as a plain format-2 pickle (format 2 is
    # read-only now, so size it directly rather than writing one).
    fmt2_nbytes = len(
        pickle.dumps(engine.capture_state(), protocol=pickle.HIGHEST_PROTOCOL)
    )

    delta_store = DataStore()
    manager = CheckpointManager(delta_store, "delta", delta=True, full_interval=8)
    full_info = manager.save(engine)  # full base
    engine.step()
    delta_info = manager.save(engine)  # steady-state delta

    ratio = fmt2_nbytes / max(1, delta_info.nbytes)
    rendered = "\n".join(
        [
            f"delta checkpoints: SSSP (RMAT scale {SCALE}, "
            f"superstep {engine.superstep})",
            f"  format-2 full snapshot : {fmt2_nbytes:>12,} bytes",
            f"  format-3 full (planes) : {full_info.nbytes:>12,} bytes",
            f"  format-3 delta (planes): {delta_info.nbytes:>12,} bytes",
            f"  full/delta ratio       : {ratio:12.1f}x",
        ]
    )
    save_result("engine_scaleout_checkpoints", rendered)

    assert delta_info.kind == "delta"
    assert ratio >= MIN_DELTA_RATIO, (
        f"delta checkpoint only {ratio:.1f}x smaller than format 2 "
        f"(need >= {MIN_DELTA_RATIO}x)"
    )

    # The delta chain must restore to the exact engine state.
    restored = PregelEngine(graph, SSSP(source=0), partitioning)
    manager.load_into(restored, delta_info)
    assert restored.superstep == engine.superstep
    assert np.array_equal(restored._values, engine._values)
