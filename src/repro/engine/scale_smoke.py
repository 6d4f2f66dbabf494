"""Engine scale-out smoke check: parallel bit-identity + delta restore.

``python -m repro.engine.scale_smoke`` is the blocking CI gate for the
scale-out machinery.  It exercises the full out-of-core path end to end
on a small graph:

1. streams an RMAT graph into an on-disk CSR store (multiple batches,
   two-pass build) and memory-maps it back,
2. runs SSSP, PageRank, WCC and in-degree through both the serial and
   the shared-memory multiprocess engine and checks the results are
   **bit-identical** (values, per-superstep stats, superstep counts) —
   the serial engine reuses its full-broadcast traffic count, the
   parallel one's merged batch always recounts,
3. saves a full + delta checkpoint chain mid-run, restores it into a
   fresh engine, resumes, and checks the finished run matches an
   uninterrupted reference exactly,
4. corrupts the delta's envelope metadata and checks the restore falls
   back to the full checkpoint and still resumes to the exact reference.

Exit code 0 = every check passed; any mismatch prints a ``FAIL`` line
and exits 1.  On platforms without ``fork`` the parallel checks degrade
to the serial fallback path (which must still be exact).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np


def _check(name: str, ok: bool, detail: str = "") -> bool:
    status = "ok  " if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    return ok


def run_smoke(scale: int, num_workers: int, seed: int, directory) -> bool:
    """Run every scale-out check; returns True when all pass."""
    from repro.engine import CheckpointManager, DataStore, PregelEngine
    from repro.engine.algorithms import SSSP, ConnectedComponents, InDegree, PageRank
    from repro.engine.parallel import parallel_execution_supported
    from repro.graph.io import build_rmat_csr, is_memmap_backed
    from repro.partitioning.hashing import HashPartitioner

    ok = True

    # 1. Out-of-core build: stream in small batches to force several
    # passes through the scatter path, then memory-map the result.
    graph = build_rmat_csr(
        scale, Path(directory) / "csr", seed=seed, batch_edges=1 << 12
    )
    ok &= _check(
        "csr store is memory-mapped",
        is_memmap_backed(graph.indices),
        f"{graph.num_vertices:,} vertices, {graph.num_edges:,} edges",
    )
    partitioning = HashPartitioner().partition(graph, num_workers)

    # 2. Serial-vs-parallel bit-identity on both message shapes
    # (min-combined SSSP and WCC, sum-combined PageRank and in-degree).
    if not parallel_execution_supported():
        print("[warn] fork unavailable; parallel checks use the serial fallback")
    for label, make_program in (
        ("sssp", lambda: SSSP(source=0)),
        ("pagerank", lambda: PageRank(iterations=8)),
        ("wcc", ConnectedComponents),
        ("in-degree", InDegree),
    ):
        serial = PregelEngine(graph, make_program(), partitioning).run()
        with PregelEngine(
            graph, make_program(), partitioning, execution="parallel"
        ) as engine:
            parallel = engine.run()
        ok &= _check(
            f"{label}: parallel matches serial bit-for-bit",
            serial.supersteps_run == parallel.supersteps_run
            and np.array_equal(serial.values_array(), parallel.values_array())
            and serial.stats == parallel.stats,
            f"{serial.supersteps_run} supersteps",
        )

    # 3. Delta checkpoint chain: full + delta saved mid-run from the
    # parallel engine, restored serially, resumed to completion.
    reference = PregelEngine(graph, PageRank(iterations=8), partitioning).run()
    store = DataStore()
    manager = CheckpointManager(store, "scale-smoke", delta=True, full_interval=8)
    with PregelEngine(
        graph, PageRank(iterations=8), partitioning, execution="parallel"
    ) as engine:
        engine.step()
        engine.step()
        full_info = manager.save(engine)  # full base
        engine.step()
        delta_info = manager.save(engine)  # delta against it
    ok &= _check(
        "second checkpoint is a delta",
        delta_info.kind == "delta",
        f"{delta_info.nbytes:,} bytes",
    )
    ok &= _check_resume(
        "delta restore resumes to the exact reference result",
        manager,
        PregelEngine(graph, PageRank(iterations=8), partitioning),
        reference,
        delta_info.superstep,
    )

    # 4. Recovery fallback: a delta whose envelope names an unknown kind
    # is corruption, so the restore lands on the full base instead.
    envelope, _ = store.get_object_timed(delta_info.key)
    envelope["kind"] = "dalta"
    store.put_object(delta_info.key, envelope)
    ok &= _check_resume(
        "corrupted delta falls back to the full checkpoint, exact result",
        manager,
        PregelEngine(graph, PageRank(iterations=8), partitioning),
        reference,
        full_info.superstep,
    )
    return ok


def _check_resume(name, manager, resumed, reference, superstep) -> bool:
    """Restore the newest restorable checkpoint into the fresh engine
    *resumed*, check it landed on *superstep*, and run it to the exact
    *reference*."""
    manager.load_into(resumed)
    restored_at = resumed.superstep
    result = resumed.run()
    return _check(
        name,
        restored_at == superstep
        and np.array_equal(reference.values_array(), result.values_array())
        and reference.stats == result.stats,
        f"restored at superstep {restored_at}",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.engine.scale_smoke", description=__doc__
    )
    parser.add_argument("--scale", type=int, default=10, help="RMAT scale (2^scale vertices)")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="scale-smoke-") as tmp:
        ok = run_smoke(args.scale, args.workers, args.seed, tmp)
    print("scale-out smoke:", "all checks passed" if ok else "CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
