"""CI smoke checks, one row each: ``python -m tools.smoke ROW [--out DIR]``.

Run from the repository root with ``repro`` importable (installed, or
``PYTHONPATH=src``).  Every row runs a fixed, seeded workload, returns
the list of checks that failed, and the process exits 1 if that list is
not empty.

``ops``
    Runs a 100-job seed-42 trace through the load harness with a cost
    ledger and an SLO monitor, and reads the metrics registry's
    Prometheus text and the monitor's payload *from inside the run*, at
    every tick of the simulated clock.  Checks that the Prometheus text
    parses mid-run and at the end (:mod:`tools.prometheus`); that every
    mid-run SLO payload equals the pure fold
    (:func:`~repro.obs.slo.statuses`) over the final record log at the
    ``t`` it reports, and carries a ``deadline_miss_rate`` burn rate per
    window; that the ledger's dollars sum to the report's user cost
    within 1e-6; and that a rerun with no ledger and no monitor has a
    bit-identical fingerprint and the same alert sequence, folded over
    its log by ``tests/window_oracle.py`` (observing never perturbs).
    The read instants follow the seed, not the box.  Writes the report
    and the payloads read.

``engine-scale``
    Streams an RMAT scale-11 graph into an on-disk CSR store in several
    batches (:func:`build_rmat_csr`) and memory-maps it; runs SSSP,
    PageRank, WCC and in-degree (the last two are the dense test
    programs of ``tests/scalar_oracle.py``) on 4 workers over the
    memory-mapped graph and over the same store
    loaded into RAM, and checks the runs are identical (values,
    per-superstep stats, superstep counts); saves a full + delta
    checkpoint chain mid-run, restores it into a fresh engine and
    resumes to the exact uninterrupted result; then corrupts the delta's
    envelope and checks the restore falls back to the full checkpoint,
    still exact.  Writes no artifacts.

``reach``
    Runs every user command from the checkout, two at a time, under a
    ``sys.setprofile`` tracer installed in each Python process
    (:mod:`tools.reach`): the seven examples, ``repro.experiments
    --quick`` over every figure, the two CI ``repro.load`` rows, a
    baseline-strategy run of large-scale jobs (the ``--scales`` and
    ``--slack-range`` options, baseline planning through the service), a
    ``--watch 600`` run, and the four bench workloads at ``--seconds 4
    --trace 1``.  The rows above are checks, not users, so they are not
    entry points.  Checks that every function under ``src/repro`` none
    of them calls (declaration stubs aside) is listed in
    ``.github/expected/test-only.txt`` with a reason, and that nothing
    listed is reached.  Writes ``unreached.txt``.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.graph.io import build_csr_on_disk
from repro.utils.rng import derive_rng

OPS_JOBS = 100
OPS_SEED = 42
ENGINE_SCALE = 11
ENGINE_WORKERS = 4
ENGINE_SEED = 42


# -- ops ---------------------------------------------------------------
def ops(out: Path | None) -> list[str]:
    from repro.load.harness import HarnessConfig, LoadHarness
    from repro.load.trace import LoadTraceConfig, generate_trace
    from repro.obs.attribution import CostLedger
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.slo import SloMonitor, default_slos, statuses
    from tests.window_oracle import alerts, ticks
    from tools.prometheus import parse_prometheus

    failures: list[str] = []
    trace_config = LoadTraceConfig(seed=OPS_SEED, num_jobs=OPS_JOBS, num_tenants=8)
    config = HarnessConfig(trace=trace_config, recurring_tenants=2, recurring_periods=3)
    trace = generate_trace(trace_config)
    metrics = MetricsRegistry()
    ledger = CostLedger(metrics=metrics)
    harness = LoadHarness(config, metrics=metrics, ledger=ledger)
    monitor = SloMonitor(harness.log, default_slos(), metrics=metrics)

    scrapes: list[dict] = []
    harness.log.every(
        None,
        lambda t: scrapes.append(
            {
                "metrics": metrics.to_prometheus(),
                "slo": json.dumps(monitor.as_dict(), sort_keys=True, indent=1),
            }
        ),
    )
    report = harness.run(trace)
    final_metrics = metrics.to_prometheus()
    final_slo = monitor.as_dict()
    final_tenants = ledger.as_dict()

    if not scrapes:
        failures.append("the run's clock crossed no tick")
    for label, text in [("mid-run", s["metrics"]) for s in scrapes] + [("final", final_metrics)]:
        try:
            samples = parse_prometheus(text)
        except ValueError as exc:
            failures.append(f"{label} metrics failed to parse: {exc}")
            break
        if not any(name.startswith("load_") for name, _ in samples):
            failures.append(f"{label} metrics carry no load_* series")
            break

    frame = harness.log.frame()
    for scrape in scrapes:
        payload = json.loads(scrape["slo"])
        pure = statuses(monitor.objectives, frame, payload["t"])
        if payload["objectives"] != json.loads(json.dumps([s.as_dict() for s in pure])):
            failures.append(f"SLO payload at t={payload['t']} differs from the fold")
            break
    if final_slo["evaluations"] < 1:
        failures.append("SLO monitor never evaluated")
    miss = {o["name"]: o for o in final_slo["objectives"]}.get("deadline_miss_rate")
    if miss is None:
        failures.append("SLO payload has no deadline_miss_rate objective")
    elif len(miss["burn_rate"]) != len(miss["windows"]) or not miss["windows"]:
        failures.append("deadline_miss_rate carries no burn rate per window")

    billed = final_tenants["totals"]["dollars"]
    if abs(billed - report.user_cost_dollars) > 1e-6:
        failures.append(
            f"ledger dollars {billed!r} != report user cost {report.user_cost_dollars!r}"
        )
    if report.executed and not final_tenants["tenants"]:
        failures.append("runs executed but the ledger is empty")

    plain_harness = LoadHarness(config, metrics=MetricsRegistry())
    plain = plain_harness.run(trace)
    if plain.fingerprint() != report.fingerprint():
        failures.append(
            "ledger + monitor fingerprint diverged from plain run: "
            f"{report.fingerprint()} != {plain.fingerprint()}"
        )
    ratio = {o.name for o in default_slos() if o.kind == "ratio"}

    def sequence(transitions):
        return [
            (a.t, a.objective, a.severity, a.firing) for a in transitions if a.objective in ratio
        ]

    rerun = alerts(monitor.objectives, plain_harness.log.records(), ticks(plain_harness.log))
    if sequence(rerun) != sequence(monitor.alerts()):
        failures.append("a rerun of the seed gave a different alert sequence")

    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(report.render() + "\n")
        (out / "metrics.prom").write_text(final_metrics)
        if scrapes:
            middle = scrapes[len(scrapes) // 2]
            (out / "metrics.midrun.prom").write_text(middle["metrics"])
            (out / "slo.midrun.json").write_text(middle["slo"] + "\n")
        for name, payload in (("slo", final_slo), ("tenants", final_tenants)):
            (out / f"{name}.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"ops: {len(scrapes)} mid-run reads, {report.executed} runs executed")
    return failures


# -- engine-scale ------------------------------------------------------
#: RMAT quadrant probabilities (d = 1 - a - b - c) and edges per vertex.
RMAT_ABC = (0.57, 0.19, 0.19)
RMAT_EDGE_FACTOR = 16


def rmat_edge_batches(scale: int, seed=None, batch_edges: int = 1 << 20):
    """Yield RMAT edges as ``(src, dst)`` batches of ``<= batch_edges``.

    The streaming counterpart of :func:`repro.graph.generators.rmat` for
    graphs beyond RAM: peak memory is O(batch_edges) regardless of
    scale, and each batch is generated from its own seed stream
    (``derive_rng(seed, "rmat-stream", scale, batch_index)``), so a
    second iteration reproduces the exact same batches — which is what
    lets the two-pass on-disk CSR builder
    (:func:`repro.graph.io.build_csr_on_disk`) consume the stream twice.

    Differences from ``rmat``, both inherent to streaming: vertex ids are
    not globally permuted and duplicate edges are not removed
    (self-loops are still dropped per batch).  The per-level quadrant
    noise is drawn once for the whole graph so every batch samples the
    same distribution.
    """
    if scale < 1 or scale > 30:
        raise ValueError(f"scale must be in [1, 30], got {scale}")
    if batch_edges < 1:
        raise ValueError(f"batch_edges must be >= 1, got {batch_edges}")
    n = 1 << scale
    total = n * RMAT_EDGE_FACTOR
    noise_rng = derive_rng(seed, "rmat-stream-noise", scale)
    a, b, c = RMAT_ABC
    probs = np.array([a, b, c, 1.0 - a - b - c])
    level_probs = []
    for _ in range(scale):
        noise = 1.0 + 0.1 * (noise_rng.random(4) - 0.5)
        p = probs * noise
        level_probs.append(p / p.sum())
    produced = 0
    batch_index = 0
    while produced < total:
        count = min(batch_edges, total - produced)
        rng = derive_rng(seed, "rmat-stream", scale, batch_index)
        src = np.zeros(count, dtype=np.int64)
        dst = np.zeros(count, dtype=np.int64)
        for level, p in enumerate(level_probs):
            quadrant = rng.choice(4, size=count, p=p)
            src += (quadrant >> 1).astype(np.int64) << level
            dst += (quadrant & 1).astype(np.int64) << level
        keep = src != dst
        yield src[keep], dst[keep]
        produced += count
        batch_index += 1


def build_rmat_csr(
    scale: int, directory, seed=None, batch_edges: int = 1 << 20, mmap: bool = True
):
    """Stream an RMAT graph straight into an on-disk CSR store.

    Combines :func:`rmat_edge_batches` (which regenerates identical
    batches on each pass) with :func:`repro.graph.io.build_csr_on_disk`,
    so a graph beyond RAM can be generated and processed on one machine.
    """
    return build_csr_on_disk(
        lambda: rmat_edge_batches(scale, seed=seed, batch_edges=batch_edges),
        num_vertices=1 << scale,
        directory=directory,
        name=f"rmat-stream-{scale}",
        mmap=mmap,
    )


def engine_scale(out: Path | None) -> list[str]:
    from repro.engine import CheckpointManager, DataStore, PregelEngine
    from repro.engine.algorithms import SSSP, PageRank
    from repro.graph.io import is_memmap_backed, load_csr
    from repro.partitioning.hashing import HashPartitioner
    from tests.scalar_oracle import ConnectedComponents, InDegree

    failures: list[str] = []

    def same(a, b) -> bool:
        return (
            a.supersteps_run == b.supersteps_run
            and np.array_equal(a.values_array(), b.values_array())
            and a.stats == b.stats
        )

    with tempfile.TemporaryDirectory(prefix="smoke-") as tmp:
        # Small batches force several passes through the scatter path.
        graph = build_rmat_csr(
            ENGINE_SCALE, Path(tmp) / "csr", seed=ENGINE_SEED, batch_edges=1 << 12
        )
        if not is_memmap_backed(graph.indices):
            failures.append("csr store is not memory-mapped")
        in_ram = load_csr(Path(tmp) / "csr", mmap=False)
        if is_memmap_backed(in_ram.indices):
            failures.append("csr store loaded with mmap=False is still memory-mapped")
        partitioning = HashPartitioner().partition(graph, ENGINE_WORKERS)

        # Min-combined SSSP and WCC, sum-combined PageRank and in-degree.
        for label, make_program in (
            ("sssp", lambda: SSSP(source=0)),
            ("pagerank", lambda: PageRank(iterations=8)),
            ("wcc", ConnectedComponents),
            ("in-degree", InDegree),
        ):
            mapped = PregelEngine(graph, make_program(), partitioning).run()
            loaded = PregelEngine(in_ram, make_program(), partitioning).run()
            if not same(mapped, loaded):
                failures.append(f"{label}: memory-mapped run differs from in-RAM run")

        # A full + delta chain saved mid-run, restored into a fresh engine
        # and resumed to completion.
        reference = PregelEngine(graph, PageRank(iterations=8), partitioning).run()
        store = DataStore()
        manager = CheckpointManager(store, "scale-smoke", delta=True, full_interval=8)
        engine = PregelEngine(graph, PageRank(iterations=8), partitioning)
        engine.step()
        engine.step()
        full_info = manager.save(engine)
        engine.step()
        delta_info = manager.save(engine)
        if delta_info.kind != "delta":
            failures.append(f"second checkpoint is a {delta_info.kind!r}, not a delta")

        def resume(label: str, superstep: int) -> None:
            resumed = PregelEngine(graph, PageRank(iterations=8), partitioning)
            manager.load_into(resumed)
            restored_at = resumed.superstep
            if restored_at != superstep or not same(reference, resumed.run()):
                failures.append(f"{label}: restored at {restored_at}, not the exact reference")

        resume("delta restore", delta_info.superstep)
        # A delta whose envelope names an unknown kind is corruption, so
        # the restore must land on the full base instead.
        envelope, _ = store.get_object_timed(delta_info.key)
        envelope["kind"] = "dalta"
        store.put_object(delta_info.key, envelope)
        resume("corrupted-delta fallback", full_info.superstep)
    print(
        f"engine-scale: {graph.num_vertices:,} vertices, {graph.num_edges:,} edges, "
        f"{ENGINE_WORKERS} workers"
    )
    return failures


# -- reach -----------------------------------------------------------
REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "repro"
TEST_ONLY = REPO / ".github" / "expected" / "test-only.txt"
BENCH_WORKLOADS = ("serve_mixed", "serve_burst_dup", "graph_job_evicted", "prepare_recover")


def _entry_points(tmp: Path) -> list[list[list[str]]]:
    """Every user command, as jobs of ``python`` commands run in order."""
    load = ["-m", "repro.load", "--jobs", "100", "--seed", "7", "--trace-days", "8"]
    load += ["--recurring-tenants", "2", "--recurring-periods", "4"]
    return [
        [["-m", "repro.experiments", "--quick"]],
        *[
            [["-m", "bench", "--workload", name, "--seconds", "4", "--trace", "1"]]
            for name in BENCH_WORKLOADS
        ],
        [
            [*load, "--out", str(tmp / "load")],
            [*load, "--frontend", "--workers", "1:6", "--require-scaling", "--out", str(tmp / "fe")],
            ["-m", "repro.load", "--strategy", "spoton+dp", "--jobs", "40", "--seed", "42",
             "--scales", "16", "--slack-range", "0.6:1.0", "--recurring-tenants", "0",
             "--trace-days", "30", "--out", str(tmp / "baseline")],
            ["-m", "repro.load", "--jobs", "100", "--seed", "42", "--watch", "600"],
        ],
        [[str(example)] for example in sorted((REPO / "examples").glob("*.py"))],
    ]


def reach(out: Path | None) -> list[str]:
    from tools import reach as guard

    with tempfile.TemporaryDirectory(prefix="smoke-") as tmp:
        failures, unreached, lines = guard.run(
            _entry_points, REPO, PACKAGE, Path(tmp), TEST_ONLY.read_text()
        )
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "unreached.txt").write_text("".join(f"{name}\n" for name in unreached))
    print(f"reach: {len(unreached)} functions ({lines} lines) reached only by tests")
    return failures


ROWS = {"ops": ops, "engine-scale": engine_scale, "reach": reach}


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m tools.smoke",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("row", choices=sorted(ROWS))
    parser.add_argument("--out", type=Path, default=None, help="directory for artifacts")
    args = parser.parse_args(argv)
    failures = ROWS[args.row](args.out)
    for failure in failures:
        print(f"FAIL [{args.row}] {failure}", file=sys.stderr)
    if not failures:
        print(f"{args.row}: all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
