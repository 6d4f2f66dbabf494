"""CI smoke checks, one row each: ``python -m repro.smoke ROW [--out DIR]``.

Every row runs a fixed, seeded workload, returns the list of checks that
failed, and the process exits 1 if that list is not empty.

``exporters``
    Traces two workloads under one tracer: a two-tenant interleaved
    recurring simulation sharing one planning service, and a small
    engine-backed runtime execution with real supersteps.  Then checks
    that every JSONL line passes
    :func:`~repro.obs.export.validate_record`, that the Prometheus
    exposition parses with :func:`~repro.obs.export.parse_prometheus`,
    that the Chrome ``trace_event`` document is structurally sound
    (Perfetto-loadable), that every ``superstep`` and ``plan`` span
    carries a run's trace ID (cross-layer attribution), and that the
    written ``trace.jsonl`` reads back with the same record count.
    Writes ``trace.jsonl``, ``metrics.prom`` and ``trace.json``.

``ops``
    Runs a 100-job seed-42 trace through the load harness with a cost
    ledger and an SLO monitor, and scrapes the ops server *from inside
    the run*, at every tick of the simulated clock.  Checks that
    ``/metrics`` parses mid-run and at the end; that every mid-run
    ``/slo`` payload equals the pure fold
    (:func:`~repro.obs.slo.statuses`) over the final record log at the
    ``t`` it reports, and carries a ``deadline_miss_rate`` burn rate per
    window; that ``/tenants`` dollars sum to the report's user cost
    within 1e-6; and that a rerun with no ledger and no server has a
    bit-identical fingerprint and the same alert sequence (observing
    never perturbs).  The scraped instants follow the seed, not the box.
    Writes the report and the scraped payloads.

``engine-scale``
    Streams an RMAT scale-11 graph into an on-disk CSR store in several
    batches and memory-maps it; runs SSSP, PageRank, WCC and in-degree
    on the serial and the 4-worker shared-memory engine and checks they
    are bit-identical (values, per-superstep stats, superstep counts);
    saves a full + delta checkpoint chain mid-run, restores it into a
    fresh engine and resumes to the exact uninterrupted result; then
    corrupts the delta's envelope and checks the restore falls back to
    the full checkpoint, still exact.  Without ``fork`` the parallel
    engine is the serial fallback, which must still be exact.  Writes
    no artifacts.

``reach``
    Runs every shipped entry point from the checkout, two at a time,
    under a ``sys.setprofile`` tracer installed in each Python process
    (:mod:`repro.reach`): the seven examples, ``repro.experiments
    --quick`` over every figure, the three CI ``repro.load`` rows plus a
    ``--watch 600`` run, the three rows above and ``experiments
    report``, and the four bench workloads at ``--seconds 4 --trace 1``.
    Checks that every ``repro`` function none of them calls (declaration
    stubs aside) is listed in ``.github/expected/test-only.txt`` with a
    reason, and that nothing listed is reached.  Writes
    ``unreached.txt``.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import urllib.request
from pathlib import Path

import numpy as np

OPS_JOBS = 100
OPS_SEED = 42
ENGINE_SCALE = 11
ENGINE_WORKERS = 4
ENGINE_SEED = 42


# -- exporters ---------------------------------------------------------
def _traced_records():
    """Run both exporter workloads under a fresh tracer and registry;
    returns ``(records, prometheus_text)``."""
    from repro.core.job import PAGERANK_PROFILE, SSSP_PROFILE
    from repro.core.recurring import InterleavedRecurringDriver, RecurringJobSpec
    from repro.core.simulator import ExecutionSimulator
    from repro.engine.algorithms import PageRank
    from repro.experiments.common import ExperimentSetup
    from repro.graph import generators
    from repro.obs.observer import TracingObserver
    from repro.obs.state import tracing
    from repro.runtime.runtime import HourglassRuntime
    from repro.service.planning import PlanningService
    from repro.utils.units import HOURS

    setup = ExperimentSetup(seed=42, trace_days=10)
    service = PlanningService(setup.market)
    specs = [
        RecurringJobSpec(
            name=name,
            simulator=ExecutionSimulator(
                setup.market,
                setup.perf_model(profile),
                setup.catalog,
                "hourglass",
                record_events=False,
                service=service,
                observers=(TracingObserver(job_id=name, tenant=name, strategy="hourglass"),),
            ),
            profile=profile,
            period=period,
            offset=offset,
        )
        for name, profile, period, offset in (
            ("ranks", PAGERANK_PROFILE, 6 * HOURS, 0.0),
            ("paths", SSSP_PROFILE, 4 * HOURS, 1 * HOURS),
        )
    ]
    # Built before tracing starts, so the calibration run stays
    # untraced; the per-deployment engines are built inside execute().
    graph = generators.community_graph(400, num_communities=8, avg_degree=8, seed=7)
    runtime = HourglassRuntime(
        graph,
        lambda: PageRank(iterations=8),
        setup.market,
        setup.catalog,
        service.provisioner("hourglass"),
        num_micro_parts=16,
        seed=2,
        time_scale=3000.0,
        data_scale=20_000,
    )
    runtime.observers = (
        TracingObserver(job_id="engine-run", tenant="engine", strategy="hourglass"),
    )
    budget = runtime.perf.fixed_time(runtime.lrc) + runtime.perf.exec_time(runtime.lrc)
    with tracing() as (tracer, metrics):
        InterleavedRecurringDriver(specs).run(0.0, 2)
        runtime.execute(0.0, 2.0 * budget)
        return tracer.records(), metrics.to_prometheus()


def exporters(out: Path | None) -> list[str]:
    from repro.obs import export

    failures: list[str] = []
    records, prometheus = _traced_records()
    try:
        lines = [ln for ln in export.to_jsonl(records).splitlines() if ln.strip()]
        for line in lines:
            export.validate_record(json.loads(line))
        if len(lines) != len(records):
            failures.append(f"jsonl: {len(lines)} lines for {len(records)} records")
    except ValueError as exc:
        failures.append(f"jsonl: {exc}")
    try:
        if not export.parse_prometheus(prometheus):
            failures.append("prometheus: no samples rendered")
    except ValueError as exc:
        failures.append(f"prometheus: {exc}")

    doc = json.loads(json.dumps(export.to_chrome_trace(records), default=lambda v: v.item()))
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        failures.append("chrome: no traceEvents")
    else:
        bad = [ev for ev in events if ev.get("ph") not in ("X", "i", "M")]
        bad += [
            ev for ev in events
            if ev.get("ph") == "X" and (ev.get("dur", -1.0) < 0 or "ts" not in ev)
        ]
        if bad:
            failures.append(f"chrome: malformed event {bad[0].get('name')!r}")

    # Every superstep and plan span inherits a run's trace id: that is
    # what attributes a superstep to its plan requests.
    run_traces = {r.trace_id for r in records if r.name == "run"}
    for name in ("superstep", "plan"):
        spans = [r for r in records if r.name == name]
        if not spans:
            failures.append(f"correlation: no {name} spans recorded")
        orphans = sum(r.trace_id not in run_traces for r in spans)
        if orphans:
            failures.append(f"correlation: {orphans} {name} spans outside any run trace")

    with tempfile.TemporaryDirectory(prefix="smoke-") as tmp:
        directory = out or Path(tmp)
        directory.mkdir(parents=True, exist_ok=True)
        export.write_jsonl(records, directory / "trace.jsonl")
        (directory / "metrics.prom").write_text(prometheus)
        export.write_chrome_trace(records, directory / "trace.json")
        if len(export.read_jsonl(directory / "trace.jsonl")) != len(records):
            failures.append("jsonl: round-trip changed the record count")
    print(f"exporters: {len(records)} records")
    return failures


# -- ops ---------------------------------------------------------------
def _get(url: str) -> str:
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.read().decode()


def ops(out: Path | None) -> list[str]:
    from repro.load.harness import HarnessConfig, LoadHarness
    from repro.load.trace import LoadTraceConfig, generate_trace
    from repro.obs.attribution import CostLedger
    from repro.obs.export import parse_prometheus
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.server import OpsServer
    from repro.obs.slo import SloMonitor, alerts, default_slos, statuses

    failures: list[str] = []
    trace_config = LoadTraceConfig(seed=OPS_SEED, num_jobs=OPS_JOBS, num_tenants=8)
    config = HarnessConfig(trace=trace_config, recurring_tenants=2, recurring_periods=3)
    trace = generate_trace(trace_config)
    metrics = MetricsRegistry()
    ledger = CostLedger(metrics=metrics)
    harness = LoadHarness(config, metrics=metrics, ledger=ledger)
    monitor = SloMonitor(harness.log, default_slos(), metrics=metrics)

    scrapes: list[dict] = []
    with OpsServer(metrics, log=harness.log, monitor=monitor, ledger=ledger) as server:
        harness.log.every(
            None,
            lambda t: scrapes.append(
                {"metrics": _get(server.url + "/metrics"), "slo": _get(server.url + "/slo")}
            ),
        )
        report = harness.run(trace)
        final_metrics = _get(server.url + "/metrics")
        final_slo = json.loads(_get(server.url + "/slo"))
        final_tenants = json.loads(_get(server.url + "/tenants"))

    if not scrapes:
        failures.append("the run's clock crossed no tick")
    for label, text in [("mid-run", s["metrics"]) for s in scrapes] + [("final", final_metrics)]:
        try:
            samples = parse_prometheus(text)
        except ValueError as exc:
            failures.append(f"{label} /metrics failed to parse: {exc}")
            break
        if not any(name.startswith("load_") for name, _ in samples):
            failures.append(f"{label} /metrics carries no load_* series")
            break

    frame = harness.log.frame()
    for scrape in scrapes:
        payload = json.loads(scrape["slo"])
        pure = statuses(monitor.objectives, frame, payload["t"])
        if payload["objectives"] != json.loads(json.dumps([s.as_dict() for s in pure])):
            failures.append(f"/slo at t={payload['t']} differs from the fold")
            break
    if final_slo["evaluations"] < 1:
        failures.append("SLO monitor never evaluated")
    miss = {o["name"]: o for o in final_slo["objectives"]}.get("deadline_miss_rate")
    if miss is None:
        failures.append("/slo has no deadline_miss_rate objective")
    elif len(miss["burn_rate"]) != len(miss["windows"]) or not miss["windows"]:
        failures.append("deadline_miss_rate carries no burn rate per window")

    billed = final_tenants["totals"]["dollars"]
    if abs(billed - report.user_cost_dollars) > 1e-6:
        failures.append(
            f"/tenants dollars {billed!r} != report user cost {report.user_cost_dollars!r}"
        )
    if report.executed and not final_tenants["tenants"]:
        failures.append("runs executed but /tenants is empty")

    plain_harness = LoadHarness(config, metrics=MetricsRegistry())
    plain = plain_harness.run(trace)
    if plain.fingerprint() != report.fingerprint():
        failures.append(
            "ledger + scraped-server fingerprint diverged from plain run: "
            f"{report.fingerprint()} != {plain.fingerprint()}"
        )
    ratio = {o.name for o in default_slos() if o.kind == "ratio"}

    def sequence(transitions):
        return [
            (a.t, a.objective, a.severity, a.firing) for a in transitions if a.objective in ratio
        ]

    rerun = alerts(monitor.objectives, plain_harness.log.records(), plain_harness.log.ticks())
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
    print(f"ops: {len(scrapes)} mid-run scrapes, {report.executed} runs executed")
    return failures


# -- engine-scale ------------------------------------------------------
def engine_scale(out: Path | None) -> list[str]:
    from repro.engine import CheckpointManager, DataStore, PregelEngine
    from repro.engine.algorithms import SSSP, ConnectedComponents, InDegree, PageRank
    from repro.engine.parallel import parallel_execution_supported
    from repro.graph.io import build_rmat_csr, is_memmap_backed
    from repro.partitioning.hashing import HashPartitioner

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
        partitioning = HashPartitioner().partition(graph, ENGINE_WORKERS)
        if not parallel_execution_supported():
            print("engine-scale: fork unavailable; parallel runs use the serial fallback")

        # Min-combined SSSP and WCC, sum-combined PageRank and in-degree.
        for label, make_program in (
            ("sssp", lambda: SSSP(source=0)),
            ("pagerank", lambda: PageRank(iterations=8)),
            ("wcc", ConnectedComponents),
            ("in-degree", InDegree),
        ):
            serial = PregelEngine(graph, make_program(), partitioning).run()
            with PregelEngine(graph, make_program(), partitioning, execution="parallel") as engine:
                if not same(serial, engine.run()):
                    failures.append(f"{label}: parallel differs from serial")

        # A full + delta chain saved from the parallel engine, restored
        # serially and resumed to completion.
        reference = PregelEngine(graph, PageRank(iterations=8), partitioning).run()
        store = DataStore()
        manager = CheckpointManager(store, "scale-smoke", delta=True, full_interval=8)
        with PregelEngine(
            graph, PageRank(iterations=8), partitioning, execution="parallel"
        ) as engine:
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
REPO = Path(__file__).resolve().parents[2]
TEST_ONLY = REPO / ".github" / "expected" / "test-only.txt"
BENCH_WORKLOADS = ("serve_mixed", "serve_burst_dup", "graph_job_evicted", "prepare_recover")


def _entry_points(tmp: Path) -> list[list[list[str]]]:
    """Every shipped entry point, as jobs of ``python`` commands run in
    order (the trace report reads the exporters row's trace)."""
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
            ["-m", "repro.load", "--strategy", "elastic", "--require-rescale", "--jobs", "40",
             "--seed", "42", "--scales", "16", "--slack-range", "0.6:1.0",
             "--recurring-tenants", "0", "--trace-days", "30", "--out", str(tmp / "elastic")],
            ["-m", "repro.load", "--jobs", "100", "--seed", "42", "--watch", "600"],
        ],
        [
            ["-m", "repro.smoke", "exporters", "--out", str(tmp / "obs")],
            ["-m", "repro.experiments", "report", "--trace", str(tmp / "obs" / "trace.jsonl")],
            ["-m", "repro.smoke", "ops", "--out", str(tmp / "ops")],
            ["-m", "repro.smoke", "engine-scale"],
        ],
        [[str(example)] for example in sorted((REPO / "examples").glob("*.py"))],
    ]


def reach(out: Path | None) -> list[str]:
    from repro import reach as guard

    with tempfile.TemporaryDirectory(prefix="smoke-") as tmp:
        failures, unreached, lines = guard.run(
            _entry_points, REPO, Path(__file__).parent, Path(tmp), TEST_ONLY.read_text()
        )
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "unreached.txt").write_text("".join(f"{name}\n" for name in unreached))
    print(f"reach: {len(unreached)} functions ({lines} lines) reached only by tests")
    return failures


ROWS = {"exporters": exporters, "ops": ops, "engine-scale": engine_scale, "reach": reach}


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.smoke",
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
