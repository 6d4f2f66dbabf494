"""CI smoke for the live-operations layer (``python -m repro.load.ops_smoke``).

Drives a small seeded trace through the harness with a cost ledger
attached and scrapes the ops endpoint *while the run is in flight*,
asserting the acceptance criteria of the live-operations layer:

1. ``/metrics`` parses with :func:`~repro.obs.export.parse_prometheus`
   both mid-run and after completion;
2. ``/slo`` reports at least one completed evaluation and carries a
   ``deadline_miss_rate`` objective with burn rates for every window;
3. ``/tenants`` dollars sum to the final report's ``user_cost_dollars``
   within 1e-6;
4. a second run of the same seed with no ledger and no server produces
   a bit-identical report fingerprint — a ledger and a scraped server
   observe, never perturb.

Artifacts (scraped exposition, SLO/tenant payloads, the report) are
written to ``--out`` for upload.  Exits non-zero on any failed check,
which is what the CI job keys off.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import urllib.request
from pathlib import Path

from repro.load.harness import HarnessConfig, LoadHarness
from repro.load.trace import LoadTraceConfig, generate_trace
from repro.obs.attribution import CostLedger
from repro.obs.export import parse_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.obs.server import OpsServer
from repro.obs.slo import SloMonitor, default_slos
from repro.obs.window import WindowConfig, WindowedAggregator


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.read().decode()


def run_smoke(jobs: int = 100, seed: int = 42, out: Path | None = None) -> list[str]:
    """Run the scraped-mid-run smoke; returns a list of failed checks."""
    problems: list[str] = []
    trace_config = LoadTraceConfig(seed=seed, num_jobs=jobs, num_tenants=8)
    config = HarnessConfig(
        trace=trace_config, recurring_tenants=2, recurring_periods=3
    )
    trace = generate_trace(trace_config)

    metrics = MetricsRegistry()
    aggregator = WindowedAggregator(metrics, WindowConfig(interval=0.05))
    monitor = SloMonitor(aggregator, default_slos(), metrics=metrics)
    ledger = CostLedger(metrics=metrics)
    harness = LoadHarness(config, metrics=metrics, ledger=ledger)

    mid_run: dict = {}
    with OpsServer(
        metrics,
        aggregator=aggregator,
        monitor=monitor,
        ledger=ledger,
        sample_interval=0.05,
    ) as server:
        report_box: list = []
        runner = threading.Thread(
            target=lambda: report_box.append(harness.run(trace)), daemon=True
        )
        runner.start()
        # Scrape while the harness is running; keep the last mid-run
        # scrape that saw the run still alive.
        while runner.is_alive():
            scrape = {
                "metrics": _get(server.url + "/metrics"),
                "slo": _get(server.url + "/slo"),
                "health": _get(server.url + "/health"),
            }
            if runner.is_alive():
                mid_run = scrape
        runner.join()
        report = report_box[0]
        # Final state: one more sample + evaluation, then scrape.
        aggregator.sample()
        monitor.evaluate()
        final_metrics = _get(server.url + "/metrics")
        final_slo = json.loads(_get(server.url + "/slo"))
        final_tenants = json.loads(_get(server.url + "/tenants"))

    # -- check 1: exposition parses (mid-run and final) -----------------
    if not mid_run:
        problems.append("no mid-run scrape landed (run finished too fast?)")
    for label, text in (
        ("mid-run", mid_run.get("metrics", "")),
        ("final", final_metrics),
    ):
        if not text:
            continue
        try:
            samples = parse_prometheus(text)
        except ValueError as exc:
            problems.append(f"{label} /metrics failed to parse: {exc}")
            continue
        if not any(name.startswith("load_") for name, _ in samples):
            problems.append(f"{label} /metrics carries no load_* series")

    # -- check 2: SLO evaluations happened, miss-rate burn is served ----
    if final_slo["evaluations"] < 1:
        problems.append("SLO monitor never evaluated")
    by_name = {o["name"]: o for o in final_slo["objectives"]}
    miss = by_name.get("deadline_miss_rate")
    if miss is None:
        problems.append("/slo has no deadline_miss_rate objective")
    elif len(miss["burn_rate"]) != len(aggregator.config.windows):
        problems.append(
            f"deadline_miss_rate burn rates cover {len(miss['burn_rate'])} "
            f"windows, expected {len(aggregator.config.windows)}"
        )

    # -- check 3: per-tenant dollars sum to the report's user cost ------
    billed = final_tenants["totals"]["dollars"]
    if abs(billed - report.user_cost_dollars) > 1e-6:
        problems.append(
            f"/tenants dollars {billed!r} != report user cost "
            f"{report.user_cost_dollars!r}"
        )
    if report.executed and not final_tenants["tenants"]:
        problems.append("runs executed but /tenants is empty")

    # -- check 4: a ledger + scraped server never perturbs the outcome --
    plain = LoadHarness(config, metrics=MetricsRegistry()).run(trace)
    if plain.fingerprint() != report.fingerprint():
        problems.append(
            "ledger + scraped-server fingerprint diverged from plain run: "
            f"{report.fingerprint()} != {plain.fingerprint()}"
        )

    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(report.render() + "\n")
        (out / "metrics.prom").write_text(final_metrics)
        if mid_run:
            (out / "metrics.midrun.prom").write_text(mid_run["metrics"])
            (out / "slo.midrun.json").write_text(mid_run["slo"] + "\n")
        (out / "slo.json").write_text(
            json.dumps(final_slo, indent=1, sort_keys=True) + "\n"
        )
        (out / "tenants.json").write_text(
            json.dumps(final_tenants, indent=1, sort_keys=True) + "\n"
        )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.load.ops_smoke", description=__doc__
    )
    parser.add_argument("--jobs", type=int, default=100)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    problems = run_smoke(jobs=args.jobs, seed=args.seed, out=args.out)
    if problems:
        for problem in problems:
            print(f"OPS SMOKE FAIL: {problem}", file=sys.stderr)
        return 1
    print("ops smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
