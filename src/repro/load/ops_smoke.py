"""CI smoke for the live-operations layer (``python -m repro.load.ops_smoke``).

Drives a small seeded trace through the harness with a cost ledger and
an SLO monitor attached, and scrapes the ops endpoint *from inside the
run*: at every tick of the simulated clock, after the monitor has
evaluated it.  It asserts the acceptance criteria of the live-operations
layer:

1. ``/metrics`` parses with :func:`~repro.obs.export.parse_prometheus`
   at every mid-run scrape and after completion;
2. every ``/slo`` payload scraped mid-run equals the pure fold
   (:func:`~repro.obs.slo.statuses`) at the simulated ``t`` it reports,
   recomputed over the final record log, and carries a
   ``deadline_miss_rate`` objective with a burn rate for every window;
3. ``/tenants`` dollars sum to the final report's ``user_cost_dollars``
   within 1e-6;
4. a second run of the same seed with no ledger and no server produces
   a bit-identical report fingerprint and the same alert sequence — a
   ledger and a scraped server observe, never perturb.

The scrapes ride the run's own clock, so which instants are checked is
a function of the seed, not of how fast the box is.  Artifacts
(scraped exposition, SLO/tenant payloads, the report) are written to
``--out`` for upload.  Exits non-zero on any failed check, which is what
the CI job keys off.
"""

from __future__ import annotations

import argparse
import json
import sys
import urllib.request
from pathlib import Path

from repro.load.harness import HarnessConfig, LoadHarness
from repro.load.trace import LoadTraceConfig, generate_trace
from repro.obs.attribution import CostLedger
from repro.obs.export import parse_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.obs.server import OpsServer
from repro.obs.slo import SloMonitor, alerts, default_slos, statuses


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.read().decode()


def _sequence(transitions) -> list[tuple]:
    """The seed-determined part of an alert sequence (ratio objectives)."""
    ratio = {o.name for o in default_slos() if o.kind == "ratio"}
    return [(a.t, a.objective, a.severity, a.firing) for a in transitions if a.objective in ratio]


def run_smoke(jobs: int = 100, seed: int = 42, out: Path | None = None) -> list[str]:
    """Run the scraped-mid-run smoke; returns a list of failed checks."""
    problems: list[str] = []
    trace_config = LoadTraceConfig(seed=seed, num_jobs=jobs, num_tenants=8)
    config = HarnessConfig(
        trace=trace_config, recurring_tenants=2, recurring_periods=3
    )
    trace = generate_trace(trace_config)

    metrics = MetricsRegistry()
    ledger = CostLedger(metrics=metrics)
    harness = LoadHarness(config, metrics=metrics, ledger=ledger)
    monitor = SloMonitor(harness.log, default_slos(), metrics=metrics)

    scrapes: list[dict] = []
    with OpsServer(
        metrics, log=harness.log, monitor=monitor, ledger=ledger
    ) as server:
        harness.log.every(
            None,
            lambda t: scrapes.append(
                {
                    "metrics": _get(server.url + "/metrics"),
                    "slo": _get(server.url + "/slo"),
                }
            ),
        )
        report = harness.run(trace)
        final_metrics = _get(server.url + "/metrics")
        final_slo = json.loads(_get(server.url + "/slo"))
        final_tenants = json.loads(_get(server.url + "/tenants"))

    # -- check 1: exposition parses (mid-run and final) -----------------
    if not scrapes:
        problems.append("the run's clock crossed no tick")
    for label, text in [("mid-run", s["metrics"]) for s in scrapes] + [
        ("final", final_metrics)
    ]:
        try:
            samples = parse_prometheus(text)
        except ValueError as exc:
            problems.append(f"{label} /metrics failed to parse: {exc}")
            break
        if not any(name.startswith("load_") for name, _ in samples):
            problems.append(f"{label} /metrics carries no load_* series")
            break

    # -- check 2: every mid-run /slo is the pure fold at its t ----------
    frame = harness.log.frame()
    for scrape in scrapes:
        payload = json.loads(scrape["slo"])
        pure = statuses(monitor.objectives, frame, payload["t"])
        expected = json.loads(json.dumps([s.as_dict() for s in pure]))
        if payload["objectives"] != expected:
            problems.append(f"/slo at t={payload['t']} differs from the fold")
            break
    if final_slo["evaluations"] < 1:
        problems.append("SLO monitor never evaluated")
    by_name = {o["name"]: o for o in final_slo["objectives"]}
    miss = by_name.get("deadline_miss_rate")
    if miss is None:
        problems.append("/slo has no deadline_miss_rate objective")
    elif len(miss["burn_rate"]) != len(miss["windows"]) or not miss["windows"]:
        problems.append("deadline_miss_rate carries no burn rate per window")

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
    plain_harness = LoadHarness(config, metrics=MetricsRegistry())
    plain = plain_harness.run(trace)
    if plain.fingerprint() != report.fingerprint():
        problems.append(
            "ledger + scraped-server fingerprint diverged from plain run: "
            f"{report.fingerprint()} != {plain.fingerprint()}"
        )
    rerun = alerts(
        monitor.objectives, plain_harness.log.records(), plain_harness.log.ticks()
    )
    if _sequence(rerun) != _sequence(monitor.alerts()):
        problems.append("a rerun of the seed gave a different alert sequence")

    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(report.render() + "\n")
        (out / "metrics.prom").write_text(final_metrics)
        if scrapes:
            middle = scrapes[len(scrapes) // 2]
            (out / "metrics.midrun.prom").write_text(middle["metrics"])
            (out / "slo.midrun.json").write_text(middle["slo"] + "\n")
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
