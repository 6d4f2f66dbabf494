"""CLI for the load harness.

Run a seeded trace through admission + batch planning + execution and
print the report::

    python -m repro.load --jobs 1000 --seed 42
    python -m repro.load --jobs 100 --capacity 16 --queue-limit 32 \\
        --out load-artifacts

``--watch SECONDS`` turns the run into an observable one.  Every
one-shot outcome is a record in the harness's log, stamped with its
*simulated* instant; at every planning-window tick of the simulated
clock an SLO monitor folds the last 5 min / 1 h / 6 h of records into
burn rates, every executed run is attributed to its tenant in a cost
ledger, and a status panel goes to stderr each time the simulated clock
crosses a SECONDS tick.  Its rates are per simulated hour, so two runs
of a seed print the same panels byte for byte.  The flag appends SLO
and per-tenant attribution sections to the final report — rendered
outside :class:`LoadReport`, so the report fingerprint is bit-identical
with watching on or off.

``--out DIR`` additionally writes ``report.txt``, the arrival trace as
``trace.jsonl`` (:meth:`ArrivalTrace.to_jsonl`) and the
``load_*`` metrics in Prometheus text format as ``metrics.prom`` (plus
``slo.json`` / ``tenants.json`` with ``--watch``).

The process exits non-zero if the run is degenerate (nothing admitted or
nothing planned), which is what the CI smoke job keys off.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.load.harness import HarnessConfig, LoadHarness
from repro.load.trace import LoadTraceConfig, generate_trace
from repro.obs.attribution import CostLedger
from repro.obs.metrics import MetricsRegistry


def _parse_scales(value: str) -> tuple[float, ...]:
    """Parse a comma-separated list of positive scale factors."""
    try:
        scales = tuple(float(v) for v in value.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated floats, got {value!r}"
        ) from exc
    if not scales or any(s <= 0 for s in scales):
        raise argparse.ArgumentTypeError(f"scales must be positive, got {value!r}")
    return scales


def _parse_slack_range(value: str) -> tuple[float, float]:
    """Parse a ``LO:HI`` slack-fraction range."""
    lo, _, hi = value.partition(":")
    try:
        low, high = float(lo), float(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected LO:HI slack fractions, got {value!r}"
        ) from exc
    if not 0 <= low <= high:
        raise argparse.ArgumentTypeError(f"need 0 <= LO <= HI, got {value!r}")
    return low, high


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m repro.load", description=__doc__)
    parser.add_argument("--jobs", type=int, default=1000, help="arrivals to generate")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--tenants", type=int, default=20)
    parser.add_argument(
        "--arrivals-per-hour", type=float, default=120.0, help="mean offered rate"
    )
    parser.add_argument(
        "--scales",
        type=_parse_scales,
        default=None,
        metavar="S1,S2,...",
        help="graph-size scale factors for the trace (default: the "
        "generator's 0.25,0.5,1.0; large scales give jobs long enough "
        "to checkpoint)",
    )
    parser.add_argument(
        "--slack-range",
        type=_parse_slack_range,
        default=None,
        metavar="LO:HI",
        help="uniform per-job slack-fraction range (default 0.1:1.0)",
    )
    parser.add_argument(
        "--window", type=float, default=60.0, help="planning window seconds"
    )
    parser.add_argument(
        "--capacity", type=int, default=64, help="requests planned per window"
    )
    parser.add_argument(
        "--queue-limit", type=int, default=256, help="admission backlog bound"
    )
    parser.add_argument("--strategy", default="hourglass", help="planning strategy")
    parser.add_argument("--trace-days", type=int, default=14)
    parser.add_argument(
        "--recurring-tenants", type=int, default=4, help="interleaved recurring phase"
    )
    parser.add_argument("--recurring-periods", type=int, default=6)
    parser.add_argument(
        "--plan-only",
        action="store_true",
        help="skip execution (latency/admission sections only)",
    )
    parser.add_argument(
        "--watch",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="print a status panel to stderr every SECONDS of simulated "
        "time (0 disables)",
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="artifact directory (report/trace/metrics)"
    )
    return parser


def main(argv=None) -> int:
    """Run the harness; returns a process exit code."""
    args = build_parser().parse_args(argv)
    trace_kwargs = {}
    if args.scales is not None:
        trace_kwargs["scales"] = args.scales
    if args.slack_range is not None:
        trace_kwargs["slack_range"] = args.slack_range
    trace_config = LoadTraceConfig(
        seed=args.seed,
        num_jobs=args.jobs,
        num_tenants=args.tenants,
        arrivals_per_hour=args.arrivals_per_hour,
        **trace_kwargs,
    )
    config = HarnessConfig(
        trace=trace_config,
        window_s=args.window,
        capacity_per_window=args.capacity,
        queue_limit=args.queue_limit,
        strategy=args.strategy,
        execute=not args.plan_only,
        trace_days=args.trace_days,
        recurring_tenants=args.recurring_tenants,
        recurring_periods=args.recurring_periods,
    )
    metrics = MetricsRegistry()
    trace = generate_trace(trace_config)

    watching = args.watch > 0
    ledger = CostLedger(metrics=metrics) if watching else None
    harness = LoadHarness(config, metrics=metrics, ledger=ledger)
    if watching:
        from repro.load.watch import render_panel
        from repro.obs.slo import SloMonitor, default_slos

        log = harness.log
        monitor = SloMonitor(log, default_slos(), metrics=metrics)
        log.every(
            args.watch,
            lambda t: print(render_panel(log, t, monitor), file=sys.stderr, flush=True),
        )

    report = harness.run(trace)
    rendered = report.render()
    if watching:
        from repro.load.report import format_slo_section, format_tenant_section

        rendered += "\n\n" + format_slo_section(monitor.as_dict())
        rendered += "\n\n" + format_tenant_section(ledger.as_dict())
    print(rendered)

    if args.out is not None:
        import json

        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "report.txt").write_text(rendered + "\n")
        trace.to_jsonl(args.out / "trace.jsonl")
        (args.out / "metrics.prom").write_text(metrics.to_prometheus())
        if watching:
            (args.out / "slo.json").write_text(
                json.dumps(monitor.as_dict(), indent=1, sort_keys=True) + "\n"
            )
            (args.out / "tenants.json").write_text(
                json.dumps(ledger.as_dict(), indent=1, sort_keys=True) + "\n"
            )
        print(f"\n[artifacts written to {args.out}]")

    problems = []
    if report.admitted == 0:
        problems.append("no jobs admitted")
    if report.planned == 0:
        problems.append("no jobs planned")
    if config.execute and report.executed == 0:
        problems.append("no jobs executed")
    if problems:
        print(f"DEGENERATE RUN: {'; '.join(problems)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
