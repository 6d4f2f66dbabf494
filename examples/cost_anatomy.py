#!/usr/bin/env python
"""Where the dollars go: cost anatomy of one provisioned run.

Runs the same GC job under the eager strategy and under Hourglass, then
decomposes each bill into productive compute, setup (boot + reload) and
work doomed by evictions — showing *why* fast reload and slack-aware
decisions save money, not just that they do.

Run:  python examples/cost_anatomy.py
"""

from __future__ import annotations

from repro import (
    COLORING_PROFILE,
    ExecutionSimulator,
    ExperimentSetup,
    job_with_slack,
    on_demand_baseline_cost,
)
from repro.core import breakdown, format_breakdown, setup_table
from repro.core.perfmodel import RELOAD_FULL
from repro.utils.units import HOURS


def main() -> None:
    setup = ExperimentSetup(seed=33)
    reference = setup.perf_model(COLORING_PROFILE, RELOAD_FULL)
    lrc = setup.lrc(reference)
    baseline = on_demand_baseline_cost(reference, lrc)

    runs = [
        ("eager (SpotOn, full reload)", "spoton", RELOAD_FULL),
        ("hourglass (fast reload)", "hourglass", None),
    ]
    # Pick a start where the market actually evicts something.
    start = 6 * HOURS
    for label, strategy, mode in runs:
        perf = setup.perf_model(COLORING_PROFILE, mode)
        sim = ExecutionSimulator(setup.market, perf, setup.catalog, strategy)
        job = job_with_slack(
            COLORING_PROFILE, start, 0.5, reference.fixed_time(lrc)
        )
        result = sim.run(job)
        print(f"=== {label}")
        print(f"missed deadline: {result.missed_deadline}  "
              f"(norm cost {result.cost / baseline:.2f})")
        print(format_breakdown(breakdown(result, setup_table(perf, setup.catalog))))
        print()


if __name__ == "__main__":
    main()
