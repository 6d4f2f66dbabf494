#!/usr/bin/env python
"""The paper's motivating workload: recurrent Graph Coloring (Fig 1, §2).

A 4-hour GC analysis over a Twitter-scale graph re-executes every
6 hours (2 hours of slack).  This example runs two days of that schedule
under three strategies — eager greedy (SpotOn-style), the naive
deadline-protection fallback, and full Hourglass — and compares cost,
evictions and missed deadlines.

Run:  python examples/recurring_coloring.py
"""

from __future__ import annotations

from repro import (
    COLORING_PROFILE,
    ExecutionSimulator,
    ExperimentSetup,
    on_demand_baseline_cost,
)
from repro.core import InterleavedRecurringDriver, RecurringJobSpec
from repro.core.perfmodel import RELOAD_FULL
from repro.utils.units import HOURS, format_money

PERIOD = 6 * HOURS
DAYS = 2


def main() -> None:
    setup = ExperimentSetup(seed=21)
    reference = setup.perf_model(COLORING_PROFILE, RELOAD_FULL)
    lrc = setup.lrc(reference)
    baseline = on_demand_baseline_cost(reference, lrc)
    runs_per_schedule = int(DAYS * 24 * HOURS / PERIOD)

    strategies = [
        ("eager (SpotOn)", "spoton", RELOAD_FULL),
        ("naive (SpotOn+DP)", "spoton+dp", RELOAD_FULL),
        ("hourglass", "hourglass", None),  # micro fast reload
    ]

    print(f"recurrent GC: every {PERIOD / HOURS:.0f}h for {DAYS} days "
          f"({runs_per_schedule} runs); on-demand baseline "
          f"{format_money(baseline)}/run\n")
    print(f"{'strategy':<20} {'cost/run':>10} {'vs od':>7} "
          f"{'missed':>7} {'evictions':>10}")
    for label, strategy, mode in strategies:
        perf = setup.perf_model(COLORING_PROFILE, mode)
        simulator = ExecutionSimulator(
            setup.market, perf, setup.catalog, strategy, record_events=False
        )
        driver = InterleavedRecurringDriver(
            [RecurringJobSpec(label, simulator, COLORING_PROFILE, PERIOD)]
        )
        outcome = driver.run(12 * HOURS, runs_per_schedule)[label]
        print(
            f"{label:<20} {format_money(outcome.mean_cost()):>10} "
            f"{outcome.mean_cost() / baseline:>6.0%} "
            f"{outcome.missed:>3}/{outcome.runs:<3} "
            f"{outcome.total_evictions:>8}"
        )


if __name__ == "__main__":
    main()
