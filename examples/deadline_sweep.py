#!/usr/bin/env python
"""Slack sweep: how savings and risk vary with the deadline (Fig 5 style).

Sweeps the slack from 10 % to 100 % for one application and prints, per
strategy, the normalized cost and missed-deadline percentage — a small
single-app rendition of the paper's Figure 5.

Run:  python examples/deadline_sweep.py [sssp|pagerank|coloring]
"""

from __future__ import annotations

import sys

from repro.core import PAPER_PROFILES
from repro.experiments import ExperimentSetup, sweep_strategy
from repro.experiments.report import format_table

STRATEGIES = ("hourglass", "spoton", "spoton+dp")
SLACKS = (0.1, 0.25, 0.5, 0.75, 1.0)
SIMULATIONS = 12


def main() -> None:
    app = sys.argv[1] if len(sys.argv) > 1 else "pagerank"
    if app not in PAPER_PROFILES:
        raise SystemExit(f"unknown app {app!r}; options: {sorted(PAPER_PROFILES)}")
    profile = PAPER_PROFILES[app]
    setup = ExperimentSetup(seed=11)

    rows = []
    for slack in SLACKS:
        for name in STRATEGIES:
            cell = sweep_strategy(
                setup, profile, slack, name, num_simulations=SIMULATIONS
            )
            rows.append(cell.as_row())
            print(
                f"slack {cell.slack_percent:3d}%  {name:<10} "
                f"cost {cell.normalized_cost:.2f}  missed {cell.missed_percent:.0f}%",
                flush=True,
            )

    print()
    print(
        format_table(
            rows,
            columns=["slack%", "strategy", "norm_cost", "missed%", "evictions/run"],
            title=f"Deadline sweep — {app} ({SIMULATIONS} simulations per cell)",
        )
    )


if __name__ == "__main__":
    main()
