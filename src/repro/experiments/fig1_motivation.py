"""Figure 1: the dilemma and how Hourglass breaks it.

The motivating scenario (§2): a Graph Coloring job over the Twitter
dataset that takes 4 hours in the fastest configuration, re-executed
every 6 hours — i.e. a 2-hour (50 %) slack.  Four strategies:

* **eager** — SpotOn-style greedy spot provisioning (misses deadlines);
* **hourglass-naive** — eager until the slack runs out, then on-demand
  (meets deadlines, little savings);
* **slack-aware** — Hourglass's provisioning strategy without the fast
  reload (full reloads + per-configuration offline partitioning);
* **slack-aware + fast reload** — full Hourglass.

Paper's result: eager saves 63 % but misses 79 % of deadlines; naive
saves 23 %; slack-aware 43 %; slack-aware + fast reload 63 % with no
misses.
"""

from __future__ import annotations

from repro.core.job import COLORING_PROFILE
from repro.core.perfmodel import RELOAD_FULL, RELOAD_MICRO
from repro.experiments.common import (
    CellResult,
    ExperimentSetup,
    SweepTask,
    offline_partition_cost,
    run_sweep_tasks,
)
from repro.utils.table import format_table

SLACK_FRACTION = 0.5  # 2 hours over the 4-hour job


def run(
    setup: ExperimentSetup | None = None, num_simulations: int = 40
) -> list[CellResult]:
    """Run the four Figure 1 bars; returns one CellResult per bar."""
    setup = setup or ExperimentSetup()
    profile = COLORING_PROFILE
    perf_full = setup.perf_model(profile, RELOAD_FULL)
    counts = len({c.num_workers for c in setup.catalog})
    bars = [
        ("eager", "spoton", RELOAD_FULL, 0.0),
        ("hourglass-naive", "hourglass-naive", RELOAD_FULL, 0.0),
        (
            "slack-aware",
            "hourglass",
            RELOAD_FULL,
            offline_partition_cost(perf_full, counts, RELOAD_FULL),
        ),
        (
            "slack-aware+fast-reload",
            "hourglass",
            RELOAD_MICRO,
            offline_partition_cost(perf_full, counts, RELOAD_MICRO),
        ),
    ]
    tasks = [
        SweepTask(profile, SLACK_FRACTION, strategy, num_simulations, mode, offline, label)
        for label, strategy, mode, offline in bars
    ]
    return run_sweep_tasks(setup, tasks)


def render(results) -> str:
    """Render the experiment rows as an aligned text table."""
    rows = [r.as_row() for r in results]
    return format_table(
        rows,
        columns=["strategy", "norm_cost", "missed%", "evictions/run", "sims"],
        title="Figure 1 — GC on Twitter, 6h period (50% slack): cost vs missed deadlines",
    )


if __name__ == "__main__":  # pragma: no cover
    print(render(run()))
