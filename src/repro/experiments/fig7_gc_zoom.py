"""Figure 7: contribution of each Hourglass mechanism on the GC job.

Three curves over slack 10..100 %:

* **slack-aware + METIS** — Hourglass's provisioning strategy with the
  conventional partitioning stack: METIS run offline for *every*
  catalogue worker count, full (shuffle) reloads on redeploys.
* **slack-aware + µMETIS** — full Hourglass: one offline METIS run into
  micro-partitions, fast reloads.
* **SpotOn + DP + µMETIS** — the naive deadline protection given
  Hourglass's fast reload, isolating the value of the slack-aware
  decision strategy itself.

Paper's findings: micro-partitioning is always worth ~23 % (mainly the
smaller offline cost); the slack-aware strategy dominates SpotOn+DP at
small slacks, where bad provisioning decisions hurt the most.
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

DEFAULT_SLACKS = (0.1, 0.3, 0.5, 0.7, 1.0)


def run(
    setup: ExperimentSetup | None = None,
    slacks=DEFAULT_SLACKS,
    num_simulations: int = 40,
    max_workers: int | None = None,
) -> list[CellResult]:
    """Run the three Fig 7 curves; one CellResult per (curve, slack).

    Cells fan out over the shared parallel sweep driver; the strategies
    are named by registry key and re-labelled per ablation curve.
    """
    setup = setup or ExperimentSetup()
    profile = COLORING_PROFILE
    perf_full = setup.perf_model(profile, RELOAD_FULL)
    counts = len({c.num_workers for c in setup.catalog})
    curves = [
        (
            "slackaware+metis",
            "hourglass",
            RELOAD_FULL,
            offline_partition_cost(perf_full, counts, RELOAD_FULL),
        ),
        (
            "slackaware+umetis",
            "hourglass",
            RELOAD_MICRO,
            offline_partition_cost(perf_full, counts, RELOAD_MICRO),
        ),
        (
            "spoton+dp+umetis",
            "spoton+dp",
            RELOAD_MICRO,
            offline_partition_cost(perf_full, counts, RELOAD_MICRO),
        ),
    ]
    tasks = [
        SweepTask(
            profile=profile,
            slack_fraction=slack,
            strategy=strategy,
            num_simulations=num_simulations,
            reload_mode=mode,
            offline_cost=offline,
            label=label,
        )
        for slack in slacks
        for label, strategy, mode, offline in curves
    ]
    return run_sweep_tasks(setup, tasks, max_workers=max_workers)


def render(results) -> str:
    """Render the experiment rows as an aligned text table."""
    rows = [r.as_row() for r in results]
    return format_table(
        rows,
        columns=["slack%", "strategy", "norm_cost", "missed%"],
        title="Figure 7 — GC zoom: micro-partitioning and slack-awareness ablation",
    )


if __name__ == "__main__":  # pragma: no cover
    print(render(run(num_simulations=20)))
