"""Catalogue-breadth study: does a wider configuration menu help?

The paper's evaluation uses the paired equal-vCPU catalogue (3 shapes).
This extension study gives Hourglass the full 3-types × 3-counts grid
(18 configurations including markets) and measures whether the extra
choices improve savings — probing the diversity-vs-decision-complexity
trade-off the paper leaves implicit.

Notes on the grid: non-paired shapes change total capacity, so their
execution times span ~1.6 h (16×r4.8xlarge) to ~25 h (4×r4.2xlarge)
under the same ``w**-0.66`` coordination law, and their on-demand rates
differ.  The last-resort configuration becomes the fastest on-demand
shape of the grid.
"""

from __future__ import annotations

from repro.cloud.configuration import default_catalog, full_grid_catalog
from repro.core.job import ApplicationProfile, COLORING_PROFILE
from repro.core.perfmodel import RELOAD_MICRO
from repro.experiments.common import (
    CellResult,
    ExperimentSetup,
    SweepTask,
    run_sweep_tasks,
)
from repro.utils.table import format_table
from repro.utils.units import HOURS

#: Catalogue name -> configurations; a cell reports its catalogue's name
#: as its strategy.
CATALOGS = {
    "paired-3": tuple(default_catalog()),
    "grid-9": tuple(full_grid_catalog()),
}


def run(
    setup: ExperimentSetup | None = None,
    profile: ApplicationProfile = COLORING_PROFILE,
    slacks=(0.3, 0.7),
    num_simulations: int = 10,
) -> list[CellResult]:
    """Compare the paired catalogue vs the full grid under Hourglass.

    The deadline and baseline are anchored to the *paired* catalogue's
    last resort (the setup's) so both rows answer the same question
    ("given this job and deadline, what does each menu cost?").
    """
    setup = setup or ExperimentSetup()
    tasks = [
        SweepTask(
            profile, slack, "hourglass", num_simulations, label=name, catalog=catalog,
            anchor=RELOAD_MICRO, budget=72 * HOURS, seed_key=f"catalog-{name}-{slack}",
        )
        for name, catalog in CATALOGS.items()
        for slack in slacks
    ]
    return run_sweep_tasks(setup, tasks)


def render(cells) -> str:
    """Render the experiment rows as an aligned text table."""
    rows = [
        {
            "catalog": c.strategy,
            "configs": len(CATALOGS[c.strategy]),
            "slack%": c.slack_percent,
            "norm_cost": round(c.normalized_cost, 3),
            "missed%": round(c.missed_percent, 1),
            "deployments/run": round(c.mean_deployments, 2),
        }
        for c in cells
    ]
    return format_table(
        rows,
        title="Catalogue-breadth study — Hourglass on the paired vs full-grid menu",
    )
