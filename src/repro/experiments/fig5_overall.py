"""Figure 5: overall comparison with the state of the art.

Thirty scenarios: {SSSP, PageRank, GraphColoring} x slack 10..100 %,
five provisioners (Hourglass, Proteus, SpotOn, Proteus+DP, SpotOn+DP).
For every cell we report the mean cost normalised to the on-demand
last-resort run and the percentage of runs missing the deadline.

Expected shape (paper): Hourglass never misses and its cost approaches
or beats the deadline-oblivious greedy strategies; Proteus/SpotOn miss
heavily on the long GC job (eviction-driven) and moderately on short
jobs; the +DP variants meet deadlines but save much less, especially at
small slacks.

Strategies resolve through a per-cell
:class:`~repro.service.planning.PlanningService` (see
``experiments.common._sweep_cell``): within a cell the service amortises
estimator state across the 40 simulations; across cells each service is
fresh, keeping the parallel sweep bit-identical to the serial one.
"""

from __future__ import annotations

from repro.core.job import COLORING_PROFILE, PAGERANK_PROFILE, SSSP_PROFILE
from repro.experiments.common import (
    CellResult,
    ExperimentSetup,
    SweepTask,
    run_sweep_tasks,
)
from repro.utils.table import format_table

DEFAULT_SLACKS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
DEFAULT_STRATEGIES = ("hourglass", "proteus", "spoton", "proteus+dp", "spoton+dp")
PROFILES = {
    "sssp": SSSP_PROFILE,
    "pagerank": PAGERANK_PROFILE,
    "coloring": COLORING_PROFILE,
}


def run(
    setup: ExperimentSetup | None = None,
    apps=("sssp", "pagerank", "coloring"),
    slacks=DEFAULT_SLACKS,
    strategies=DEFAULT_STRATEGIES,
    num_simulations: int = 40,
    max_workers: int | None = None,
) -> list[CellResult]:
    """Run the Fig 5 grid; one CellResult per (app, slack, strategy).

    Cells fan out over a process pool (``max_workers=None`` = CPU
    count); results are bit-identical to the serial sweep in the same
    (app, slack, strategy) order.
    """
    setup = setup or ExperimentSetup()
    tasks = [
        SweepTask(
            profile=PROFILES[app],
            slack_fraction=slack,
            strategy=strategy,
            num_simulations=num_simulations,
        )
        for app in apps
        for slack in slacks
        for strategy in strategies
    ]
    return run_sweep_tasks(setup, tasks, max_workers=max_workers)


def render(results) -> str:
    """Render the experiment rows as an aligned text table."""
    sections = []
    for app in dict.fromkeys(r.app for r in results):
        rows = [r.as_row() for r in results if r.app == app]
        sections.append(
            format_table(
                rows,
                columns=["slack%", "strategy", "norm_cost", "missed%", "evictions/run"],
                title=f"Figure 5 — {app}: normalised cost / missed deadlines",
            )
        )
    return "\n\n".join(sections)
