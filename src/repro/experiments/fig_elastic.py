"""Frontier-aware accounting sweep: the planner sees a collapsing frontier.

SSSP's active-vertex frontier starts near 1 and collapses in the late
supersteps (:data:`repro.exec.frontier.APP_FRONTIERS`).  A plan sized
for the early frontier keeps paying for workers the late supersteps
cannot use.  This sweep runs the same market, job and phase physics
under two work-accounting regimes of the stock ``hourglass`` strategy:

* **hourglass/raw** — the planner sees the naive work fraction and never
  the frontier, i.e. a frontier-oblivious deployment.
* **hourglass/time** — the planner sees the remaining *time* fraction of
  the frontier-derived :class:`~repro.core.phases.PhaseModel`, so the
  work it has left tightens as the frontier shrinks and a smaller
  configuration that finishes the tail in time becomes the argmin at the
  next decision point.

Both arms execute the identical phase model and share start times
(common random numbers), so the cost difference is attributable to the
work accounting alone.  Expected shape: the time arm never misses a
deadline and costs no more than the raw arm at every slack.
"""

from __future__ import annotations

from repro.core.job import SSSP_PROFILE
from repro.core.phases import ACCOUNT_RAW, ACCOUNT_TIME
from repro.exec.frontier import frontier_for_app
from repro.experiments.common import (
    CellResult,
    ExperimentSetup,
    SweepTask,
    run_sweep_tasks,
)
from repro.utils.table import format_table

DEFAULT_SLACKS = (0.2, 0.4, 0.6, 0.8, 1.0)

#: Dataset scale for the sweep's SSSP job.  The repo-scale profile
#: finishes inside one checkpoint interval (~3 simulated minutes), so a
#: mid-job decision point never arrives; scaling emulates a large-graph
#: run (hours) where checkpoints — and therefore re-planning — exist.
DEFAULT_SCALE = 32.0

#: (row label, work accounting) per arm — same strategy and physics.
ARMS = (("hourglass/raw", ACCOUNT_RAW), ("hourglass/time", ACCOUNT_TIME))


def run(
    setup: ExperimentSetup | None = None,
    slacks=DEFAULT_SLACKS,
    num_simulations: int = 10,
    scale: float = DEFAULT_SCALE,
) -> list[CellResult]:
    """Run the raw-vs-time grid; one cell per (slack, arm).

    Deadline and baseline come from the conventional stack, identical
    for both arms as in Fig 5.
    """
    setup = setup or ExperimentSetup()
    profile = SSSP_PROFILE.scaled(scale)
    phases = frontier_for_app(SSSP_PROFILE.name).to_phases()
    tasks = [
        SweepTask(
            profile, slack, "hourglass", num_simulations,
            label=label,
            seed_key=f"elastic-{profile.name}-{slack}",
            work_accounting=accounting,
            phase_model=phases,
        )
        for slack in slacks
        for label, accounting in ARMS
    ]
    return run_sweep_tasks(setup, tasks)


def render(results) -> str:
    """Render the grid as an aligned text table."""
    rows = [r.as_row() for r in results]
    return format_table(
        rows,
        columns=["slack%", "strategy", "norm_cost", "missed%"],
        title="Frontier-aware accounting — sssp: time vs raw work accounting",
    )
