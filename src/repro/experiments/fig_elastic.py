"""Elastic-vs-static sweep: mid-job rescaling on a collapsing frontier.

SSSP's active-vertex frontier starts near 1 and collapses in the late
supersteps (:data:`repro.exec.frontier.APP_FRONTIERS`).  A static plan
sized for the early frontier keeps paying for workers the late
supersteps cannot use.  This sweep runs the same market, job and phase
physics under two planning regimes:

* **static** — the stock ``hourglass`` strategy with *raw* work
  accounting: the planner sees the naive work fraction and never the
  frontier, i.e. today's frontier-oblivious deployment.
* **elastic** — the ``elastic`` strategy: frontier-scaled work
  accounting plus the planned-rescale policy evaluated at checkpoint
  boundaries (shrink when the remaining frontier no longer needs the
  width, re-planned through the slack-space DP so a move that would
  endanger the deadline is rejected).

Both arms execute the identical frontier-derived
:class:`~repro.core.phases.PhaseModel`, so the *physics* of every run
match and the cost difference is attributable to planning: the frontier
signal plus the mid-job moves it licenses.  Expected shape: elastic
never misses a deadline (moves are DP-vetted) and its normalised cost
drops measurably below static, with the shrink count rising as slack
grows (more room for conservative late-job moves).
"""

from __future__ import annotations

from repro.core.job import SSSP_PROFILE
from repro.core.perfmodel import RELOAD_MICRO
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
#: run (hours) where checkpoints — and therefore planned moves — exist.
DEFAULT_SCALE = 32.0

#: (strategy name, work accounting) per arm — same physics otherwise.
ARMS = (("hourglass", ACCOUNT_RAW), ("elastic", ACCOUNT_TIME))


def run(
    setup: ExperimentSetup | None = None,
    slacks=DEFAULT_SLACKS,
    num_simulations: int = 10,
    scale: float = DEFAULT_SCALE,
) -> list[CellResult]:
    """Run the elastic-vs-static grid; one cell per (slack, arm).

    Deadline and baseline come from the conventional stack, identical
    for both arms as in Fig 5.
    """
    setup = setup or ExperimentSetup()
    profile = SSSP_PROFILE.scaled(scale)
    curve = frontier_for_app(SSSP_PROFILE.name)
    tasks = [
        SweepTask(
            profile, slack, strategy, num_simulations,
            # Explicit: the micro default only covers hourglass* names.
            reload_mode=RELOAD_MICRO,
            seed_key=f"elastic-{profile.name}-{slack}",
            work_accounting=accounting,
            frontier_curve=curve,
        )
        for slack in slacks
        for strategy, accounting in ARMS
    ]
    return run_sweep_tasks(setup, tasks)


def render(results) -> str:
    """Render the grid as an aligned text table."""
    rows = [r.as_row() for r in results]
    return format_table(
        rows,
        columns=[
            "slack%",
            "strategy",
            "norm_cost",
            "missed%",
            "rescales/run",
            "shrinks/run",
            "rescale_s/run",
        ],
        title="Elastic rescaling — sssp: planned mid-job moves vs static",
    )


def check_invariants(results) -> list[str]:
    """Cross-cell claims (empty list = all hold).

    * the elastic arm never misses a deadline (every move is DP-vetted);
    * averaged over the sweep, elastic is no more expensive than static
      (the frontier signal plus planned shrinks must pay for the moves).
    """
    problems = []
    for r in results:
        if r.strategy == "elastic" and r.missed_percent > 0:
            problems.append(
                f"elastic missed {r.missed_percent:.0f}% at {r.slack_percent}% slack"
            )
    by_arm: dict[str, list[float]] = {}
    for r in results:
        by_arm.setdefault(r.strategy, []).append(r.normalized_cost)
    if "elastic" in by_arm and "hourglass" in by_arm:
        elastic = sum(by_arm["elastic"]) / len(by_arm["elastic"])
        static = sum(by_arm["hourglass"]) / len(by_arm["hourglass"])
        if elastic > static:
            problems.append(
                f"elastic mean norm_cost {elastic:.3f} exceeds static {static:.3f}"
            )
    return problems


if __name__ == "__main__":  # pragma: no cover
    res = run(num_simulations=6)
    print(render(res))
    for problem in check_invariants(res):
        print("VIOLATION:", problem)
