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

from dataclasses import dataclass

import numpy as np

from repro.cloud.configuration import default_catalog, full_grid_catalog
from repro.core.job import ApplicationProfile, COLORING_PROFILE, job_with_slack
from repro.core.perfmodel import RELOAD_MICRO, PerformanceModel, last_resort
from repro.core.simulator import ExecutionSimulator, on_demand_baseline_cost
from repro.experiments.common import ExperimentSetup
from repro.experiments.report import format_table
from repro.utils.units import HOURS


@dataclass(frozen=True)
class CatalogCell:
    """Result for one (catalogue, slack) combination."""

    catalog_name: str
    num_configs: int
    slack_percent: int
    normalized_cost: float
    missed_percent: float
    mean_deployments: float

    def as_row(self) -> dict:
        """Flatten to a plain dict for tabular reports."""
        return {
            "catalog": self.catalog_name,
            "configs": self.num_configs,
            "slack%": self.slack_percent,
            "norm_cost": round(self.normalized_cost, 3),
            "missed%": round(self.missed_percent, 1),
            "deployments/run": round(self.mean_deployments, 2),
        }


def run(
    setup: ExperimentSetup | None = None,
    profile: ApplicationProfile = COLORING_PROFILE,
    slacks=(0.3, 0.7),
    num_simulations: int = 10,
) -> list[CatalogCell]:
    """Compare the paired catalogue vs the full grid under Hourglass.

    The deadline and baseline are anchored to the *paired* catalogue's
    last resort so both rows answer the same question ("given this job
    and deadline, what does each menu cost?").
    """
    setup = setup or ExperimentSetup()
    paired = tuple(default_catalog())
    grid = tuple(full_grid_catalog())

    ref_perf = PerformanceModel(
        profile=profile,
        reference=last_resort(
            paired, lambda ref: PerformanceModel(profile=profile, reference=ref)
        ),
        reload_mode=RELOAD_MICRO,
    )
    ref_lrc = ref_perf.reference
    baseline = on_demand_baseline_cost(ref_perf, ref_lrc)

    cells = []
    for name, catalog in (("paired-3", paired), ("grid-9", grid)):
        perf = PerformanceModel(
            profile=profile, reference=ref_lrc, reload_mode=RELOAD_MICRO
        )
        sim = ExecutionSimulator(
            setup.market, perf, catalog, "hourglass", record_events=False
        )
        for slack in slacks:
            starts = setup.start_times(
                num_simulations, 72 * HOURS, seed_key=f"catalog-{name}-{slack}"
            )
            costs, missed, deployments = [], 0, 0
            for start in starts:
                job = job_with_slack(
                    profile, float(start), slack, ref_perf.fixed_time(ref_lrc)
                )
                result = sim.run(job)
                costs.append(result.cost)
                missed += result.missed_deadline
                deployments += result.deployments
            cells.append(
                CatalogCell(
                    catalog_name=name,
                    num_configs=len(catalog),
                    slack_percent=int(round(100 * slack)),
                    normalized_cost=float(np.mean(costs)) / baseline,
                    missed_percent=100.0 * missed / num_simulations,
                    mean_deployments=deployments / num_simulations,
                )
            )
    return cells


def render(cells) -> str:
    """Render the experiment rows as an aligned text table."""
    return format_table(
        [c.as_row() for c in cells],
        title="Catalogue-breadth study — Hourglass on the paired vs full-grid menu",
    )


if __name__ == "__main__":  # pragma: no cover
    print(render(run(num_simulations=6)))
