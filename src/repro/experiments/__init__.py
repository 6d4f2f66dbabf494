"""Experiment harness: one module per paper table/figure."""

from repro.experiments import (
    ablations,
    catalog_study,
    fig1_motivation,
    fig5_overall,
    fig6_loading,
    fig7_gc_zoom,
    fig8_quality,
    fig9_decision_time,
    fig_elastic,
    table2_datasets,
)
from repro.experiments.common import (
    CellResult,
    ExperimentSetup,
    SweepTask,
    offline_partition_cost,
    parallel_cells,
    run_sweep_tasks,
    sweep_strategy,
)

__all__ = [
    "CellResult",
    "ExperimentSetup",
    "SweepTask",
    "ablations",
    "catalog_study",
    "fig1_motivation",
    "fig5_overall",
    "fig6_loading",
    "fig7_gc_zoom",
    "fig8_quality",
    "fig9_decision_time",
    "fig_elastic",
    "offline_partition_cost",
    "parallel_cells",
    "run_sweep_tasks",
    "sweep_strategy",
    "table2_datasets",
]
