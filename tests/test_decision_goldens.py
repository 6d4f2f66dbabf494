"""Golden outputs of the retired direct-provisioner decision path.

Captured at the last commit where ``HourglassProvisioner`` owned a
private per-job estimator (and ``experiments.common.strategy_registry``
constructed it directly), through exactly the calls below.  Every
hourglass decision now plans through a ``PlanningService`` and every
experiment resolves strategies by name; these literals are what the old
path produced, so the single remaining path must reproduce them
exactly (``==`` on floats, no tolerance).

``WARNING_ROWS`` and ``FIG_ELASTIC_CELLS`` were captured later, at the
last commit where the warning ablation and the elastic sweep still ran
their own simulation loops, before every simulated cell moved onto
``experiments.common.run_sweep_tasks``.
"""

from __future__ import annotations

import pytest

from repro.cloud import default_catalog
from repro.core import PAGERANK_PROFILE, SSSP_PROFILE, HourglassProvisioner
from repro.engine.algorithms import PageRank
from repro.experiments import ExperimentSetup, ablations, catalog_study, fig_elastic
from repro.experiments.common import sweep_strategy
from repro.graph import generators
from repro.runtime import HourglassRuntime
from repro.utils.units import HOURS

# (strategy, app, slack%, normalized_cost, missed%, sims, evictions/run,
#  deployments/run) — ExperimentSetup(seed=42, trace_days=12), 6 sims.
FIG5_CELLS = [
    ("hourglass", "sssp", 20, 0.05992350925040254, 0.0, 6, 0.0, 1.0),
    ("spoton+dp", "sssp", 20, 0.9999999999999839, 0.0, 6, 0.0, 1.0),
    ("hourglass", "sssp", 80, 0.06458629921714822, 0.0, 6, 0.0, 1.0),
    ("spoton+dp", "sssp", 80, 0.999999999999989, 0.0, 6, 0.0, 1.0),
    ("hourglass", "pagerank", 20, 0.169755568324162, 0.0, 6, 0.0, 1.0),
    ("spoton+dp", "pagerank", 20, 0.9999999999999822, 0.0, 6, 0.0, 1.0),
    ("hourglass", "pagerank", 80, 0.18855880580234574, 0.0, 6, 0.3333333333333333, 1.5),
    ("spoton+dp", "pagerank", 80, 1.0692318890759056, 0.0, 6, 0.16666666666666666, 2.0),
]

# ExperimentSetup(seed=5, trace_days=10), 4 simulations per row (the
# 0.1, 0.5 and 1.0 rows of the default table are left out for test
# time; the other goldens all run at the default scale 1.0).
CKPT_INTERVAL_ROWS = [
    {"interval_s": 2090, "interval_scale": 4.0, "missed%": 0.0, "norm_cost": 0.432},
    {"interval_s": 8360, "interval_scale": 16.0, "missed%": 0.0, "norm_cost": 0.478},
]
PHASE_SKEW_ROWS = [
    {"accounting": "time", "missed%": 0.0, "norm_cost": 0.863},
    {"accounting": "raw", "missed%": 50.0, "norm_cost": 0.549},
]
# Same setup; default leads (0, 120 and 600 s), 4 simulations per row.
WARNING_ROWS = [
    {"warning_s": 0.0, "norm_cost": 0.313, "missed%": 0.0, "evictions/run": 1.0},
    {"warning_s": 120.0, "norm_cost": 0.269, "missed%": 0.0, "evictions/run": 1.0},
    {"warning_s": 600.0, "norm_cost": 0.265, "missed%": 50.0, "evictions/run": 0.75},
]

# (catalog, configs, slack%, normalized_cost, missed%, deployments/run) —
# ExperimentSetup(seed=17, trace_days=10), PageRank, 3 simulations.
CATALOG_CELLS = [
    ("paired-3", 6, 30, 0.3008638642257684, 0.0, 1.3333333333333333),
    ("paired-3", 6, 80, 0.24971554695242462, 0.0, 1.0),
    ("grid-9", 18, 30, 0.743768751967731, 0.0, 2.0),
    ("grid-9", 18, 80, 0.22254542311017542, 0.0, 2.0),
]

# (strategy, app, slack%, normalized_cost, missed%, sims) — the CLI's
# quick frontier-accounting grid: ExperimentSetup(seed=42), slacks 0.3
# and 0.8, 4 simulations.
FIG_ELASTIC_CELLS = [
    ("hourglass/raw", "sssp", 30, 0.61976318110878, 0.0, 4),
    ("hourglass/time", "sssp", 30, 0.45535915926543463, 0.0, 4),
    ("hourglass/raw", "sssp", 80, 0.3606810545469303, 0.0, 4),
    ("hourglass/time", "sssp", 80, 0.24407594191085952, 0.0, 4),
]

# One PageRank(12) job through HourglassRuntime released at 51 h on the
# shared ``long_market`` fixture: (cost, evictions, deployments).
RUNTIME_JOB = (4.175288344128197, 2, 6)


def test_fig5_cells():
    setup = ExperimentSetup(seed=42, trace_days=12)
    cells = [
        sweep_strategy(setup, profile, slack, strategy, num_simulations=6)
        for profile in (SSSP_PROFILE, PAGERANK_PROFILE)
        for slack in (0.2, 0.8)
        for strategy in ("hourglass", "spoton+dp")
    ]
    assert [
        (
            c.strategy,
            c.app,
            c.slack_percent,
            c.normalized_cost,
            c.missed_percent,
            c.simulations,
            c.mean_evictions,
            c.mean_deployments,
        )
        for c in cells
    ] == FIG5_CELLS


@pytest.fixture(scope="module")
def ablation_setup() -> ExperimentSetup:
    return ExperimentSetup(seed=5, trace_days=10)


def test_checkpoint_interval_ablation(ablation_setup):
    rows = ablations.checkpoint_interval_ablation(
        ablation_setup, scales=(4.0, 16.0), num_simulations=4
    )
    assert rows == CKPT_INTERVAL_ROWS


def test_phase_skew_ablation(ablation_setup):
    rows = ablations.phase_skew_ablation(ablation_setup, num_simulations=4)
    assert rows == PHASE_SKEW_ROWS


def test_warning_ablation(ablation_setup):
    rows = ablations.warning_ablation(ablation_setup, num_simulations=4)
    assert rows == WARNING_ROWS


def test_fig_elastic_cells():
    cells = fig_elastic.run(ExperimentSetup(seed=42), slacks=(0.3, 0.8), num_simulations=4)
    assert [
        (
            c.strategy,
            c.app,
            c.slack_percent,
            c.normalized_cost,
            c.missed_percent,
            c.simulations,
        )
        for c in cells
    ] == FIG_ELASTIC_CELLS


def test_catalog_study_cells():
    cells = catalog_study.run(
        ExperimentSetup(seed=17, trace_days=10),
        profile=PAGERANK_PROFILE,
        slacks=(0.3, 0.8),
        num_simulations=3,
    )
    assert [
        (
            c.strategy,
            len(catalog_study.CATALOGS[c.strategy]),
            c.slack_percent,
            c.normalized_cost,
            c.missed_percent,
            c.mean_deployments,
        )
        for c in cells
    ] == CATALOG_CELLS


def test_runtime_pagerank_job(long_market):
    graph = generators.community_graph(1500, num_communities=12, avg_degree=12, seed=4)
    runtime = HourglassRuntime(
        graph,
        lambda: PageRank(iterations=12),
        long_market,
        tuple(default_catalog()),
        HourglassProvisioner(),
        num_micro_parts=32,
        seed=2,
        time_scale=3000.0,
        data_scale=20_000,
    )
    budget = runtime.perf.fixed_time(runtime.lrc) + 1.5 * runtime.perf.exec_time(
        runtime.lrc
    )
    result = runtime.execute(51 * HOURS, 51 * HOURS + budget)
    assert (result.cost, result.evictions, result.deployments) == RUNTIME_JOB
