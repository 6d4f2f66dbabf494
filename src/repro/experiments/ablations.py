"""Ablation studies for Hourglass's design choices.

Three ablations over knobs DESIGN.md calls out:

* :func:`checkpoint_interval_ablation` — Daly's optimal interval vs
  scaled variants (half / double / fixed), measuring GC cost.  Validates
  adopting [Daly 2006] (§5.1).
* :func:`micro_count_ablation` — number of micro-partitions (16 to 256)
  vs clustering quality and quotient size.  Validates the LCM-based
  choice (§6.2): too few shards hurt balance/quality headroom, too many
  shrink per-shard locality.
* :func:`warning_ablation` — the §9 eviction-warning extension: cost
  with and without a provider warning, for the eager strategy (which
  suffers evictions the most).
"""

from __future__ import annotations

import numpy as np

from repro.core.ckpt_policy import daly_interval
from repro.core.job import COLORING_PROFILE, job_with_slack
from repro.core.perfmodel import RELOAD_MICRO
from repro.core.simulator import ExecutionSimulator, on_demand_baseline_cost
from repro.core.warning import NO_WARNING, WarningPolicy
from repro.experiments.common import ExperimentSetup
from repro.experiments.report import format_table
from repro.graph.datasets import get_dataset
from repro.partitioning.micro import MicroPartitioner
from repro.partitioning.multilevel import MultilevelPartitioner
from repro.partitioning.quality import edge_cut_fraction
from repro.utils.units import HOURS


def checkpoint_interval_ablation(
    setup: ExperimentSetup | None = None,
    scales=(0.1, 0.5, 1.0, 4.0, 16.0),
    num_simulations: int = 10,
    slack: float = 0.5,
) -> list[dict]:
    """GC cost as the checkpoint interval deviates from Daly's optimum.

    ``scales`` multiply the simulator's Daly interval directly: small
    scales over-checkpoint (pure overhead), large scales under-checkpoint
    (big losses per eviction).
    """
    setup = setup or ExperimentSetup()
    profile = COLORING_PROFILE
    perf = setup.perf_model(profile, RELOAD_MICRO)
    lrc = setup.lrc(perf)
    baseline = on_demand_baseline_cost(perf, lrc)
    rows = []
    for scale in scales:
        sim = ExecutionSimulator(
            setup.market, perf, setup.catalog, "hourglass",
            record_events=False, ckpt_interval_scale=scale,
        )
        starts = setup.start_times(
            num_simulations, 60 * HOURS, seed_key="ckpt-interval"
        )
        costs = []
        missed = 0
        for start in starts:
            job = job_with_slack(profile, float(start), slack, perf.fixed_time(lrc))
            result = sim.run(job)
            costs.append(result.cost)
            missed += result.missed_deadline
        spot = next(c for c in setup.catalog if c.is_transient)
        interval = scale * daly_interval(
            perf.save_time(spot), setup.market.eviction_model(spot).mttf
        )
        rows.append(
            {
                "interval_scale": scale,
                "interval_s": round(interval),
                "norm_cost": round(float(np.mean(costs)) / baseline, 3),
                "missed%": round(100 * missed / num_simulations, 1),
            }
        )
    return rows


def micro_count_ablation(
    dataset: str = "hollywood",
    micro_counts=(16, 32, 64, 128, 256),
    target_parts: int = 8,
    seed: int = 42,
) -> list[dict]:
    """Clustering quality and quotient size vs micro-partition count."""
    graph = get_dataset(dataset).generate(seed=seed)
    direct = MultilevelPartitioner().partition(graph, target_parts, seed=seed)
    direct_cut = 100 * edge_cut_fraction(graph, direct)
    rows = []
    for count in micro_counts:
        artefact = MicroPartitioner(num_micro_parts=count).build(graph, seed=seed)
        clustered = artefact.cluster(target_parts, seed=seed)
        rows.append(
            {
                "micro_parts": count,
                "quotient_edges": artefact.quotient.num_edges,
                "micro_cut%": round(100 * edge_cut_fraction(graph, clustered), 1),
                "direct_cut%": round(direct_cut, 1),
            }
        )
    return rows


def warning_ablation(
    setup: ExperimentSetup | None = None,
    leads=(0.0, 120.0, 600.0),
    num_simulations: int = 10,
    slack: float = 0.4,
) -> list[dict]:
    """Eager-strategy GC cost under increasing warning leads (§9)."""
    setup = setup or ExperimentSetup()
    profile = COLORING_PROFILE
    perf = setup.perf_model(profile, RELOAD_MICRO)
    lrc = setup.lrc(perf)
    baseline = on_demand_baseline_cost(perf, lrc)
    rows = []
    for lead in leads:
        policy = WarningPolicy(lead_seconds=lead) if lead else NO_WARNING
        sim = ExecutionSimulator(
            setup.market, perf, setup.catalog, "spoton",
            record_events=False, warning=policy,
        )
        starts = setup.start_times(
            num_simulations, 60 * HOURS, seed_key=f"warn-{lead}"
        )
        costs, missed, evictions = [], 0, 0
        for start in starts:
            job = job_with_slack(profile, float(start), slack, perf.fixed_time(lrc))
            result = sim.run(job)
            costs.append(result.cost)
            missed += result.missed_deadline
            evictions += result.evictions
        rows.append(
            {
                "warning_s": lead,
                "norm_cost": round(float(np.mean(costs)) / baseline, 3),
                "missed%": round(100 * missed / num_simulations, 1),
                "evictions/run": round(evictions / num_simulations, 2),
            }
        )
    return rows


def phase_skew_ablation(
    setup: ExperimentSetup | None = None,
    num_simulations: int = 10,
    slack: float = 0.2,
) -> list[dict]:
    """Footnote-2 made concrete: phase skew vs work accounting (§9).

    Runs a GC job whose real progress is front-loaded (a fast first 80 %
    of the work, a very slow tail) under Hourglass, with the provisioner
    fed either the *raw* work fraction (naive; breaks the uniform-pace
    assumption) or the *remaining-time* fraction (the paper's progress
    metric; keeps the model consistent).
    """
    from repro.core.phases import ACCOUNT_RAW, ACCOUNT_TIME, Phase, PhaseModel

    setup = setup or ExperimentSetup()
    profile = COLORING_PROFILE
    perf = setup.perf_model(profile, RELOAD_MICRO)
    lrc = setup.lrc(perf)
    baseline = on_demand_baseline_cost(perf, lrc)
    skewed = PhaseModel([Phase(0.8, 5.0), Phase(0.2, 0.21)])
    rows = []
    for accounting in (ACCOUNT_TIME, ACCOUNT_RAW):
        sim = ExecutionSimulator(
            setup.market, perf, setup.catalog, "hourglass",
            record_events=False, phase_model=skewed, work_accounting=accounting,
        )
        starts = setup.start_times(num_simulations, 60 * HOURS, seed_key="phase-skew")
        costs, missed = [], 0
        for start in starts:
            job = job_with_slack(profile, float(start), slack, perf.fixed_time(lrc))
            result = sim.run(job)
            costs.append(result.cost)
            missed += result.missed_deadline
        rows.append(
            {
                "accounting": accounting,
                "norm_cost": round(float(np.mean(costs)) / baseline, 3),
                "missed%": round(100 * missed / num_simulations, 1),
            }
        )
    return rows


def render(rows, title: str) -> str:
    """Render the experiment rows as an aligned text table."""
    return format_table(rows, title=title)
