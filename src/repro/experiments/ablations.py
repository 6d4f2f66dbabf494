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

from repro.core.ckpt_policy import daly_interval
from repro.core.job import COLORING_PROFILE
from repro.core.perfmodel import RELOAD_MICRO
from repro.core.warning import NO_WARNING, WarningPolicy
from repro.experiments.common import (
    CellResult,
    ExperimentSetup,
    SweepTask,
    run_sweep_tasks,
)
from repro.experiments.report import format_table
from repro.graph.datasets import get_dataset
from repro.partitioning.micro import MicroPartitioner
from repro.partitioning.multilevel import MultilevelPartitioner
from repro.partitioning.quality import edge_cut_fraction
from repro.utils.units import HOURS


def _gc_cells(setup, strategy, slack, num_simulations, variants) -> list[CellResult]:
    """One GC cell per variant (a dict of extra :class:`SweepTask` fields).

    Every simulated ablation anchors the deadline and the baseline on the
    micro-reload model its strategy runs, with 60 h of start headroom.
    """
    return run_sweep_tasks(
        setup,
        [
            SweepTask(
                COLORING_PROFILE, slack, strategy, num_simulations, RELOAD_MICRO,
                anchor=RELOAD_MICRO, budget=60 * HOURS, **variant,
            )
            for variant in variants
        ],
    )


def _outcome(cell: CellResult) -> dict:
    return {
        "norm_cost": round(cell.normalized_cost, 3),
        "missed%": round(cell.missed_percent, 1),
    }


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
    cells = _gc_cells(
        setup, "hourglass", slack, num_simulations,
        [{"seed_key": "ckpt-interval", "ckpt_interval_scale": s} for s in scales],
    )
    perf = setup.perf_model(COLORING_PROFILE, RELOAD_MICRO)
    spot = next(c for c in setup.catalog if c.is_transient)
    daly = daly_interval(perf.save_time(spot), setup.market.eviction_model(spot).mttf)
    return [
        {"interval_scale": scale, "interval_s": round(scale * daly), **_outcome(cell)}
        for scale, cell in zip(scales, cells)
    ]


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
    cells = _gc_cells(
        setup or ExperimentSetup(), "spoton", slack, num_simulations,
        [
            {
                "seed_key": f"warn-{lead}",
                "warning": WarningPolicy(lead_seconds=lead) if lead else NO_WARNING,
            }
            for lead in leads
        ],
    )
    return [
        {"warning_s": lead, **_outcome(cell), "evictions/run": round(cell.mean_evictions, 2)}
        for lead, cell in zip(leads, cells)
    ]


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

    skewed = PhaseModel([Phase(0.8, 5.0), Phase(0.2, 0.21)])
    accountings = (ACCOUNT_TIME, ACCOUNT_RAW)
    cells = _gc_cells(
        setup or ExperimentSetup(), "hourglass", slack, num_simulations,
        [
            {"seed_key": "phase-skew", "phase_model": skewed, "work_accounting": a}
            for a in accountings
        ],
    )
    return [
        {"accounting": accounting, **_outcome(cell)}
        for accounting, cell in zip(accountings, cells)
    ]


def render(rows, title: str) -> str:
    """Render the experiment rows as an aligned text table."""
    return format_table(rows, title=title)
