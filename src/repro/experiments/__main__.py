"""Command-line experiment runner.

Regenerates any subset of the paper's tables/figures and writes the
rendered tables to an output directory::

    python -m repro.experiments --quick fig1 fig6 fig8
    python -m repro.experiments --out results/ all

``--quick`` shrinks simulation counts for a fast smoke pass.  The
full-size output of every simulated and partitioning table (Fig 9 aside:
three of its columns are wall-clock times) is pinned in
``.github/expected/figures.txt``, and ``tests/test_paper_claims.py``
asserts the paper's claims over that pin.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.experiments import (
    ExperimentSetup,
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

EXPERIMENTS = (
    "table2",
    "fig1",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "elastic",
    "ablations",
    "catalog",
)


def _run_one(name: str, setup: ExperimentSetup, quick: bool) -> str:
    sims = 6 if quick else 25
    gc_sims = 4 if quick else 10
    if name == "table2":
        return table2_datasets.render(table2_datasets.run(seed=setup.seed))
    if name == "fig1":
        return fig1_motivation.render(
            fig1_motivation.run(setup, num_simulations=gc_sims if quick else 25)
        )
    if name == "fig5":
        apps = ("pagerank",) if quick else ("sssp", "pagerank", "coloring")
        slacks = (0.2, 0.6, 1.0) if quick else fig5_overall.DEFAULT_SLACKS
        return fig5_overall.render(
            fig5_overall.run(setup, apps=apps, slacks=slacks, num_simulations=sims)
        )
    if name == "fig6":
        return fig6_loading.render(fig6_loading.run())
    if name == "fig7":
        slacks = (0.1, 0.5, 1.0) if quick else fig7_gc_zoom.DEFAULT_SLACKS
        return fig7_gc_zoom.render(
            fig7_gc_zoom.run(setup, slacks=slacks, num_simulations=gc_sims)
        )
    if name == "fig8":
        datasets = ("hollywood", "orkut") if quick else fig8_quality.DATASETS
        return fig8_quality.render(fig8_quality.run(datasets=datasets, seed=setup.seed))
    if name == "fig9":
        slacks = (0.1, 0.5) if quick else fig9_decision_time.DEFAULT_SLACKS
        return fig9_decision_time.render(
            fig9_decision_time.run(setup, slacks=slacks)
        )
    if name == "elastic":
        slacks = (0.3, 0.8) if quick else fig_elastic.DEFAULT_SLACKS
        return fig_elastic.render(
            fig_elastic.run(setup, slacks=slacks, num_simulations=gc_sims)
        )
    if name == "ablations":
        parts = [
            ablations.render(
                ablations.checkpoint_interval_ablation(setup, num_simulations=gc_sims),
                "Ablation — checkpoint interval",
            ),
            ablations.render(
                ablations.micro_count_ablation(seed=setup.seed),
                "Ablation — micro-partition count",
            ),
            ablations.render(
                ablations.warning_ablation(setup, num_simulations=gc_sims),
                "Ablation — eviction warning",
            ),
            ablations.render(
                ablations.phase_skew_ablation(setup, num_simulations=gc_sims),
                "Ablation — phase skew vs work accounting",
            ),
        ]
        return "\n\n".join(parts)
    if name == "catalog":
        return catalog_study.render(catalog_study.run(setup, num_simulations=gc_sims))
    raise ValueError(f"unknown experiment {name!r}")


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments", description=__doc__
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=["all"],
        help=f"which to run: {', '.join(EXPERIMENTS)} or 'all'",
    )
    parser.add_argument("--quick", action="store_true", help="small simulation counts")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", type=Path, default=None, help="directory for .txt outputs")
    args = parser.parse_args(argv)

    names = list(args.experiments)
    if "all" in names:
        names = list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}; options: {EXPERIMENTS}")

    setup = ExperimentSetup(seed=args.seed)
    for name in names:
        started = time.time()
        rendered = _run_one(name, setup, args.quick)
        elapsed = time.time() - started
        print(rendered)
        print(f"[{name} finished in {elapsed:.1f}s]\n", flush=True)
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{name}.txt").write_text(rendered + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
