"""Extension studies beyond the paper's figures.

* Catalogue breadth: Hourglass given the full 3x3 configuration grid vs
  the paper's paired catalogue.
* Mechanistic scaling: the engine-derived coordination penalty that
  justifies the performance model's ``w**-sync_penalty`` law.
"""

from __future__ import annotations

from repro.engine import fit_sync_penalty
from repro.engine.algorithms import PageRank
from repro.experiments import catalog_study
from repro.experiments.report import format_table
from repro.graph import get_dataset


def test_catalog_breadth(benchmark, setup, save_result):
    cells = benchmark.pedantic(
        catalog_study.run,
        kwargs={"setup": setup, "num_simulations": 8},
        rounds=1,
        iterations=1,
    )
    save_result("extension_catalog_breadth", catalog_study.render(cells))

    # Hourglass stays deadline-safe on either menu.
    assert all(c.missed_percent == 0 for c in cells)
    by_key = {(c.strategy, c.slack_percent): c for c in cells}
    for slack in {c.slack_percent for c in cells}:
        paired = by_key[("paired-3", slack)]
        grid = by_key[("grid-9", slack)]
        # The wider menu can only help or match (same feasible set plus
        # more options), modulo simulation noise.
        assert grid.normalized_cost <= paired.normalized_cost * 1.25


def test_end_to_end_runtime(benchmark, setup, save_result):
    """A real PageRank over the market: survives evictions, exact values."""
    from repro.core import HourglassProvisioner, OnDemandProvisioner
    from repro.engine import PregelEngine
    from repro.graph import get_dataset
    from repro.runtime import HourglassRuntime
    from repro.utils.units import HOURS

    graph = get_dataset("hollywood").generate(seed=3)

    def run():
        runtime = HourglassRuntime(
            graph,
            lambda: PageRank(iterations=20),
            setup.market,
            setup.catalog,
            HourglassProvisioner(),
            seed=1,
            time_scale=4000,
            data_scale=10_000,
        )
        budget = runtime.perf.fixed_time(runtime.lrc) + 1.5 * runtime.perf.exec_time(
            runtime.lrc
        )
        results = []
        for start_hours in (2, 40, 90, 150):
            results.append(
                runtime.execute(start_hours * HOURS, start_hours * HOURS + budget)
            )
        runtime.provisioner = OnDemandProvisioner()
        od = runtime.execute(2 * HOURS, 2 * HOURS + budget)
        return runtime, results, od

    runtime, results, od = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        {
            "start": f"{i}",
            "cost_$": round(r.cost, 2),
            "missed": r.missed_deadline,
            "evictions": r.evictions,
            "deployments": r.deployments,
        }
        for i, r in enumerate(results)
    ]
    rows.append({"start": "on-demand", "cost_$": round(od.cost, 2), "missed": False,
                 "evictions": 0, "deployments": 1})
    save_result(
        "extension_end_to_end",
        format_table(rows, title="End-to-end runtime — real PageRank over the market"),
    )

    undisturbed = PregelEngine(
        graph, PageRank(iterations=20), runtime.artefact.cluster(4, seed=1)
    ).run()
    total_evictions = sum(r.evictions for r in results)
    for r in results:
        assert not r.missed_deadline
        assert r.cost < od.cost  # spot beats on-demand in every window
        worst = max(
            abs(r.values[v] - undisturbed.values[v]) for v in undisturbed.values
        )
        assert worst < 1e-12  # recovery is exact
    assert total_evictions >= 1, "expected at least one eviction across windows"


def test_sync_penalty_emerges_from_engine(benchmark, save_result):
    graph = get_dataset("orkut").generate(seed=42)

    def fit():
        return fit_sync_penalty(
            graph, lambda: PageRank(iterations=5), worker_counts=(2, 4, 8, 16), seed=1
        )

    penalty, times = benchmark.pedantic(fit, rounds=1, iterations=1)
    rows = [
        {"workers": w, "modeled_time_s": round(times[w], 2)} for w in sorted(times)
    ]
    rows.append({"workers": "fit w**p", "modeled_time_s": round(penalty, 3)})
    save_result(
        "extension_sync_penalty",
        format_table(rows, title="Mechanistic coordination penalty (equal total capacity)"),
    )
    # The engine reproduces the performance model's qualitative law: a
    # positive coordination exponent (the paper's spread implies 0.66;
    # the exact value depends on the timing constants).
    assert 0.1 < penalty < 1.2
