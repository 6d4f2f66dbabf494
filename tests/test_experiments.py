"""Integration tests: every experiment module runs at tiny scale."""

from __future__ import annotations

import math

import pytest

from repro.core import COLORING_PROFILE
from repro.core.perfmodel import RELOAD_FULL, RELOAD_MICRO
from repro.experiments import (
    ExperimentSetup,
    SweepTask,
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
from repro.experiments.common import offline_partition_cost, sweep_strategy
from repro.utils.table import format_table
from repro.service import SERVICE_STRATEGIES, PlanningService
from repro.utils.units import HOURS


@pytest.fixture(scope="module")
def setup():
    return ExperimentSetup(seed=7, trace_days=12)


class TestCommon:
    def test_perf_model_modes(self, setup):
        micro = setup.perf_model(COLORING_PROFILE, RELOAD_MICRO)
        full = setup.perf_model(COLORING_PROFILE, RELOAD_FULL)
        lrc = setup.lrc(micro)
        assert micro.load_time(lrc) < full.load_time(lrc)

    def test_start_times_leave_headroom(self, setup):
        starts = setup.start_times(20, job_budget=24 * HOURS)
        assert (starts + 24 * HOURS <= setup.market.horizon).all()

    def test_offline_cost_full_more_expensive(self, setup):
        perf = setup.perf_model(COLORING_PROFILE, RELOAD_FULL)
        micro_cost = offline_partition_cost(perf, 3, RELOAD_MICRO)
        full_cost = offline_partition_cost(perf, 3, RELOAD_FULL)
        assert full_cost == pytest.approx(3 * micro_cost)

    def test_strategy_registry_complete(self, setup):
        assert set(SERVICE_STRATEGIES) == {
            "hourglass",
            "elastic",
            "proteus",
            "spoton",
            "proteus+dp",
            "spoton+dp",
            "hourglass-naive",
            "on-demand",
        }
        service = PlanningService(setup.market)
        for name in SERVICE_STRATEGIES:
            provisioner = service.provisioner(name)
            assert provisioner.name in (name, name.replace("-", ""))

    def test_sweep_cell_fields(self, setup):
        cell = sweep_strategy(
            setup,
            COLORING_PROFILE,
            0.5,
            "on-demand",
            num_simulations=3,
        )
        assert cell.simulations == 3
        assert cell.missed_percent == 0.0
        assert 0.9 < cell.normalized_cost < 1.1
        row = cell.as_row()
        assert row["strategy"] == "on-demand"


class TestDegenerateCells:
    """A cell that cannot run is refused when it is described, naming the field."""

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"num_simulations": 0}, "num_simulations"),
            ({"num_simulations": -1}, "num_simulations"),
            ({"num_simulations": 2.5}, "num_simulations"),
            ({"slack_fraction": math.nan}, "slack_fraction"),
            ({"slack_fraction": math.inf}, "slack_fraction"),
            ({"slack_fraction": -0.1}, "slack_fraction"),
            ({"budget": 0.0}, "budget"),
            ({"budget": math.nan}, "budget"),
        ],
    )
    def test_sweep_task_rejects(self, kwargs, field):
        fields = {"profile": COLORING_PROFILE, "slack_fraction": 0.5, "strategy": "hourglass"}
        with pytest.raises(ValueError, match=field):
            SweepTask(**{**fields, **kwargs})

    @pytest.mark.parametrize(
        "run, field",
        [
            (
                lambda setup: sweep_strategy(
                    setup, COLORING_PROFILE, 0.5, "hourglass", num_simulations=0
                ),
                "num_simulations",
            ),
            (
                lambda setup: ablations.checkpoint_interval_ablation(setup, num_simulations=0),
                "num_simulations",
            ),
            (lambda setup: fig_elastic.run(setup, num_simulations=0), "num_simulations"),
            (lambda setup: catalog_study.run(setup, num_simulations=0), "num_simulations"),
            (
                lambda setup: sweep_strategy(setup, COLORING_PROFILE, math.nan, "hourglass"),
                "slack_fraction",
            ),
        ],
        ids=["sweep_strategy", "ckpt-ablation", "elastic", "catalog", "nan-slack"],
    )
    def test_rejected_before_any_simulation(self, setup, run, field):
        with pytest.raises(ValueError, match=field):
            run(setup)


class TestFig1:
    def test_runs_and_orders(self, setup):
        results = fig1_motivation.run(setup, num_simulations=4)
        by_name = {r.strategy: r for r in results}
        assert set(by_name) == {
            "eager",
            "hourglass-naive",
            "slack-aware",
            "slack-aware+fast-reload",
        }
        # Deadline-safe variants never miss.
        assert by_name["hourglass-naive"].missed_percent == 0
        assert by_name["slack-aware"].missed_percent == 0
        assert by_name["slack-aware+fast-reload"].missed_percent == 0
        # Fast reload improves on full reload for the slack-aware policy.
        assert (
            by_name["slack-aware+fast-reload"].normalized_cost
            <= by_name["slack-aware"].normalized_cost + 0.05
        )
        assert "Figure 1" in fig1_motivation.render(results)


class TestFig5:
    def test_small_grid(self, setup):
        results = fig5_overall.run(
            setup,
            apps=("pagerank",),
            slacks=(0.3, 0.8),
            strategies=("hourglass", "spoton", "spoton+dp"),
            num_simulations=4,
        )
        assert len(results) == 6
        assert fig5_overall.check_invariants(results) == []
        rendered = fig5_overall.render(results)
        assert "pagerank" in rendered


class TestFig6:
    def test_grid_and_ordering(self):
        cells = fig6_loading.run()
        assert len(cells) == 5 * 4 * 3
        by_key = {(c.dataset, c.strategy, c.machines): c.seconds for c in cells}
        for dataset in fig6_loading.DATASETS:
            for machines in fig6_loading.MACHINE_COUNTS:
                micro = by_key[(dataset, "micro", machines)]
                hashed = by_key[(dataset, "hash", machines)]
                stream = by_key[(dataset, "stream", machines)]
                assert micro < hashed < stream

    def test_speedups_grow_with_scale(self):
        cells = fig6_loading.run()
        rows = {r["dataset"]: r for r in fig6_loading.speedups(cells)}
        assert rows["twitter"]["micro_vs_stream"] > rows["orkut"]["micro_vs_stream"]
        assert "Figure 6" in fig6_loading.render(cells)


class TestFig7:
    def test_three_curves(self, setup):
        results = fig7_gc_zoom.run(setup, slacks=(0.5,), num_simulations=3)
        names = {r.strategy for r in results}
        assert names == {"slackaware+metis", "slackaware+umetis", "spoton+dp+umetis"}
        for r in results:
            assert r.missed_percent == 0
        assert "Figure 7" in fig7_gc_zoom.render(results)


class TestFigElastic:
    def test_quick_grid_claims(self):
        """The CLI's quick grid: elastic never misses and plans a shrink."""
        results = fig_elastic.run(
            ExperimentSetup(seed=42), slacks=(0.3, 0.8), num_simulations=4
        )
        assert fig_elastic.check_invariants(results) == []
        elastic = [r for r in results if r.strategy == "elastic"]
        static = [r for r in results if r.strategy == "hourglass"]
        assert len(elastic) == len(static) == 2
        assert any(r.mean_shrinks > 0 for r in elastic)
        # A planned move that charged reload time also counted a rescale.
        for r in elastic:
            if r.mean_rescale_seconds > 0:
                assert r.mean_rescales > 0
        # The static arm never rescales.
        for r in static:
            assert r.mean_rescales == 0
            assert r.mean_rescale_seconds == 0
        assert "Elastic rescaling" in fig_elastic.render(results)


class TestFig8:
    def test_small_quality_grid(self):
        cells = fig8_quality.run(
            datasets=("hollywood",), partition_counts=(2, 8), bases=("metis",), seed=3
        )
        assert len(cells) == 2
        for cell in cells:
            assert cell.micro_cut_percent <= cell.random_cut_percent + 5
            assert 0 <= cell.base_cut_percent <= 100
        summary = fig8_quality.average_degradation(cells)
        assert summary[0]["dataset"] == "hollywood"
        assert "Figure 8" in fig8_quality.render(cells)


class TestFig9:
    def test_sssp_cell(self, setup):
        cells = fig9_decision_time.run(
            setup, apps=("sssp",), slacks=(0.3,), exact_dt=60.0, exact_budget=400_000
        )
        (cell,) = cells
        assert cell.approx_ms > 0
        # The exact estimator finishes on the short job, and the
        # approximation lands close to it (paper: ~3 % on average).
        assert cell.exact_ms is not None
        assert cell.dfo_percent is not None
        assert cell.dfo_percent < 40.0
        assert "Figure 9" in fig9_decision_time.render(cells)

    def test_budget_produces_dnf(self, setup):
        cells = fig9_decision_time.run(
            setup, apps=("coloring",), slacks=(1.0,), exact_dt=5.0, exact_budget=3_000
        )
        (cell,) = cells
        assert cell.exact_ms is None
        assert cell.as_row()["exact_ms"] == "DNF"


class TestTable2:
    def test_rows(self):
        rows = table2_datasets.run(datasets=("orkut", "rmat-24"), seed=3)
        assert rows[0]["dataset"] == "orkut"
        assert rows[0]["paper_V"] == 3_072_626
        assert rows[1]["paper_E"] == 1 << 28
        assert "Table 2" in table2_datasets.render(rows)


class TestReportFormatting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}]
        rendered = format_table(rows, title="T")
        lines = rendered.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no data)" in format_table([])
