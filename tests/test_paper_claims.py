"""The paper's claims (§8), asserted over the pinned full-size tables.

``.github/expected/figures.txt`` is the output of::

    python -m repro.experiments table2 fig1 fig5 fig6 fig7 fig8 elastic ablations catalog

with its ``finished in`` lines dropped; CI's ``smoke (figures)`` row
diffs a fresh run against it.  These tests run no simulation: they parse
the pinned tables and check every non-timing claim the paper makes about
them.  A change that re-pins a figure must keep these claims true, or
change this file in the same diff and say why.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

PIN = Path(__file__).resolve().parents[1] / ".github" / "expected" / "figures.txt"


def _value(text: str):
    """A table cell as an int (``10,242``), a float, or the text itself."""
    plain = text.replace(",", "")
    for kind in (int, float):
        try:
            return kind(plain)
        except ValueError:
            pass
    return text


def _parse(text: str) -> dict[str, list[dict]]:
    """Title -> rows for every table: columns split on 2+ spaces."""
    tables = {}
    for block in text.split("\n\n"):
        lines = block.strip("\n").splitlines()
        if len(lines) < 3:
            continue
        title, header, _rule, *body = lines
        columns = re.split(r" {2,}", header.strip())
        tables[title] = [
            dict(zip(columns, map(_value, re.split(r" {2,}", line.strip()))))
            for line in body
        ]
    return tables


@pytest.fixture(scope="module")
def tables():
    return _parse(PIN.read_text())


def _table(tables, prefix: str) -> list[dict]:
    (title,) = [t for t in tables if t.startswith(prefix)]
    return tables[title]


def _by(rows, *keys) -> dict:
    return {tuple(row[k] for k in keys) if len(keys) > 1 else row[keys[0]]: row for row in rows}


def test_parser_reads_thousands_and_text():
    rows = _parse("T\na    b  c\n---  -  -\n10,242  web pages  0.5\n")["T"]
    assert rows == [{"a": 10242, "b": "web pages", "c": 0.5}]


class TestTable2:
    def test_paper_constants(self, tables):
        rows = _by(_table(tables, "Table 2"), "dataset")
        assert rows["twitter"]["paper_V"] == 52_579_678
        assert rows["twitter"]["paper_E"] == 1_614_106_187
        assert rows["orkut"]["paper_E"] == 117_185_083
        assert rows["human-gene"]["paper_V"] == 22_283
        assert rows["rmat-24"]["paper_E"] == 1 << 28

    def test_stand_ins_are_sane(self, tables):
        rows = _by(_table(tables, "Table 2"), "dataset")
        assert all(row["repro_E"] > 0 for row in rows.values())
        # Social graphs are skewed at least as much as the gene network.
        assert rows["twitter"]["degree_gini"] > rows["human-gene"]["degree_gini"] - 0.4


class TestFig1:
    """Paper: eager 0.37 / 79 %, naive 0.77 / 0, slack-aware 0.57 / 0,
    slack-aware + fast reload 0.37 / 0 (normalised cost / missed)."""

    def test_only_eager_misses(self, tables):
        rows = _by(_table(tables, "Figure 1"), "strategy")
        assert rows["eager"]["missed%"] > 30
        for name in ("hourglass-naive", "slack-aware", "slack-aware+fast-reload"):
            assert rows[name]["missed%"] == 0, name

    def test_cost_ordering(self, tables):
        rows = _by(_table(tables, "Figure 1"), "strategy")
        full = rows["slack-aware+fast-reload"]["norm_cost"]
        assert rows["eager"]["norm_cost"] < 0.6
        assert full < rows["hourglass-naive"]["norm_cost"]
        assert full <= rows["slack-aware"]["norm_cost"] + 0.05
        assert full < 0.6


class TestFig5:
    APPS = ("sssp", "pagerank", "coloring")

    @pytest.mark.parametrize("app", APPS)
    def test_deadline_safe_strategies_never_miss(self, tables, app):
        for row in _table(tables, f"Figure 5 — {app}:"):
            if row["strategy"] == "hourglass" or row["strategy"].endswith("+dp"):
                assert row["missed%"] == 0, row

    @pytest.mark.parametrize("app", APPS)
    def test_hourglass_always_saves(self, tables, app):
        for row in _table(tables, f"Figure 5 — {app}:"):
            if row["strategy"] == "hourglass":
                assert row["norm_cost"] < 1.0, row

    def test_greedy_misses_the_long_job_at_small_slack(self, tables):
        rows = _table(tables, "Figure 5 — coloring:")
        greedy = [
            r["missed%"] for r in rows
            if r["strategy"] in ("spoton", "proteus") and r["slack%"] <= 30
        ]
        assert max(greedy) > 20

    def test_hourglass_savings_grow_with_slack_on_the_long_job(self, tables):
        rows = _by(_table(tables, "Figure 5 — coloring:"), "slack%", "strategy")
        assert rows[100, "hourglass"]["norm_cost"] < rows[10, "hourglass"]["norm_cost"]

    def test_fast_reload_makes_hourglass_cheapest_on_the_short_job(self, tables):
        rows = _by(_table(tables, "Figure 5 — sssp:"), "slack%", "strategy")
        for slack in (10, 50, 100):
            for greedy in ("spoton", "proteus"):
                assert (
                    rows[slack, "hourglass"]["norm_cost"]
                    <= rows[slack, greedy]["norm_cost"] + 0.02
                ), (slack, greedy)


class TestFig6:
    """Paper: micro is 10-80x faster than stream and 3-65x than hash."""

    def test_micro_beats_hash_beats_stream(self, tables):
        rows = _by(_table(tables, "Figure 6"), "dataset", "machines", "strategy")
        cells = {(d, m) for d, m, _ in rows}
        assert len(cells) == 5 * 4
        for dataset, machines in sorted(cells):
            micro = rows[dataset, machines, "micro"]["load_s"]
            hashed = rows[dataset, machines, "hash"]["load_s"]
            stream = rows[dataset, machines, "stream"]["load_s"]
            assert micro < hashed < stream, (dataset, machines)

    def test_speedups_grow_with_scale(self, tables):
        rows = _by(_table(tables, "Micro-loader speedups"), "dataset")
        assert rows["twitter"]["micro_vs_stream"] > 40
        assert rows["orkut"]["micro_vs_stream"] > 5
        assert rows["twitter"]["micro_vs_stream"] > rows["orkut"]["micro_vs_stream"]
        assert rows["twitter"]["micro_vs_hash"] > 5


class TestFig7:
    """Paper: µMETIS is ~23 % cheaper than METIS per configuration on
    average, and slack-awareness beats SpotOn+DP at small slacks."""

    def test_nothing_misses(self, tables):
        for row in _table(tables, "Figure 7"):
            assert row["missed%"] == 0, row

    def test_micro_partitioning_gains(self, tables):
        rows = _by(_table(tables, "Figure 7"), "slack%", "strategy")
        slacks = sorted({s for s, _ in rows})
        gains = [
            rows[s, "slackaware+metis"]["norm_cost"] - rows[s, "slackaware+umetis"]["norm_cost"]
            for s in slacks
        ]
        assert all(g > -0.05 for g in gains), gains
        assert sum(gains) / len(gains) > 0.05

    def test_slack_awareness_wins_at_the_smallest_slack(self, tables):
        rows = _by(_table(tables, "Figure 7"), "slack%", "strategy")
        assert rows[10, "slackaware+umetis"]["norm_cost"] < rows[10, "spoton+dp+umetis"]["norm_cost"]


class TestFig8:
    """Paper: clustering 64 micro-partitions costs a few points of edge
    cut over the base partitioner, and stays far below random."""

    def test_mean_degradation_is_small(self, tables):
        degradations = [r["delta%"] for r in _table(tables, "Figure 8") if r["k"] < 64]
        assert sum(degradations) / len(degradations) < 10.0

    def test_metis_micro_beats_random_on_structured_graphs(self, tables):
        for row in _table(tables, "Figure 8"):
            if row["base"] == "metis" and row["dataset"] in ("hollywood", "human-gene"):
                assert row["micro_cut%"] < row["random%"], row

    def test_identity_clustering_does_not_degrade(self, tables):
        for row in _table(tables, "Figure 8"):
            if row["k"] == 64:
                assert row["micro_cut%"] <= row["base_cut%"] + 7.5, row


class TestAblations:
    def test_daly_interval_is_near_the_best(self, tables):
        rows = _table(tables, "Ablation — checkpoint interval")
        assert all(r["missed%"] == 0 for r in rows)
        by_scale = _by(rows, "interval_scale")
        daly = by_scale[1]["norm_cost"]
        assert daly <= min(r["norm_cost"] for r in rows) + 0.15
        # ...and clearly beats gross under-checkpointing.
        assert daly < by_scale[16]["norm_cost"]

    def test_more_micro_partitions(self, tables):
        rows = _by(_table(tables, "Ablation — micro-partition count"), "micro_parts")
        assert rows[256]["quotient_edges"] > rows[16]["quotient_edges"]
        assert rows[256]["micro_cut%"] <= rows[16]["micro_cut%"] + 1.0
        assert rows[64]["micro_cut%"] < rows[64]["direct_cut%"] + 15.0

    def test_a_warning_only_helps(self, tables):
        rows = _table(tables, "Ablation — eviction warning")
        base, warned = rows[0], rows[-1]
        assert base["warning_s"] == 0
        assert warned["norm_cost"] <= base["norm_cost"] * 1.05

    def test_footnote_two_needs_time_based_accounting(self, tables):
        rows = _by(_table(tables, "Ablation — phase skew"), "accounting")
        assert rows["time"]["missed%"] == 0
        assert rows["raw"]["missed%"] > 0


class TestFrontierAccounting:
    def test_time_accounting_never_misses(self, tables):
        rows = _table(tables, "Frontier-aware accounting")
        time_rows = [r for r in rows if r["strategy"] == "hourglass/time"]
        assert time_rows
        for row in time_rows:
            assert row["missed%"] == 0, row

    def test_time_accounting_costs_no_more_than_raw(self, tables):
        rows = _by(_table(tables, "Frontier-aware accounting"), "strategy", "slack%")
        slacks = sorted({s for _, s in rows})
        assert len(slacks) == 5
        for slack in slacks:
            time_cost = rows["hourglass/time", slack]["norm_cost"]
            assert time_cost <= rows["hourglass/raw", slack]["norm_cost"], slack


class TestCatalogBreadth:
    def test_hourglass_is_safe_on_either_menu(self, tables):
        for row in _table(tables, "Catalogue-breadth study"):
            assert row["missed%"] == 0, row

    def test_the_wider_menu_does_not_cost_more(self, tables):
        rows = _by(_table(tables, "Catalogue-breadth study"), "catalog", "slack%")
        slacks = sorted({s for _, s in rows})
        for slack in slacks:
            # Same feasible set plus more options, modulo simulation noise.
            assert rows["grid-9", slack]["norm_cost"] <= rows["paired-3", slack]["norm_cost"] * 1.25
