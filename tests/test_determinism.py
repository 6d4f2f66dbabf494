"""Reproducibility: everything derives deterministically from seeds.

The paper's methodology depends on replaying identical conditions across
strategies ("the experiments can be reproduced and allow us to compare
the different strategies under exactly the same conditions", §8.1).
These tests pin that property for every stochastic layer.
"""

from __future__ import annotations

import numpy as np

from repro.core import PAGERANK_PROFILE
from repro.experiments import ExperimentSetup, sweep_strategy
from repro.experiments.fig8_quality import run as fig8_run
from repro.graph import get_dataset
from repro.partitioning import MicroPartitioner


class TestSetupDeterminism:
    def test_market_traces_identical(self):
        a = ExperimentSetup(seed=77, trace_days=5)
        b = ExperimentSetup(seed=77, trace_days=5)
        for name in a.market.traces:
            assert np.array_equal(
                a.market.traces[name].prices, b.market.traces[name].prices
            )

    def test_different_seed_different_market(self):
        a = ExperimentSetup(seed=77, trace_days=5)
        b = ExperimentSetup(seed=78, trace_days=5)
        some = next(iter(a.market.traces))
        assert not np.array_equal(
            a.market.traces[some].prices, b.market.traces[some].prices
        )

    def test_start_times_repeatable(self):
        a = ExperimentSetup(seed=5, trace_days=5)
        b = ExperimentSetup(seed=5, trace_days=5)
        assert np.array_equal(
            a.start_times(10, 3600.0, "x"), b.start_times(10, 3600.0, "x")
        )

    def test_history_and_evaluation_independent(self):
        setup = ExperimentSetup(seed=5, trace_days=5)
        name = next(iter(setup.market.traces))
        hist_mean = setup.market.stats_for(name).mean_spot_price
        eval_mean = setup.market.traces[name].mean_price()
        assert hist_mean != eval_mean


class TestSweepDeterminism:
    def test_identical_cells(self):
        a = sweep_strategy(
            ExperimentSetup(seed=31, trace_days=8),
            PAGERANK_PROFILE,
            0.5,
            "spoton",
            num_simulations=5,
        )
        b = sweep_strategy(
            ExperimentSetup(seed=31, trace_days=8),
            PAGERANK_PROFILE,
            0.5,
            "spoton",
            num_simulations=5,
        )
        assert a.normalized_cost == b.normalized_cost
        assert a.missed_percent == b.missed_percent
        assert a.mean_evictions == b.mean_evictions


class TestPartitioningDeterminism:
    def test_fig8_cells_repeatable(self):
        a = fig8_run(datasets=("human-gene",), partition_counts=(4,), bases=("metis",), seed=3)
        b = fig8_run(datasets=("human-gene",), partition_counts=(4,), bases=("metis",), seed=3)
        assert a[0].base_cut_percent == b[0].base_cut_percent
        assert a[0].micro_cut_percent == b[0].micro_cut_percent

    def test_micro_artefact_repeatable(self):
        g = get_dataset("human-gene").generate(seed=2)
        a = MicroPartitioner(num_micro_parts=32).build(g, seed=4)
        b = MicroPartitioner(num_micro_parts=32).build(g, seed=4)
        assert np.array_equal(a.micro.assignment, b.micro.assignment)
        assert np.array_equal(
            a.cluster(4, seed=9).assignment, b.cluster(4, seed=9).assignment
        )
