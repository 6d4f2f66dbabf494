"""Tests for the catalogue-breadth extension study."""

from __future__ import annotations

import pytest

from repro.cloud import full_grid_catalog
from repro.core import PAGERANK_PROFILE
from repro.experiments import ExperimentSetup, catalog_study


@pytest.fixture(scope="module")
def setup():
    return ExperimentSetup(seed=17, trace_days=10)


class TestCatalogStudy:
    def test_cells_cover_both_catalogs(self, setup):
        cells = catalog_study.run(
            setup, profile=PAGERANK_PROFILE, slacks=(0.5,), num_simulations=3
        )
        assert {c.strategy for c in cells} == {"paired-3", "grid-9"}
        assert len(catalog_study.CATALOGS["grid-9"]) == len(full_grid_catalog())

    def test_deadline_safety_on_grid(self, setup):
        cells = catalog_study.run(
            setup, profile=PAGERANK_PROFILE, slacks=(0.3, 0.8), num_simulations=3
        )
        assert all(c.missed_percent == 0 for c in cells)

    def test_render(self, setup):
        cells = catalog_study.run(
            setup, profile=PAGERANK_PROFILE, slacks=(0.5,), num_simulations=2
        )
        rendered = catalog_study.render(cells)
        assert "Catalogue-breadth" in rendered
        assert "grid-9" in rendered

    def test_rows(self, setup):
        cells = catalog_study.run(
            setup, profile=PAGERANK_PROFILE, slacks=(0.5,), num_simulations=2
        )
        header = catalog_study.render(cells).splitlines()[1].split()
        assert {"catalog", "configs", "slack%", "norm_cost"} <= set(header)
