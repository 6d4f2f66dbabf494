"""Dataset registry mirroring the paper's Table 2.

The registry records, for each dataset the paper uses, both the
**paper-scale** vertex/edge counts (for documentation and for the
loading-time model, which needs realistic byte volumes) and a
**repro-scale** generator that produces a topologically similar graph
small enough to partition and process on a laptop.

>>> from repro.graph.datasets import get_dataset, DATASETS
>>> twitter = get_dataset("twitter")
>>> g = twitter.generate(seed=7)          # repro-scale synthetic stand-in
>>> twitter.paper_edges
1614106187
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.graph import generators
from repro.graph.graph import Graph


@dataclass(frozen=True)
class DatasetSpec:
    """One row of the paper's Table 2 plus its synthetic stand-in."""

    name: str
    network_type: str
    paper_vertices: int
    paper_edges: int
    repro_vertices: int
    generator: Callable[..., Graph]

    def generate(self, seed=None) -> Graph:
        """Produce the repro-scale synthetic stand-in graph."""
        graph = self.generator(self.repro_vertices, seed=seed)
        return Graph(
            indptr=graph.indptr,
            indices=graph.indices,
            weights=graph.weights,
            name=self.name,
        )


def _social(num_vertices: int, seed=None) -> Graph:
    return generators.power_law_social(num_vertices, avg_degree=24.0, seed=seed)


def _web(num_vertices: int, seed=None) -> Graph:
    return generators.power_law_social(
        num_vertices, avg_degree=20.0, exponent=2.3, seed=seed, name="web"
    )


def _collaboration(num_vertices: int, seed=None) -> Graph:
    return generators.community_graph(
        num_vertices, num_communities=max(8, num_vertices // 400), avg_degree=26.0,
        mixing=0.04, seed=seed, name="collaboration",
    )


def _biological(num_vertices: int, seed=None) -> Graph:
    return generators.community_graph(
        num_vertices, num_communities=max(4, num_vertices // 600), avg_degree=30.0,
        mixing=0.08, seed=seed, name="biological",
    )


DATASETS: dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in [
        DatasetSpec(
            name="human-gene",
            network_type="biological",
            paper_vertices=22_283,
            paper_edges=12_323_680,
            repro_vertices=4_000,
            generator=_biological,
        ),
        DatasetSpec(
            name="hollywood",
            network_type="collaboration",
            paper_vertices=1_069_126,
            paper_edges=56_306_653,
            repro_vertices=8_000,
            generator=_collaboration,
        ),
        DatasetSpec(
            name="orkut",
            network_type="social",
            paper_vertices=3_072_626,
            paper_edges=117_185_083,
            repro_vertices=10_000,
            generator=_social,
        ),
        DatasetSpec(
            name="wiki",
            network_type="web pages",
            paper_vertices=5_115_915,
            paper_edges=104_591_689,
            repro_vertices=10_000,
            generator=_web,
        ),
        DatasetSpec(
            name="twitter",
            network_type="social",
            paper_vertices=52_579_678,
            paper_edges=1_614_106_187,
            repro_vertices=16_000,
            generator=_social,
        ),
    ]
}


def rmat_spec(scale: int, repro_scale: int | None = None) -> DatasetSpec:
    """Build a DatasetSpec for the paper's RMAT-N family.

    RMAT-N has ``2^N`` vertices and ``2^(N+4)`` edges.  ``repro_scale``
    (default ``min(scale, 13)``) is the scale actually generated locally.
    """
    effective = repro_scale if repro_scale is not None else min(scale, 13)

    def _gen(num_vertices: int, seed=None) -> Graph:
        return generators.rmat(effective, seed=seed, name=f"rmat-{scale}")

    return DatasetSpec(
        name=f"rmat-{scale}",
        network_type="synthetic",
        paper_vertices=1 << scale,
        paper_edges=1 << (scale + 4),
        repro_vertices=1 << effective,
        generator=_gen,
    )


def get_dataset(name: str) -> DatasetSpec:
    """Look up a dataset by name; RMAT datasets parse ``rmat-<N>``."""
    key = name.lower()
    if key in DATASETS:
        return DATASETS[key]
    if key.startswith("rmat-"):
        try:
            scale = int(key.split("-", 1)[1])
        except ValueError:
            raise KeyError(f"bad RMAT dataset name: {name!r}") from None
        return rmat_spec(scale)
    raise KeyError(
        f"unknown dataset {name!r}; known: {sorted(DATASETS)} or rmat-<N>"
    )
