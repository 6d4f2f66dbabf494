"""Figure 6: loading times of the three loading strategies.

For Orkut, RMAT-24, RMAT-25, RMAT-26 and Twitter (paper-scale byte
volumes) and 2/4/8/16 loading machines, report the simulated loading
time of the Stream, Hash and Micro loaders.  Expected shape: Stream flat
in the machine count and growing with dataset size; Hash hurt by the
all-to-all shuffle (worst at few machines); Micro one to two orders of
magnitude faster, with the gap widening on bigger datasets.

The numbers come from the same loader timing functions
(:mod:`repro.engine.loader`) the simulator uses; a companion functional
check (exercised by the test suite) runs the actual loaders on
repro-scale graphs and verifies the produced partitionings.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine import loader
from repro.utils.table import format_table
from repro.graph.datasets import get_dataset

DATASETS = ("orkut", "rmat-24", "rmat-25", "rmat-26", "twitter")
MACHINE_COUNTS = (2, 4, 8, 16)
STRATEGIES = ("stream", "hash", "micro")


@dataclass(frozen=True)
class LoadingCell:
    """One bar of Fig 6."""

    dataset: str
    strategy: str
    machines: int
    seconds: float

    def as_row(self) -> dict:
        """Flatten to a plain dict for tabular reports."""
        return {
            "dataset": self.dataset,
            "machines": self.machines,
            "strategy": self.strategy,
            "load_s": round(self.seconds, 1),
        }


def run(datasets=DATASETS, machine_counts=MACHINE_COUNTS) -> list[LoadingCell]:
    """Evaluate the loading-time model across the Fig 6 grid."""
    cells = []
    for name in datasets:
        spec = get_dataset(name)
        for machines in machine_counts:
            for strategy in STRATEGIES:
                seconds = loader.estimate(
                    strategy, spec.paper_edges, spec.paper_vertices, machines
                )
                cells.append(
                    LoadingCell(
                        dataset=name,
                        strategy=strategy,
                        machines=machines,
                        seconds=seconds,
                    )
                )
    return cells


def speedups(cells) -> list[dict]:
    """Micro loader speedup vs Stream and Hash, averaged over machines.

    Mirrors the paper's §8.3.1 summary numbers (micro 10-80x faster than
    stream, 3-65x faster than hash, growing with dataset size).
    """
    rows = []
    for dataset in dict.fromkeys(c.dataset for c in cells):
        per_machines = {}
        for c in cells:
            if c.dataset == dataset:
                per_machines.setdefault(c.machines, {})[c.strategy] = c.seconds
        vs_stream = [m["stream"] / m["micro"] for m in per_machines.values()]
        vs_hash = [m["hash"] / m["micro"] for m in per_machines.values()]
        rows.append(
            {
                "dataset": dataset,
                "micro_vs_stream": round(sum(vs_stream) / len(vs_stream), 1),
                "micro_vs_hash": round(sum(vs_hash) / len(vs_hash), 1),
            }
        )
    return rows


def render(cells) -> str:
    """Render the experiment rows as an aligned text table."""
    table = format_table(
        [c.as_row() for c in cells],
        columns=["dataset", "machines", "strategy", "load_s"],
        title="Figure 6 — loading times (simulated seconds, paper-scale datasets)",
    )
    summary = format_table(
        speedups(cells),
        title="Micro-loader speedups (averaged over machine counts)",
    )
    return table + "\n\n" + summary
