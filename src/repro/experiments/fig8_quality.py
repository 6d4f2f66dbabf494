"""Figure 8: partition quality of micro-partition clustering.

For five graphs and every target partition count k in {2..64}, compare
the edge-cut percentage of:

* the **base** partitioner run directly for k parts (METIS-like
  multilevel, or FENNEL);
* **micro clustering**: 64 micro-partitions built once with the base
  partitioner, then clustered into k parts online (M-MICRO / F-MICRO);
* **random** assignment (expected cut ``1 - 1/k``).

Paper's finding: micro-clustering costs only ~1.7-5 % (METIS) and
~4.2-7.7 % (FENNEL) extra edge cut versus re-running the base
partitioner from scratch, while being computable in milliseconds.

Unlike Figs 1/5/7 (trace simulations), this experiment runs the real
partitioner implementations on repro-scale synthetic stand-ins of the
paper's datasets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.datasets import get_dataset
from repro.partitioning.fennel import FennelPartitioner
from repro.partitioning.micro import MicroPartitioner
from repro.partitioning.multilevel import MultilevelPartitioner
from repro.partitioning.quality import edge_cut_fraction, random_cut_expectation
from repro.utils.table import format_table

DATASETS = ("orkut", "human-gene", "wiki", "hollywood", "twitter")
PARTITION_COUNTS = (2, 4, 8, 16, 32, 64)
NUM_MICRO_PARTS = 64


@dataclass(frozen=True)
class QualityCell:
    """One point of Fig 8."""

    dataset: str
    base: str  # "metis" | "fennel"
    num_parts: int
    base_cut_percent: float
    micro_cut_percent: float
    random_cut_percent: float

    @property
    def degradation_percent(self) -> float:
        """Extra edges cut by micro-clustering vs the base partitioner."""
        return self.micro_cut_percent - self.base_cut_percent

    def as_row(self) -> dict:
        """Flatten to a plain dict for tabular reports."""
        return {
            "dataset": self.dataset,
            "base": self.base,
            "k": self.num_parts,
            "base_cut%": round(self.base_cut_percent, 1),
            "micro_cut%": round(self.micro_cut_percent, 1),
            "random%": round(self.random_cut_percent, 1),
            "delta%": round(self.degradation_percent, 1),
        }


def _base_partitioners():
    return {
        "metis": lambda: MultilevelPartitioner(),
        "fennel": lambda: FennelPartitioner(),
    }


def run(
    datasets=DATASETS,
    partition_counts=PARTITION_COUNTS,
    bases=("metis", "fennel"),
    seed: int = 42,
) -> list[QualityCell]:
    """Run the Fig 8 grid on repro-scale graphs."""
    factories = _base_partitioners()
    cells = []
    for name in datasets:
        graph = get_dataset(name).generate(seed=seed)
        for base in bases:
            factory = factories[base]
            artefact = MicroPartitioner(
                base=factory(), num_micro_parts=NUM_MICRO_PARTS
            ).build(graph, seed=seed)
            for k in partition_counts:
                direct = factory().partition(graph, k, seed=seed)
                clustered = artefact.cluster(k, seed=seed)
                cells.append(
                    QualityCell(
                        dataset=name,
                        base=base,
                        num_parts=k,
                        base_cut_percent=100 * edge_cut_fraction(graph, direct),
                        micro_cut_percent=100 * edge_cut_fraction(graph, clustered),
                        random_cut_percent=100 * random_cut_expectation(k),
                    )
                )
    return cells


def average_degradation(cells) -> list[dict]:
    """Per-dataset mean micro-vs-base degradation (§8.3.3's numbers)."""
    rows = []
    for base in dict.fromkeys(c.base for c in cells):
        for dataset in dict.fromkeys(c.dataset for c in cells):
            matching = [
                c for c in cells
                if c.base == base and c.dataset == dataset and c.num_parts < NUM_MICRO_PARTS
            ]
            if not matching:
                continue
            mean = sum(c.degradation_percent for c in matching) / len(matching)
            rows.append({"base": base, "dataset": dataset, "mean_delta%": round(mean, 2)})
    return rows


def render(cells) -> str:
    """Render the experiment rows as an aligned text table."""
    table = format_table(
        [c.as_row() for c in cells],
        title="Figure 8 — edge-cut %: base partitioner vs micro-clustering vs random",
    )
    summary = format_table(
        average_degradation(cells),
        title="Mean micro-clustering degradation (k < 64), cf. paper §8.3.3",
    )
    return table + "\n\n" + summary


if __name__ == "__main__":  # pragma: no cover
    print(render(run(datasets=("hollywood",), partition_counts=(2, 8, 32))))
