"""Table 2: the graph dataset catalogue.

Reports, for every dataset the paper evaluates on, the paper-scale
vertex/edge counts alongside the repro-scale synthetic stand-in actually
generated (and its measured statistics), making the scale substitution
explicit.
"""

from __future__ import annotations

from repro.utils.table import format_table
from repro.graph.datasets import DATASETS, get_dataset, rmat_spec
from repro.graph.stats import compute_stats

ALL_DATASETS = tuple(DATASETS) + ("rmat-24",)


def run(datasets=ALL_DATASETS, seed: int = 42) -> list[dict]:
    """Generate every dataset's stand-in and tabulate both scales."""
    rows = []
    for name in datasets:
        spec = get_dataset(name)
        graph = spec.generate(seed=seed)
        stats = compute_stats(graph)
        rows.append(
            {
                "dataset": spec.name,
                "type": spec.network_type,
                "paper_V": spec.paper_vertices,
                "paper_E": spec.paper_edges,
                "repro_V": stats.num_vertices,
                "repro_E": stats.num_edges,
                "repro_avg_deg": round(stats.avg_out_degree, 1),
                "degree_gini": round(stats.degree_gini, 2),
            }
        )
    return rows


def render(rows) -> str:
    """Render the experiment rows as an aligned text table."""
    return format_table(rows, title="Table 2 — datasets: paper scale vs repro-scale stand-ins")


if __name__ == "__main__":  # pragma: no cover
    print(render(run()))
