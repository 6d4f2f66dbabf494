"""Weakly Connected Components via HashMin label propagation."""

from __future__ import annotations

import numpy as np

from repro.engine.messages import MinCombiner
from repro.engine.vertex import DenseComputeContext, VertexProgram


class ConnectedComponents(VertexProgram):
    """Each vertex converges to the minimum vertex id in its component.

    Run on the symmetrised graph (``graph.undirected()``) for *weakly*
    connected components of a directed input.
    """

    combiner = MinCombiner
    message_bytes = 8
    value_dtype = np.int64

    def initial_values(self, num_vertices: int) -> np.ndarray:
        """Whole initial value array at once."""
        return np.arange(num_vertices, dtype=np.int64)

    def compute_dense(self, ctx: DenseComputeContext) -> None:
        """One batched superstep over all active vertices."""
        values = ctx.values
        if ctx.superstep == 0:
            # Every vertex's label starts as its own id; broadcast it.
            ctx.send_to_all_neighbors(ctx.active, values)
        else:
            candidate = np.where(ctx.has_message, ctx.messages, np.inf)
            improved = ctx.active & (candidate < values)
            values[improved] = candidate[improved]
            ctx.send_to_all_neighbors(improved, values)
        ctx.vote_to_halt(ctx.active)


def component_sizes(values: dict) -> dict:
    """Map component label -> member count."""
    sizes: dict = {}
    for label in values.values():
        sizes[label] = sizes.get(label, 0) + 1
    return sizes
