"""Degree counting — the simplest vertex program, used in tests/examples."""

from __future__ import annotations

import numpy as np

from repro.engine.messages import SumCombiner
from repro.engine.vertex import DenseComputeContext, VertexProgram


class OutDegree(VertexProgram):
    """Vertex value = its out-degree; one superstep, no messages."""

    value_dtype = np.int64

    def initial_values(self, num_vertices: int) -> np.ndarray:
        """Whole initial value array at once."""
        return np.zeros(num_vertices, dtype=np.int64)

    def compute_dense(self, ctx: DenseComputeContext) -> None:
        """One batched superstep over all active vertices."""
        ctx.values[ctx.active] = ctx.out_degrees()[ctx.active]
        ctx.vote_to_halt(ctx.active)


class InDegree(VertexProgram):
    """Vertex value = its in-degree; two supersteps via counting messages."""

    combiner = SumCombiner
    message_bytes = 8
    value_dtype = np.int64

    def initial_values(self, num_vertices: int) -> np.ndarray:
        """Whole initial value array at once."""
        return np.zeros(num_vertices, dtype=np.int64)

    def compute_dense(self, ctx: DenseComputeContext) -> None:
        """One batched superstep over all active vertices."""
        if ctx.superstep == 0:
            ones = np.ones(ctx.num_vertices, dtype=np.int64)
            ctx.send_to_all_neighbors(ctx.active, ones)
        else:
            woken = ctx.active & ctx.has_message
            ctx.values[woken] = ctx.messages[woken]
        ctx.vote_to_halt(ctx.active)
