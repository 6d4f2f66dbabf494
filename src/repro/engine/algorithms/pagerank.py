"""PageRank vertex program (Brin & Page), one of the paper's three jobs."""

from __future__ import annotations

import numpy as np

from repro.engine.aggregators import SumAggregator
from repro.engine.messages import SumCombiner
from repro.engine.vertex import DenseComputeContext, VertexProgram


class PageRank(VertexProgram):
    """Iterative PageRank with damping, fixed iteration count.

    The paper runs 30 iterations on the Twitter graph (its "medium" job,
    20 minutes on the last-resort configuration).  Dangling vertices
    (out-degree 0) leak rank, as in the classic Pregel formulation.

    Args:
        iterations: number of rank-update supersteps.
        damping: damping factor (default 0.85).
    """

    combiner = SumCombiner
    message_bytes = 8
    value_dtype = np.float64

    def __init__(self, iterations: int = 30, damping: float = 0.85):
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        if not 0.0 < damping < 1.0:
            raise ValueError(f"damping must be in (0, 1), got {damping}")
        self.iterations = iterations
        self.damping = damping

    def aggregators(self):
        """Aggregator factories used by this program."""
        return {"rank_sum": SumAggregator}

    def initial_values(self, num_vertices: int) -> np.ndarray:
        """Whole initial value array at once."""
        return np.full(num_vertices, 1.0 / num_vertices, dtype=np.float64)

    def compute_dense(self, ctx: DenseComputeContext) -> None:
        """One batched superstep over all active vertices."""
        values = ctx.values
        active = ctx.active
        if ctx.superstep > 0:
            incoming = np.where(ctx.has_message, ctx.messages, 0.0)
            values[active] = (
                (1.0 - self.damping) / ctx.num_vertices
                + self.damping * incoming[active]
            )
        ctx.aggregate("rank_sum", float(values[active].sum()))
        if ctx.superstep < self.iterations:
            degrees = ctx.out_degrees()
            senders = active & (degrees > 0)
            ctx.send_to_all_neighbors(senders, values / np.maximum(degrees, 1))
        else:
            ctx.vote_to_halt(active)
