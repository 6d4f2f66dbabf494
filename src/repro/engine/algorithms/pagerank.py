"""PageRank vertex program (Brin & Page), one of the paper's three jobs."""

from __future__ import annotations

import numpy as np

from repro.engine.messages import SumCombiner
from repro.engine.vertex import DenseComputeContext, VertexProgram

#: Probability of following a link rather than jumping (Brin & Page).
DAMPING = 0.85


class PageRank(VertexProgram):
    """Iterative PageRank, damped by :data:`DAMPING`, fixed iteration count.

    The paper runs 30 iterations on the Twitter graph (its "medium" job,
    20 minutes on the last-resort configuration).  Dangling vertices
    (out-degree 0) leak rank, as in the classic Pregel formulation.

    Args:
        iterations: number of rank-update supersteps.
    """

    combiner = SumCombiner
    message_bytes = 8
    value_dtype = np.float64

    def __init__(self, iterations: int = 30):
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        self.iterations = iterations

    def initial_values(self, num_vertices: int) -> np.ndarray:
        """Whole initial value array at once."""
        return np.full(num_vertices, 1.0 / num_vertices, dtype=np.float64)

    def compute_dense(self, ctx: DenseComputeContext) -> None:
        """One batched superstep over all active vertices."""
        values = ctx.values
        active = ctx.active
        if ctx.superstep > 0:
            incoming = np.where(ctx.has_message, ctx.messages, 0.0)
            values[active] = (1.0 - DAMPING) / ctx.num_vertices + DAMPING * incoming[active]
        if ctx.superstep < self.iterations:
            degrees = ctx.out_degrees()
            senders = active & (degrees > 0)
            ctx.send_to_all_neighbors(senders, values / np.maximum(degrees, 1))
        else:
            ctx.vote_to_halt(active)
