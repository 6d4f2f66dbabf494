"""Single-Source Shortest Paths vertex program (the paper's short job)."""

from __future__ import annotations

import math

import numpy as np

from repro.engine.messages import MinCombiner
from repro.engine.vertex import ComputeContext, DenseComputeContext, VertexProgram


class SSSP(VertexProgram):
    """Bellman-Ford style SSSP in the Pregel model.

    Every vertex holds its tentative distance from ``source`` (infinity
    until reached).  On improvement it relaxes its out-edges; quiescence
    (no improving messages) ends the run.  With unit weights this
    degenerates to BFS, finishing in ``diameter`` supersteps — the
    paper's 3-minute job.

    Args:
        source: the source vertex id.
    """

    combiner = MinCombiner
    message_bytes = 8
    value_dtype = np.float64
    supports_dense = True

    def __init__(self, source: int = 0):
        if source < 0:
            raise ValueError(f"source must be >= 0, got {source}")
        self.source = source

    def initial_value(self, vertex_id: int, num_vertices: int) -> float:
        """Value of *vertex_id* before superstep 0."""
        return 0.0 if vertex_id == self.source else math.inf

    def initial_values(self, num_vertices: int) -> np.ndarray:
        """Whole initial value array at once."""
        values = np.full(num_vertices, np.inf, dtype=np.float64)
        if self.source < num_vertices:
            values[self.source] = 0.0
        return values

    def compute(self, ctx: ComputeContext, messages: list) -> None:
        """One superstep for the bound vertex (see class docstring)."""
        best = min(messages) if messages else math.inf
        if ctx.superstep == 0 and ctx.vertex_id == self.source:
            best = 0.0
        if best < ctx.value or (ctx.superstep == 0 and ctx.vertex_id == self.source):
            if best < ctx.value:
                ctx.value = best
            # Relax out-edges with the (possibly updated) distance.
            dist = ctx.value
            for dst, weight in zip(ctx.out_edges, ctx.out_weights):
                ctx.send(int(dst), dist + float(weight))
        ctx.vote_to_halt()

    def compute_dense(self, ctx: DenseComputeContext) -> None:
        """One batched superstep over all active vertices."""
        values = ctx.values
        best = np.where(ctx.has_message, ctx.messages, np.inf)
        improved = ctx.active & (best < values)
        values[improved] = best[improved]
        senders = improved
        if (
            ctx.superstep == 0
            and self.source < ctx.num_vertices
            and ctx.active[self.source]
        ):
            # The source relaxes its edges even though 0.0 < 0.0 is false.
            # Gated on the active mask so that, under partition-restricted
            # parallel execution, only the worker owning the source sends.
            senders = improved.copy()
            senders[self.source] = True
        ctx.send_to_all_neighbors(senders, values, add_edge_weight=True)
        ctx.vote_to_halt(ctx.active)
