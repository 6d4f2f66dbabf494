"""Vertex-centric programming API (Pregel's "think like a vertex").

A :class:`VertexProgram` defines the per-vertex ``compute`` function that
the engine runs every superstep for every active vertex.  Inside
``compute`` the program reads incoming messages, updates the vertex
value, sends messages along out-edges, and may vote to halt.  The engine
follows the classic Bulk Synchronous Parallel semantics: messages sent in
superstep ``s`` are delivered in superstep ``s + 1``; the computation
ends when every vertex has halted and no messages are in flight.

Programs whose state is numeric can additionally implement
:meth:`VertexProgram.compute_dense`, which receives a
:class:`DenseComputeContext` covering *all* active vertices at once and
operates on whole numpy arrays — the engine then skips the per-vertex
Python loop entirely.  Semantics are identical: one call per superstep,
messages land next superstep, un-halted vertices stay active.
"""

from __future__ import annotations

import abc
import numpy as np


class ComputeContext:
    """Everything a vertex sees during one ``compute`` invocation.

    The engine reuses a single context object per worker per superstep
    and re-points it at each vertex, so programs must not hold on to it
    across invocations.
    """

    __slots__ = (
        "vertex_id",
        "value",
        "superstep",
        "num_vertices",
        "_out_edges",
        "_out_weights",
        "_outbox",
        "_halted",
        "_aggregators",
        "_prev_aggregates",
    )

    def __init__(self):
        self.vertex_id = -1
        self.value = None
        self.superstep = 0
        self.num_vertices = 0
        self._out_edges = None
        self._out_weights = None
        self._outbox = None
        self._halted = False
        self._aggregators = {}
        self._prev_aggregates = {}

    # -- topology ------------------------------------------------------
    @property
    def out_edges(self) -> np.ndarray:
        """Destination vertex ids of this vertex's out-edges."""
        return self._out_edges

    @property
    def out_weights(self) -> np.ndarray:
        """Weights parallel to :attr:`out_edges` (1.0 when unweighted)."""
        return self._out_weights

    @property
    def out_degree(self) -> int:
        """Number of out-edges of the bound vertex."""
        return len(self._out_edges)

    # -- messaging -----------------------------------------------------
    def send(self, dst: int, message) -> None:
        """Send *message* to vertex *dst*, delivered next superstep."""
        self._outbox.append((int(dst), message))

    def send_to_neighbors(self, message) -> None:
        """Send the same message along every out-edge."""
        outbox = self._outbox
        for dst in self._out_edges:
            outbox.append((int(dst), message))

    # -- halting -------------------------------------------------------
    def vote_to_halt(self) -> None:
        """Deactivate this vertex until a message wakes it up."""
        self._halted = True

    # -- aggregation ---------------------------------------------------
    def aggregate(self, name: str, value) -> None:
        """Contribute *value* to the named aggregator for this superstep."""
        self._aggregators[name].accumulate(value)

    def aggregated(self, name: str):
        """Read the named aggregator's value from the *previous* superstep."""
        return self._prev_aggregates.get(name)


class DenseComputeContext:
    """One superstep's whole-graph view for :meth:`~VertexProgram.compute_dense`.

    All arrays are indexed by global vertex id.  The program mutates
    :attr:`values` in place for the vertices it updates, emits batched
    messages via :meth:`send_batch` / :meth:`send_to_all_neighbors`, and
    deactivates vertices via :meth:`vote_to_halt`; every vertex in
    :attr:`active` that does not vote stays active next superstep.
    """

    __slots__ = (
        "superstep",
        "num_vertices",
        "graph",
        "values",
        "active",
        "messages",
        "has_message",
        "_edge_src",
        "_sends",
        "_halt_mask",
        "_aggregators",
        "_prev_aggregates",
    )

    def __init__(
        self,
        *,
        superstep: int,
        graph,
        values: np.ndarray,
        active: np.ndarray,
        messages: np.ndarray,
        has_message: np.ndarray,
        aggregators: dict,
        prev_aggregates: dict,
    ):
        self.superstep = superstep
        self.num_vertices = graph.num_vertices
        self.graph = graph
        self.values = values
        self.active = active
        self.messages = messages
        self.has_message = has_message
        self._edge_src = graph.edge_sources()
        self._sends: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._halt_mask = np.zeros(graph.num_vertices, dtype=bool)
        self._aggregators = aggregators
        self._prev_aggregates = prev_aggregates

    # -- topology ------------------------------------------------------
    @property
    def edge_sources(self) -> np.ndarray:
        """Source vertex of every CSR edge (parallel to ``graph.indices``)."""
        return self._edge_src

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex."""
        return np.diff(self.graph.indptr)

    def _check_ids(self, ids: np.ndarray, what: str) -> None:
        """Raise ``ValueError`` naming an id of *ids* outside ``[0, n)``."""
        n = self.num_vertices
        # One reduction: a negative int64 is huge as a uint64.
        if len(ids) and int(ids.view(np.uint64).max()) >= n:
            bad = ids[(ids < 0) | (ids >= n)][0]
            raise ValueError(f"{what} vertex id {bad} is outside [0, {n})")

    def _vertex_mask(self, who) -> np.ndarray:
        """*who*, a boolean mask or an array of vertex ids, as a mask."""
        who, n = np.asarray(who), self.num_vertices
        if who.dtype == bool and who.shape == (n,):
            return who
        if who.dtype == bool or who.ndim != 1 or who.dtype.kind not in "iu" and len(who):
            raise ValueError(
                f"expected a ({n},) boolean mask or 1-D vertex ids, got "
                f"{who.dtype} of shape {who.shape}"
            )
        ids = who.astype(np.int64, copy=False)
        self._check_ids(ids, "selected")
        mask = np.zeros(n, dtype=bool)
        mask[ids] = True
        return mask

    # -- messaging -----------------------------------------------------
    def send_batch(self, src_ids, dst_ids, messages) -> None:
        """Send ``messages[i]`` from ``src_ids[i]`` to ``dst_ids[i]``.

        Sources are needed for the engine's local/remote traffic
        accounting (sender-side combining happens per source worker).
        Ids outside ``[0, num_vertices)`` raise ``ValueError``.
        """
        src = np.asarray(src_ids, dtype=np.int64)
        dst = np.asarray(dst_ids, dtype=np.int64)
        msg = np.asarray(messages)
        if not (src.shape == dst.shape == msg.shape):
            raise ValueError("src, dst and messages must be parallel arrays")
        self._check_ids(src, "source")
        self._check_ids(dst, "destination")
        if len(src):
            self._sends.append((src, dst, msg))

    def send_to_all_neighbors(
        self, senders, message_per_vertex, add_edge_weight: bool = False
    ) -> None:
        """Broadcast ``message_per_vertex[v]`` along every out-edge of each
        vertex ``v`` in *senders* (a boolean mask or an array of ids).

        With ``add_edge_weight`` each edge carries the message plus its
        weight (1.0 on an unweighted graph): SSSP's relaxation.
        """
        mask = self._vertex_mask(senders)
        # When every vertex with out-edges sends, the graph's own CSR
        # arrays are the batch as they stand (the engine recognises a full
        # broadcast by their identity); only a partial send pays the
        # mask-copy.  Either way the ids come from the graph: no check.
        indptr = self.graph.indptr
        src, dst, weights = self._edge_src, self.graph.indices, self.graph.weights
        if ((indptr[1:] != indptr[:-1]) & ~mask).any():
            keep = mask[src]
            src, dst = src[keep], dst[keep]
            if weights is not None and add_edge_weight:
                weights = weights[keep]
        msg = np.asarray(message_per_vertex)[src]
        if add_edge_weight:
            msg = msg + (1.0 if weights is None else weights)
        if len(src):
            self._sends.append((src, dst, msg))

    # -- halting -------------------------------------------------------
    def vote_to_halt(self, who) -> None:
        """Deactivate the vertices selected by boolean mask or id array."""
        self._halt_mask |= self._vertex_mask(who)

    # -- aggregation ---------------------------------------------------
    def aggregate(self, name: str, value) -> None:
        """Contribute an already-reduced *value* to the named aggregator."""
        self._aggregators[name].accumulate(value)

    def aggregated(self, name: str):
        """Read the named aggregator's value from the *previous* superstep."""
        return self._prev_aggregates.get(name)


class VertexProgram(abc.ABC):
    """A Pregel computation.

    Subclasses implement :meth:`initial_value` and :meth:`compute`;
    optionally they declare a message :attr:`combiner`, a dict of
    :attr:`aggregators` (name -> Aggregator factory), a numpy
    :attr:`value_dtype` for dense state, vectorized initial values via
    :meth:`initial_values`, and a batched :meth:`compute_dense`.
    """

    #: Optional message combiner class (see :mod:`repro.engine.messages`).
    combiner = None

    #: Numpy dtype of the vertex value array (None -> ``object``).
    value_dtype = None

    def aggregators(self) -> dict:
        """Aggregator factories, keyed by name (default: none)."""
        return {}

    @abc.abstractmethod
    def initial_value(self, vertex_id: int, num_vertices: int):
        """Value of *vertex_id* before superstep 0."""

    def initial_values(self, num_vertices: int) -> np.ndarray | None:
        """Whole initial value array at once (None -> per-vertex calls)."""
        return None

    @abc.abstractmethod
    def compute(self, ctx: ComputeContext, messages: list) -> None:
        """Run one superstep for the vertex bound to *ctx*.

        ``messages`` holds the messages delivered this superstep (empty
        list at superstep 0 unless the program seeds messages).  Update
        ``ctx.value`` in place, call ``ctx.send``/``ctx.vote_to_halt``.
        """

    #: Set when :meth:`compute_dense` is implemented; the engine then
    #: runs the batched array path instead of per-vertex ``compute``.
    supports_dense = False

    def compute_dense(self, ctx: DenseComputeContext) -> None:
        """Run one superstep for *all* active vertices at once."""
        raise NotImplementedError

    def is_active_initially(self, vertex_id: int) -> bool:
        """Whether the vertex starts active (default: all do)."""
        return True

    #: Estimated bytes per message, used by network accounting.
    message_bytes: int = 8
