"""Vertex-centric programming API (Pregel's "think like a vertex").

A :class:`VertexProgram` defines :meth:`VertexProgram.compute_dense`,
which the engine calls once per superstep with a
:class:`DenseComputeContext` covering *all* active vertices at once: the
program reads the combined incoming messages, updates vertex values,
sends messages along out-edges and votes to halt, all on whole numpy
arrays.  The engine follows the classic Bulk Synchronous Parallel
semantics: messages sent in superstep ``s`` are delivered in superstep
``s + 1``; un-halted vertices stay active; the computation ends when
every vertex has halted and no messages are in flight.
"""

from __future__ import annotations

import abc
import numpy as np


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

    Subclasses implement :meth:`initial_values` and :meth:`compute_dense`;
    optionally they declare a message :attr:`combiner` and a dict of
    :attr:`aggregators` (name -> Aggregator factory).
    """

    #: Optional message combiner class (see :mod:`repro.engine.messages`).
    combiner = None

    #: Numpy dtype of the vertex value array (None -> ``object``).
    value_dtype = None

    def aggregators(self) -> dict:
        """Aggregator factories, keyed by name (default: none)."""
        return {}

    @abc.abstractmethod
    def initial_values(self, num_vertices: int) -> np.ndarray:
        """The whole vertex value array before superstep 0."""

    @abc.abstractmethod
    def compute_dense(self, ctx: DenseComputeContext) -> None:
        """Run one superstep for *all* active vertices at once."""

    #: Estimated bytes per message, used by network accounting.
    message_bytes: int = 8
