"""Vertex-centric programming API (Pregel's "think like a vertex").

A :class:`VertexProgram` defines :meth:`VertexProgram.compute_dense`,
which the engine calls once per superstep with a
:class:`DenseComputeContext` covering *all* active vertices at once: the
program reads the combined incoming messages, updates vertex values,
sends messages along out-edges (its one send,
:meth:`DenseComputeContext.send_to_all_neighbors`) and votes to halt,
all on whole numpy arrays.  The engine follows the classic Bulk
Synchronous Parallel semantics: messages sent in superstep ``s`` are
delivered in superstep ``s + 1``; un-halted vertices stay active; the
computation ends when every vertex has halted and no messages are in
flight.
"""

from __future__ import annotations

import abc
import numpy as np


class DenseComputeContext:
    """One superstep's whole-graph view for :meth:`~VertexProgram.compute_dense`.

    All arrays are indexed by global vertex id.  The program mutates
    :attr:`values` in place for the vertices it updates, sends along
    out-edges via :meth:`send_to_all_neighbors`, and deactivates
    vertices via :meth:`vote_to_halt`; every vertex in
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
        "_sends",
        "_halt_mask",
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
    ):
        self.superstep = superstep
        self.num_vertices = graph.num_vertices
        self.graph = graph
        self.values = values
        self.active = active
        self.messages = messages
        self.has_message = has_message
        self._sends: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        self._halt_mask = np.zeros(graph.num_vertices, dtype=bool)

    # -- topology ------------------------------------------------------
    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex."""
        return np.diff(self.graph.indptr)

    def _check_ids(self, ids: np.ndarray) -> None:
        """Raise ``ValueError`` naming an id of *ids* outside ``[0, n)``."""
        n = self.num_vertices
        # One reduction: a negative int64 is huge as a uint64.
        if len(ids) and int(ids.view(np.uint64).max()) >= n:
            bad = ids[(ids < 0) | (ids >= n)][0]
            raise ValueError(f"selected vertex id {bad} is outside [0, {n})")

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
        self._check_ids(ids)
        mask = np.zeros(n, dtype=bool)
        mask[ids] = True
        return mask

    # -- messaging -----------------------------------------------------
    def send_to_all_neighbors(
        self, senders, message_per_vertex, add_edge_weight: bool = False
    ) -> None:
        """Broadcast ``message_per_vertex[v]`` along every out-edge of each
        vertex ``v`` in *senders* (a boolean mask or an array of ids).

        With ``add_edge_weight`` each edge carries the message plus its
        weight (1.0 on an unweighted graph): SSSP's relaxation.
        """
        mask = self._vertex_mask(senders)
        # A batch is the sender runs ``(ids, counts)`` (each sender's id and
        # out-degree, in id order), the destinations and the messages.
        # When every vertex with out-edges sends, the graph's own CSR
        # ``indices`` are the destinations as they stand (the engine
        # recognises a full broadcast by their identity); a partial send
        # copies only its senders' edges.  The ids come from the graph
        # either way: no check.
        graph = self.graph
        degrees = np.diff(graph.indptr)
        ids = np.flatnonzero(mask)
        counts = degrees[ids]
        values = np.asarray(message_per_vertex)
        weights = graph.weights
        if ((degrees != 0) & ~mask).any():
            keep = np.repeat(mask, degrees)
            dst = graph.indices[keep]
            msg = values[ids]
            if add_edge_weight and weights is None:
                msg = msg + 1.0  # per sender: the sum each of its edges carries
            msg = np.repeat(msg, counts)
            if add_edge_weight and weights is not None:
                msg = msg + weights[keep]
        else:
            dst = graph.indices
            msg = values[graph.edge_sources()]
            if add_edge_weight:
                msg = msg + (1.0 if weights is None else weights)
        if len(dst):
            self._sends.append((ids, counts, dst, msg))

    # -- halting -------------------------------------------------------
    def vote_to_halt(self, who) -> None:
        """Deactivate the vertices selected by boolean mask or id array."""
        self._halt_mask |= self._vertex_mask(who)


class VertexProgram(abc.ABC):
    """A Pregel computation.

    Subclasses implement :meth:`initial_values` and :meth:`compute_dense`
    and declare a message :attr:`combiner`.
    """

    #: Message combiner class (see :mod:`repro.engine.messages`); the
    #: engine refuses a program that leaves it None.
    combiner = None

    #: Numpy dtype of the vertex value array (None -> ``object``).
    value_dtype = None

    @abc.abstractmethod
    def initial_values(self, num_vertices: int) -> np.ndarray:
        """The whole vertex value array before superstep 0."""

    @abc.abstractmethod
    def compute_dense(self, ctx: DenseComputeContext) -> None:
        """Run one superstep for *all* active vertices at once."""

    #: Estimated bytes per message, used by network accounting.
    message_bytes: int = 8
