"""Message combiners and the per-superstep message store.

A *combiner* merges messages addressed to the same vertex before they
cross the (simulated) network, exactly like Giraph/Pregel combiners:
PageRank sums contributions, SSSP keeps the minimum tentative distance.
Combining at the sender both shrinks network traffic (tracked by the
engine's stats) and the receiver's work.  A combiner is a numpy ufunc
(``np.add`` / ``np.minimum``) with its identity, so the store combines a
whole batch with one ``ufunc.at``.

The store is one combined inbox: a ``float64`` value array plus a
boolean mask, both indexed by global vertex id.  A store needs a
combiner; nothing else could merge an inbox into one value.
"""

from __future__ import annotations

import numpy as np


class Combiner:
    """Associative, commutative merge of the messages for one vertex."""

    #: Numpy ufunc implementing the reduction.
    ufunc = None
    #: Identity element of :attr:`ufunc` (start value for reductions).
    identity = None


class SumCombiner(Combiner):
    """Combine messages by addition (PageRank-style)."""

    ufunc = np.add
    identity = 0.0


class MinCombiner(Combiner):
    """Keep the smaller message (SSSP-style)."""

    ufunc = np.minimum
    identity = np.inf


class MessageStore:
    """The combined messages for one superstep, one value per vertex.

    Args:
        combiner: the :class:`Combiner` subclass merging each inbox
            (``ValueError`` when None).
        num_vertices: global vertex count (sizes the dense arrays).
    """

    def __init__(self, combiner: type[Combiner], num_vertices: int):
        if combiner is None:
            raise ValueError("a message store needs a combiner to merge each inbox")
        self._combiner = combiner
        self._num_vertices = num_vertices
        self._dense_values: np.ndarray | None = None
        self._dense_mask: np.ndarray | None = None

    def deliver_many(self, dst_array, msg_array, dst_mask=None) -> None:
        """Deliver a batch of messages, combining with the ufunc.

        ``dst_array`` and ``msg_array`` are parallel 1-D arrays of
        numbers, combined into the dense arrays (held as ``float64``,
        exact for the integer labels/counts the built-in programs
        exchange).  ``dst_mask``, when given, must be the boolean mask of
        the distinct destinations in ``dst_array``; it replaces
        scattering one flag per message (the engine always gives the one
        its traffic count built).
        """
        dst = np.asarray(dst_array, dtype=np.int64)
        msgs = np.asarray(msg_array)
        if dst.ndim != 1 or msgs.ndim != 1 or dst.shape != msgs.shape:
            raise ValueError(
                f"dst and message arrays must be parallel 1-D, got "
                f"{dst.shape} and {msgs.shape}"
            )
        if not len(dst):
            return
        combiner = self._combiner
        if self._dense_values is None:
            self._dense_values = np.full(
                self._num_vertices, combiner.identity, dtype=np.float64
            )
            self._dense_mask = np.zeros(self._num_vertices, dtype=bool)
        combiner.ufunc.at(self._dense_values, dst, msgs.astype(np.float64, copy=False))
        if dst_mask is None:
            self._dense_mask[dst] = True
        else:
            self._dense_mask |= dst_mask

    def dense_view(self) -> tuple[np.ndarray, np.ndarray]:
        """Combined messages as ``(values, mask)`` float64/bool arrays:
        the inbox every superstep reads."""
        if self._dense_values is not None:
            return self._dense_values.copy(), self._dense_mask.copy()
        n = self._num_vertices
        return (
            np.full(n, self._combiner.identity, dtype=np.float64),
            np.zeros(n, dtype=bool),
        )

    def __bool__(self) -> bool:
        return self._dense_mask is not None and bool(self._dense_mask.any())

    def state_dict(self) -> dict:
        """Checkpointable snapshot carrying the arrays directly."""
        return {
            "dense_values": (
                self._dense_values.copy() if self._dense_values is not None else None
            ),
            "dense_mask": (
                self._dense_mask.copy() if self._dense_mask is not None else None
            ),
            "num_vertices": self._num_vertices,
        }

    @classmethod
    def from_state(cls, state: dict, combiner: type[Combiner]) -> "MessageStore":
        """Rebuild a store from a :meth:`state_dict` snapshot."""
        store = cls(combiner, num_vertices=state["num_vertices"])
        if state["dense_values"] is not None:
            store._dense_values = np.array(state["dense_values"], dtype=np.float64)
            store._dense_mask = np.array(state["dense_mask"], dtype=bool)
        return store
