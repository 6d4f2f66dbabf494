"""Message combiners and the per-superstep message store.

A *combiner* merges messages addressed to the same vertex before they
cross the (simulated) network, exactly like Giraph/Pregel combiners:
PageRank sums contributions, SSSP keeps the minimum tentative distance.
Combining at the sender both shrinks network traffic (tracked by the
engine's stats) and the receiver's work.  A combiner is a numpy ufunc
(``np.add`` / ``np.minimum`` / ``np.maximum``) with its identity, so the
store combines a whole batch with one ``ufunc.at``.

With a combiner the store is **dense**: a ``float64`` value array plus a
boolean mask, both indexed by global vertex id.  Without one nothing may
merge, so every message is kept in a per-destination list (the
*generic* buckets, which checkpoints carry under their own key).
"""

from __future__ import annotations

import numbers
from collections import defaultdict

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


class MaxCombiner(Combiner):
    """Keep the larger message."""

    ufunc = np.maximum
    identity = -np.inf


class MessageStore:
    """Holds messages grouped by destination vertex for one superstep.

    Args:
        combiner: optional :class:`Combiner` subclass applied eagerly.
        num_vertices: global vertex count (sizes the dense arrays).
    """

    def __init__(
        self, combiner: type[Combiner] | None = None, num_vertices: int | None = None
    ):
        self._combiner = combiner
        self._num_vertices = num_vertices
        self._by_dst: dict[int, list] = defaultdict(list)
        self._dense_values: np.ndarray | None = None
        self._dense_mask: np.ndarray | None = None
        self._count = 0

    def deliver_many(self, dst_array, msg_array, dst_mask=None) -> None:
        """Deliver a batch of messages, combining with the ufunc.

        ``dst_array`` and ``msg_array`` are parallel 1-D arrays of
        numbers.  With a combiner they are combined into the dense arrays
        (held as ``float64``, exact for the integer labels/counts the
        built-in programs exchange); without one each message joins its
        destination's list.  ``dst_mask``, when given, must be the boolean
        mask of the distinct destinations in ``dst_array``; it replaces
        scattering one flag per message.
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
        self._count += len(dst)
        if combiner is None:
            for d, m in zip(dst.tolist(), msgs.tolist()):
                self._by_dst[d].append(m)
            return
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

    def dense_view(self, num_vertices: int) -> tuple[np.ndarray, np.ndarray]:
        """Combined messages as ``(values, mask)`` float64/bool arrays.

        The inbox every superstep reads.  A generic bucket enters as its
        one message; a bucket of several (no combiner to merge them) or a
        non-numeric message raises ``TypeError``.
        """
        if self._dense_values is not None:
            values = self._dense_values.copy()
            mask = self._dense_mask.copy()
        else:
            identity = self._combiner.identity if self._combiner else 0.0
            values = np.full(num_vertices, identity or 0.0, dtype=np.float64)
            mask = np.zeros(num_vertices, dtype=bool)
        for dst, bucket in self._by_dst.items():
            if not bucket:
                continue
            if len(bucket) > 1:
                raise TypeError("dense view needs a combiner for multi-message inboxes")
            (message,) = bucket
            if not isinstance(message, numbers.Number):
                raise TypeError(
                    f"non-numeric message {message!r} cannot enter the dense path"
                )
            values[dst] = message
            mask[dst] = True
        return values, mask

    def __bool__(self) -> bool:
        if any(self._by_dst.values()):
            return True
        return self._dense_mask is not None and bool(self._dense_mask.any())

    def state_dict(self) -> dict:
        """Checkpointable snapshot carrying the arrays directly."""
        return {
            "generic": {dst: list(msgs) for dst, msgs in self._by_dst.items() if msgs},
            "dense_values": (
                self._dense_values.copy() if self._dense_values is not None else None
            ),
            "dense_mask": (
                self._dense_mask.copy() if self._dense_mask is not None else None
            ),
            "count": self._count,
            "num_vertices": self._num_vertices,
        }

    @classmethod
    def from_state(
        cls, state: dict, combiner: type[Combiner] | None = None
    ) -> "MessageStore":
        """Rebuild a store from a :meth:`state_dict` snapshot."""
        store = cls(combiner, num_vertices=state.get("num_vertices"))
        for dst, msgs in state["generic"].items():
            store._by_dst[int(dst)] = list(msgs)
        if state["dense_values"] is not None:
            store._dense_values = np.array(state["dense_values"], dtype=np.float64)
            store._dense_mask = np.array(state["dense_mask"], dtype=bool)
        store._count = int(state["count"])
        return store
