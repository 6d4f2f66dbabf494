"""Message combiners and the per-superstep message store.

A *combiner* merges messages addressed to the same vertex before they
cross the (simulated) network, exactly like Giraph/Pregel combiners:
PageRank sums contributions, SSSP keeps the minimum tentative distance.
Combining at the sender both shrinks network traffic (tracked by the
engine's stats) and the receiver's work.

The store itself has two representations and picks per delivery:

* a **dense** one — a ``float64`` value array plus a boolean mask, both
  indexed by global vertex id — fed by the batched
  :meth:`MessageStore.deliver_many` path.  Combining happens with the
  combiner's numpy ufunc (``np.add.at`` / ``np.minimum.at`` /
  ``np.maximum.at``), which is what makes large supersteps cheap;
* a **generic** one — per-destination Python lists — for exotic message
  types (tuples, adjacency fragments) and for the scalar
  :meth:`MessageStore.deliver` API.

Both representations may coexist (e.g. after restoring a checkpoint);
every read path merges them.
"""

from __future__ import annotations

import abc
import numbers
from collections import defaultdict
from typing import Iterable

import numpy as np


class Combiner(abc.ABC):
    """Associative, commutative merge of two messages for one vertex.

    Subclasses may set :attr:`ufunc` to the equivalent numpy ufunc; the
    message store then combines numeric batches without touching Python.
    """

    #: Optional numpy ufunc implementing the same reduction.
    ufunc = None
    #: Identity element of :attr:`ufunc` (start value for reductions).
    identity = None

    @staticmethod
    @abc.abstractmethod
    def combine(a, b):
        """Merge two messages into one."""


class SumCombiner(Combiner):
    """Combine messages by addition (PageRank-style)."""

    ufunc = np.add
    identity = 0.0

    @staticmethod
    def combine(a, b):
        """Merge two messages into one (see class docstring)."""
        return a + b


class MinCombiner(Combiner):
    """Keep the smaller message (SSSP-style)."""

    ufunc = np.minimum
    identity = np.inf

    @staticmethod
    def combine(a, b):
        """Merge two messages into one (see class docstring)."""
        return a if a <= b else b


class MaxCombiner(Combiner):
    """Keep the larger message."""

    ufunc = np.maximum
    identity = -np.inf

    @staticmethod
    def combine(a, b):
        """Merge two messages into one (see class docstring)."""
        return a if a >= b else b


class MessageStore:
    """Holds messages grouped by destination vertex for one superstep.

    Args:
        combiner: optional :class:`Combiner` subclass applied eagerly.
        num_vertices: global vertex count; required for the dense
            batched path (:meth:`deliver_many` falls back to scalar
            delivery without it).
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

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def deliver(self, dst: int, message) -> None:
        """Add one message for *dst*, combining eagerly when possible."""
        self._count += 1
        self._deliver_generic(dst, message)

    def _deliver_generic(self, dst: int, message) -> None:
        # Fold a dense entry for the same destination into the bucket
        # first, so each destination lives in exactly one representation.
        bucket = self._by_dst[dst]
        if (
            not bucket
            and self._dense_mask is not None
            and self._dense_mask[dst]
        ):
            bucket.append(self._dense_values[dst].item())
            self._dense_mask[dst] = False
        if self._combiner is not None and bucket:
            bucket[0] = self._combiner.combine(bucket[0], message)
        else:
            bucket.append(message)

    def deliver_many(self, dst_array, msg_array, dst_mask=None) -> None:
        """Deliver a batch of messages, combining with the ufunc.

        ``dst_array`` and ``msg_array`` are parallel 1-D arrays.  Numeric
        batches with a ufunc-capable combiner go through the dense path;
        anything else degrades to per-message scalar delivery.  Dense
        message values are held as ``float64`` (exact for the integer
        labels/counts the built-in programs exchange).  ``dst_mask``, when
        given, must be the boolean mask of the distinct destinations in
        ``dst_array``; it replaces scattering one flag per message.
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
        dense_ok = (
            combiner is not None
            and combiner.ufunc is not None
            and self._num_vertices is not None
            and np.issubdtype(msgs.dtype, np.number)
        )
        self._count += len(dst)
        if not dense_ok:
            for d, m in zip(dst.tolist(), msgs.tolist()):
                self._deliver_generic(d, m)
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
        if self._by_dst:
            # Fold pre-existing generic entries for these destinations in.
            for d in np.unique(dst).tolist():
                bucket = self._by_dst.get(d)
                if bucket:
                    for m in bucket:
                        self._dense_values[d] = combiner.combine(
                            self._dense_values[d].item(), m
                        )
                    del self._by_dst[d]

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def messages_for(self, dst: int) -> list:
        """Messages addressed to *dst* (empty list when none).

        Returns a fresh list: mutating the returned inbox does not
        corrupt the pending messages.
        """
        out = list(self._by_dst.get(dst, ()))
        if self._dense_mask is not None and self._dense_mask[dst]:
            out.append(self._dense_values[dst].item())
            if self._combiner is not None and len(out) > 1:
                folded = out[0]
                for m in out[1:]:
                    folded = self._combiner.combine(folded, m)
                out = [folded]
        return out

    def destinations(self) -> Iterable[int]:
        """Vertices with at least one pending message."""
        dests = [d for d, bucket in self._by_dst.items() if bucket]
        if self._dense_mask is not None:
            dests.extend(int(d) for d in np.flatnonzero(self._dense_mask))
        return dests

    def destination_mask(self, num_vertices: int) -> np.ndarray:
        """Boolean mask over ``[0, num_vertices)`` of pending destinations."""
        if self._dense_mask is not None:
            mask = self._dense_mask.copy()
        else:
            mask = np.zeros(num_vertices, dtype=bool)
        keys = [d for d, bucket in self._by_dst.items() if bucket]
        if keys:
            mask[np.asarray(keys, dtype=np.int64)] = True
        return mask

    def dense_view(self, num_vertices: int) -> tuple[np.ndarray, np.ndarray]:
        """Combined messages as ``(values, mask)`` float64/bool arrays.

        Used by the engine's batched compute path.  Generic entries are
        folded in with the combiner; non-numeric pending messages make
        this raise ``TypeError`` (such programs run the scalar path).
        """
        if self._dense_values is not None:
            values = self._dense_values.copy()
            mask = self._dense_mask.copy()
        else:
            identity = self._combiner.identity if self._combiner else 0.0
            values = np.full(num_vertices, identity or 0.0, dtype=np.float64)
            mask = np.zeros(num_vertices, dtype=bool)
        self._fold_generic_into(values, mask)
        return values, mask

    def dense_view_into(
        self, num_vertices: int, values_out: np.ndarray, mask_out: np.ndarray
    ) -> None:
        """:meth:`dense_view` written into caller-provided arrays.

        Allocation-free variant used by the parallel backend to refill
        its shared-memory inbox arrays in place every superstep.
        """
        if self._dense_values is not None:
            values_out[...] = self._dense_values
            mask_out[...] = self._dense_mask
        else:
            identity = self._combiner.identity if self._combiner else 0.0
            values_out[...] = identity or 0.0
            mask_out[...] = False
        self._fold_generic_into(values_out, mask_out)

    def _fold_generic_into(self, values: np.ndarray, mask: np.ndarray) -> None:
        """Fold the generic per-destination buckets into a dense view."""
        for dst, bucket in self._by_dst.items():
            if not bucket:
                continue
            folded = bucket[0]
            for m in bucket[1:]:
                if self._combiner is None:
                    raise TypeError(
                        "dense view needs a combiner for multi-message inboxes"
                    )
                folded = self._combiner.combine(folded, m)
            if not isinstance(folded, numbers.Number):
                raise TypeError(
                    f"non-numeric message {folded!r} cannot enter the dense path"
                )
            if mask[dst] and self._combiner is not None:
                folded = self._combiner.combine(values[dst].item(), folded)
            values[dst] = folded
            mask[dst] = True

    def __len__(self) -> int:
        """Number of *stored* messages (post-combining)."""
        stored = sum(len(v) for v in self._by_dst.values())
        if self._dense_mask is not None:
            stored += int(np.count_nonzero(self._dense_mask))
        return stored

    def __bool__(self) -> bool:
        if any(self._by_dst.values()):
            return True
        return self._dense_mask is not None and bool(self._dense_mask.any())

    def raw_count(self) -> int:
        """Messages delivered before combining."""
        return self._count

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def as_dict(self) -> dict[int, list]:
        """Pending messages as ``{destination: [messages]}``, for comparing
        stores (checkpoints use :meth:`state_dict`)."""
        merged = {dst: list(msgs) for dst, msgs in self._by_dst.items() if msgs}
        if self._dense_mask is not None:
            for d in np.flatnonzero(self._dense_mask).tolist():
                merged.setdefault(d, []).append(self._dense_values[d].item())
        return merged

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
