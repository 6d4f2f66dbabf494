"""The Pregel-style BSP execution engine (the Giraph stand-in).

Runs a :class:`~repro.engine.vertex.VertexProgram` over a partitioned
graph in synchronous supersteps across simulated workers.  Messages are
combined at the sender with the program's combiner (the engine refuses a
program that declares none), routed to their destination worker, and
delivered at the next barrier, following the Pregel/Giraph model the
paper runs on.

The engine's state is the vertex values and halted flags (dense numpy
arrays indexed by global vertex id), one combined inbox
(:class:`~repro.engine.messages.MessageStore`) and the per-superstep
stats.  The superstep loop computes the active set, the
local/remote traffic split and the global halt condition from those
arrays, and the program runs one batched
``compute_dense`` call per superstep over every active vertex, which is
what makes long runs (PageRank over tens of thousands of vertices for
Figs 5-7) cheap.

The engine tracks per-superstep statistics — active vertices, local vs
remote messages, estimated network bytes — which is how partition
quality translates into simulated execution time (cut edges ⇒ remote
messages ⇒ network cost).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.messages import MessageStore
from repro.engine.vertex import DenseComputeContext, VertexProgram
from repro.graph.graph import Graph
from repro.partitioning.base import Partitioning


@dataclass(frozen=True)
class SuperstepStats:
    """Observability record for one superstep."""

    superstep: int
    active_vertices: int
    messages_sent: int
    local_messages: int
    remote_messages: int
    remote_bytes: int

    @property
    def remote_fraction(self) -> float:
        """Fraction of message traffic that crossed workers."""
        total = self.local_messages + self.remote_messages
        return self.remote_messages / total if total else 0.0


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of a full run (or a run segment)."""

    values: dict
    supersteps_run: int
    halted_normally: bool
    stats: list[SuperstepStats]

    @property
    def total_messages(self) -> int:
        """Messages sent across all supersteps."""
        return sum(s.messages_sent for s in self.stats)

    @property
    def total_remote_messages(self) -> int:
        """Cross-worker messages across all supersteps."""
        return sum(s.remote_messages for s in self.stats)

    def values_array(self, dtype=np.float64) -> np.ndarray:
        """Vertex values as a dense array indexed by vertex id.

        Requires a dense id space ``0..max(id)``; sparse or negative ids
        raise ``ValueError`` instead of silently writing out of range.
        """
        if not self.values:
            return np.empty(0, dtype=dtype)
        ids = np.fromiter(self.values.keys(), dtype=np.int64, count=len(self.values))
        if ids.min() < 0:
            raise ValueError("vertex ids must be non-negative")
        size = int(ids.max()) + 1
        if size != len(self.values):
            raise ValueError(
                f"vertex ids are not dense: {len(self.values)} values but ids "
                f"span 0..{size - 1}"
            )
        arr = np.empty(size, dtype=dtype)
        # One vectorized scatter instead of a per-vertex Python loop
        # (ids and values iterate the dict in the same order).
        arr[ids] = np.fromiter(
            self.values.values(), dtype=dtype, count=len(self.values)
        )
        return arr


#: Scratch bytes the traffic meter may hold (one flag per (worker,
#: destination) slot).  Engines whose ``workers x vertices`` exceeds it
#: count their workers a block at a time instead of allocating more.
_SLOT_BITMAP_BYTES = 32 << 20


class _SlotCounter:
    """Counts distinct (source worker, destination) pairs without sorting.

    Each message marks its slot ``owner[src] * n + dst`` in a reusable
    boolean bitmap; the marked slots are the combined network messages,
    and those on the diagonal ``(owner[v], v)`` are the local ones.  One
    scatter and one ``count_nonzero`` replace sorting every message, and
    OR-ing the bitmap's worker rows gives the messages' destinations.
    """

    def __init__(self, owner: np.ndarray, num_workers: int):
        n = len(owner)
        self._num_vertices = n
        self._slot_base = owner * np.int64(n)  # vertex -> first slot of its worker
        self._own_slot = self._slot_base + np.arange(n, dtype=np.int64)
        self._num_slots = num_workers * n
        workers_per_block = max(1, _SLOT_BITMAP_BYTES // max(1, n))
        self._block = min(self._num_slots, workers_per_block * n)
        self._seen = np.zeros(self._block, dtype=bool)

    def count(self, src, dst, counts=None, dst_mask=None) -> tuple[int, int]:
        """``(local, remote)`` distinct slots among the messages.

        *src* holds each message's source, or with *counts* the sender
        runs: ``counts[i]`` consecutive messages from ``src[i]``.  When
        given, *dst_mask* gets every destination OR-ed in.
        """
        slots = self._slot_base[src]
        if counts is not None:
            slots = np.repeat(slots, counts)
        slots += dst
        own = self._own_slot
        seen = self._seen
        one_block = self._block == self._num_slots  # the usual case: no masking
        distinct = local = 0
        for lo in range(0, self._num_slots, self._block):
            slots_here, own_here = slots, own
            if not one_block:
                hi = lo + self._block
                slots_here = slots[(slots >= lo) & (slots < hi)] - lo
                own_here = own[(own >= lo) & (own < hi)] - lo
            seen[slots_here] = True
            distinct += int(np.count_nonzero(seen))
            local += int(np.count_nonzero(seen[own_here]))
            if dst_mask is not None:
                dst_mask |= seen.reshape(-1, self._num_vertices).any(axis=0)
            seen.fill(False)
        return local, distinct - local


def value_dtype_of(program) -> np.dtype:
    """The numpy dtype a program's vertex values are stored as."""
    dtype = getattr(program, "value_dtype", None)
    return np.dtype(object) if dtype is None else np.dtype(dtype)


#: Safety cap on the supersteps of one :meth:`PregelEngine.run`.
MAX_SUPERSTEPS = 10_000


class PregelEngine:
    """Synchronous vertex-centric engine over simulated workers.

    :meth:`run` stops at :data:`MAX_SUPERSTEPS` unless given another cap.

    Args:
        graph: the input graph (message topology = out-edges).
        program: the vertex program to run; it must declare a combiner
            (``ValueError`` otherwise).
        partitioning: vertex -> worker assignment; its ``num_parts`` is
            the worker count.
    """

    def __init__(
        self,
        graph: Graph,
        program: VertexProgram,
        partitioning: Partitioning | None = None,
    ):
        if partitioning is None:
            from repro.partitioning.hashing import HashPartitioner

            partitioning = HashPartitioner().partition(graph, 1)
        if partitioning.num_vertices != graph.num_vertices:
            raise ValueError("partitioning does not match graph")
        self.graph = graph
        self.program = program
        self.partitioning = partitioning
        self.num_workers = partitioning.num_parts
        self._owner = partitioning.assignment  # vertex -> worker
        self.superstep = 0
        self.stats: list[SuperstepStats] = []
        n = graph.num_vertices
        self._traffic: _SlotCounter | None = None  # lazy, first dense send
        self._broadcast: tuple | None = None  # lazy, first full broadcast
        self._values = np.empty(n, dtype=value_dtype_of(program))
        self._halted = np.zeros(n, dtype=bool)
        self._init_state()

    def _init_state(self) -> None:
        """Initial values from the program and an empty inbox; every
        vertex starts active.

        The dense superstep reads each inbox as one combined value, so a
        program without a combiner is refused here, before its first
        multi-message inbox could fail mid-run.
        """
        if self.program.combiner is None:
            raise ValueError(
                f"{type(self.program).__name__} declares no message combiner; "
                "the engine merges every inbox with one"
            )
        n = self.graph.num_vertices
        init = np.asarray(self.program.initial_values(n))
        if init.shape != (n,):
            raise ValueError(f"initial_values returned shape {init.shape}, expected ({n},)")
        self._values[...] = init
        self._incoming = MessageStore(self.program.combiner, num_vertices=n)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, max_supersteps: int | None = None) -> ExecutionResult:
        """Run until global halt or the superstep cap."""
        cap = max_supersteps if max_supersteps is not None else MAX_SUPERSTEPS
        halted = False
        while self.superstep < cap:
            # Checked first: an engine restored past its last working
            # superstep has nothing left to run.
            if not self.has_work() or not self.step():
                halted = True
                break
        return self.result(halted_normally=halted)

    def step(self) -> bool:
        """Execute one superstep; returns True while work remains."""
        inc_vals, inc_mask = self._incoming.dense_view()
        active_mask = ~self._halted | inc_mask
        ctx = DenseComputeContext(
            superstep=self.superstep,
            graph=self.graph,
            values=self._values,
            active=active_mask,
            messages=inc_vals,
            has_message=inc_mask,
        )
        self.program.compute_dense(ctx)

        # Every vertex that ran is active next superstep unless it voted.
        self._halted[active_mask] = False
        self._halted |= ctx._halt_mask

        active = int(np.count_nonzero(active_mask))
        return self._exchange(ctx._sends, active)

    def _exchange(self, sends: list, active: int) -> bool:
        """The superstep tail every dense step ends in.

        Concatenates the ``(ids, counts, dst, msg)`` batches in *sends*,
        delivers them, meters the traffic and closes the superstep;
        returns True while work remains.
        """
        n = self.graph.num_vertices
        outgoing = MessageStore(self.program.combiner, num_vertices=n)
        sent = local = remote = 0
        if sends:
            if len(sends) == 1:
                ids, counts, dst, msg = sends[0]
            else:
                ids, counts, dst, msg = (np.concatenate(column) for column in zip(*sends))
            sent = len(dst)
            if dst is self.graph.indices:
                local, remote, dst_mask = self._full_broadcast(ids, counts, dst)
            else:
                dst_mask = np.zeros(n, dtype=bool)
                local, remote = self._count_traffic(ids, counts, dst, dst_mask)
            outgoing.deliver_many(dst, msg, dst_mask)
        self._finish_superstep(outgoing, active, sent, local, remote)
        return bool(outgoing) or not bool(self._halted.all())

    def _full_broadcast(self, ids, counts, dst) -> tuple[int, int, np.ndarray]:
        """``(local, remote, destination mask)`` of a send along every CSR
        edge: fixed by the graph and this engine's placement, so computed
        (by :meth:`_count_traffic`) on the first one and reused after."""
        if self._broadcast is None:
            mask = np.zeros(self.graph.num_vertices, dtype=bool)
            self._broadcast = (*self._count_traffic(ids, counts, dst, mask), mask)
        return self._broadcast

    def _count_traffic(self, ids, counts, dst, dst_mask) -> tuple[int, int]:
        """``(local, remote)`` network messages of one superstep's sends,
        given as sender runs; OR-s their destinations into *dst_mask*.

        The accounting rule: a worker combines what it sends to one
        destination, so a network message is a distinct (source worker,
        destination) pair.  It is local when the destination's owner is
        the sender.
        """
        if self._traffic is None:
            self._traffic = _SlotCounter(self._owner, self.num_workers)
        return self._traffic.count(ids, dst, counts, dst_mask)

    def _finish_superstep(self, outgoing, active, sent, local, remote) -> None:
        self.stats.append(
            SuperstepStats(
                superstep=self.superstep,
                active_vertices=active,
                messages_sent=sent,
                local_messages=local,
                remote_messages=remote,
                remote_bytes=remote * self.program.message_bytes,
            )
        )
        self._incoming = outgoing
        self.superstep += 1

    # ------------------------------------------------------------------
    # Results and state
    # ------------------------------------------------------------------
    def has_work(self) -> bool:
        """Whether any message is pending or any vertex is still active."""
        return bool(self._incoming) or not bool(self._halted.all())

    def values(self) -> dict:
        """Current vertex values keyed by global vertex id."""
        return dict(enumerate(self._values.tolist()))

    def result(self, halted_normally: bool) -> ExecutionResult:
        """Snapshot the current outcome as an ExecutionResult."""
        return ExecutionResult(
            values=self.values(),
            supersteps_run=self.superstep,
            halted_normally=halted_normally,
            stats=list(self.stats),
        )

    def close(self) -> None:
        """Do nothing.

        The engine owns no process, file or OS resource (a memory-mapped
        graph's files belong to the graph), so there is nothing to
        release.  The method stays only because the ``prepare_recover``
        bench workload calls it.
        """

    # ------------------------------------------------------------------
    # Checkpoint hooks (see repro.engine.checkpoint)
    # ------------------------------------------------------------------
    def capture_state(self) -> dict:
        """Snapshot of everything needed to resume this computation.

        The state arrays are serialized directly (no per-vertex dicts);
        per-superstep stats ride along so a restored engine reports the
        same history as the one that wrote the checkpoint.
        """
        return {
            "superstep": self.superstep,
            "values": self._values.copy(),
            "halted": self._halted.copy(),
            "pending_messages": self._incoming.state_dict(),
            "stats": list(self.stats),
        }

    def restore_state(self, state: dict) -> None:
        """Resume from a :meth:`capture_state` snapshot.

        The worker layout may differ from the snapshot's (the whole point
        of Hourglass reconfiguration): state arrays are global, so the
        new workers simply see the restored arrays through their own
        vertex sets.
        """
        n = self.graph.num_vertices
        values = np.asarray(state["values"])
        halted = np.asarray(state["halted"], dtype=bool)
        if len(values) != n or len(halted) != n:
            raise ValueError(f"snapshot covers {len(values)} vertices, graph has {n}")
        self._values[...] = values
        self._halted[...] = halted
        self._incoming = MessageStore.from_state(
            state["pending_messages"], self.program.combiner
        )
        self.superstep = int(state["superstep"])
        # A checkpoint at superstep s carries exactly s stats records.
        self.stats = list(state["stats"])[: self.superstep]
