"""The Pregel-style BSP execution engine (the Giraph stand-in).

Runs a :class:`~repro.engine.vertex.VertexProgram` over a partitioned
graph in synchronous supersteps across simulated workers.  Messages are
combined at the sender (when the program declares a combiner), routed to
their destination worker, and delivered at the next barrier; aggregators
are reduced at the barrier and broadcast to the next superstep, exactly
following the Pregel/Giraph model the paper runs on.

Vertex values and halted flags live in dense numpy arrays indexed by
global vertex id (shared with the workers).  The superstep loop computes
the active set, the local/remote traffic split and the global halt
condition from those arrays, and the program runs one batched
``compute_dense`` call per superstep over every active vertex, which is
what makes long runs (PageRank over tens of thousands of vertices for
Figs 5-7) cheap.

The engine tracks per-superstep statistics — active vertices, local vs
remote messages, estimated network bytes — which is how partition
quality translates into simulated execution time (cut edges ⇒ remote
messages ⇒ network cost).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.engine.messages import MessageStore
from repro.engine.vertex import DenseComputeContext, VertexProgram
from repro.engine.worker import Worker, build_workers, value_dtype_of
from repro.graph.graph import Graph, stable_argsort
from repro.obs.state import get_metrics, get_tracer
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
    aggregates: dict

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
    scatter and one ``count_nonzero`` replace sorting every message.
    """

    def __init__(self, owner: np.ndarray, num_workers: int):
        n = len(owner)
        self._slot_base = owner * np.int64(n)  # vertex -> first slot of its worker
        self._own_slot = self._slot_base + np.arange(n, dtype=np.int64)
        self._num_slots = num_workers * n
        workers_per_block = max(1, _SLOT_BITMAP_BYTES // max(1, n))
        self._block = min(self._num_slots, workers_per_block * n)
        self._seen = np.zeros(self._block, dtype=bool)

    def count(self, src: np.ndarray, dst: np.ndarray) -> tuple[int, int]:
        """``(local, remote)`` distinct slots among the messages."""
        slots = self._slot_base[src] + dst
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
            seen.fill(False)
        return local, distinct - local


class PregelEngine:
    """Synchronous vertex-centric engine over simulated workers.

    Args:
        graph: the input graph (message topology = out-edges).
        program: the vertex program to run.
        partitioning: vertex -> worker assignment; its ``num_parts`` is
            the worker count.
        max_supersteps: safety cap (default 10_000).
        tracer: :class:`~repro.obs.trace.Tracer` for ``superstep`` spans
            (default: the process tracer at construction time; the
            no-op tracer costs one branch per superstep).
        execution: ``"serial"`` (default) runs everything in-process;
            ``"parallel"`` runs each worker's dense superstep compute in
            a real OS process against shared-memory state arrays (see
            :mod:`repro.engine.parallel`).  Results are bit-identical.
            Programs with non-numeric values, and hosts without the
            ``fork`` start method, fall back to the serial path
            transparently.
        num_processes: pool size for parallel execution (default: one
            per worker, capped at the CPU count).
    """

    def __init__(
        self,
        graph: Graph,
        program: VertexProgram,
        partitioning: Partitioning | None = None,
        max_supersteps: int = 10_000,
        tracer=None,
        execution: str = "serial",
        num_processes: int | None = None,
    ):
        if partitioning is None:
            from repro.partitioning.hashing import HashPartitioner

            partitioning = HashPartitioner().partition(graph, 1)
        if partitioning.num_vertices != graph.num_vertices:
            raise ValueError("partitioning does not match graph")
        if max_supersteps < 1:
            raise ValueError("max_supersteps must be >= 1")
        if execution not in ("serial", "parallel"):
            raise ValueError(
                f"execution must be 'serial' or 'parallel', got {execution!r}"
            )
        self.execution = execution
        self._num_processes = num_processes
        self._parallel = None  # lazy ParallelBackend
        self._parallel_unavailable = False
        self._finalizer = None
        self.graph = graph
        self.program = program
        self.partitioning = partitioning
        self.max_supersteps = max_supersteps
        self._tracer = tracer if tracer is not None else get_tracer()
        self.num_workers = partitioning.num_parts
        self.workers: list[Worker] = build_workers(partitioning, self.num_workers)
        self._owner = partitioning.assignment  # vertex -> worker
        self.superstep = 0
        self.stats: list[SuperstepStats] = []
        n = graph.num_vertices
        self._incoming = MessageStore(program.combiner, num_vertices=n)
        self._prev_aggregates: dict = {}
        self._traffic: _SlotCounter | None = None  # lazy, first dense send
        self._broadcast: tuple | None = None  # lazy, first full broadcast
        self._values = np.empty(n, dtype=value_dtype_of(program))
        self._halted = np.zeros(n, dtype=bool)
        self._init_state()
        for worker in self.workers:
            worker.attach(self._values, self._halted)

    def _init_state(self) -> None:
        """Initial values from the program; every vertex starts active."""
        n = self.graph.num_vertices
        init = np.asarray(self.program.initial_values(n))
        if init.shape != (n,):
            raise ValueError(f"initial_values returned shape {init.shape}, expected ({n},)")
        self._values[...] = init

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, max_supersteps: int | None = None) -> ExecutionResult:
        """Run until global halt or the superstep cap."""
        cap = max_supersteps if max_supersteps is not None else self.max_supersteps
        halted = False
        while self.superstep < cap:
            if not self.step():
                halted = True
                break
        return self.result(halted_normally=halted)

    def step(self) -> bool:
        """Execute one superstep; returns True while work remains."""
        if self._tracer.enabled:
            return self._step_traced()
        return self._step_dense()

    def _step_traced(self) -> bool:
        """One superstep wrapped in a ``superstep`` span (wall clock)."""
        started = time.perf_counter()
        with self._tracer.span(
            "superstep", superstep=self.superstep, workers=self.num_workers
        ) as span:
            more = self._step_dense()
            stats = self.stats[-1]
            span.set(
                active=stats.active_vertices,
                messages=stats.messages_sent,
                remote_bytes=stats.remote_bytes,
            )
        get_metrics().histogram(
            "superstep_wall_seconds", "Wall-clock seconds per engine superstep"
        ).observe(time.perf_counter() - started, workers=self.num_workers)
        return more

    def _step_dense(self) -> bool:
        """Batched array compute: serial in-process or multiprocess."""
        if self.execution == "parallel":
            backend = self._parallel_backend()
            if backend is not None:
                return backend.step(self)
        return self._step_dense_serial()

    def _parallel_backend(self):
        """The lazily-built multiprocess backend (None → serial fallback)."""
        if self._parallel is None and not self._parallel_unavailable:
            import weakref

            from repro.engine.parallel import (
                ParallelBackend,
                parallel_execution_supported,
            )

            if not parallel_execution_supported(self.program):
                self._parallel_unavailable = True
                if self._tracer.enabled:
                    self._tracer.event(
                        "engine.parallel.fallback", reason="unsupported"
                    )
                return None
            backend = ParallelBackend(
                graph=self.graph,
                program=self.program,
                owner=self._owner,
                num_workers=self.num_workers,
                values=self._values,
                halted=self._halted,
                num_processes=self._num_processes,
            )
            # The engine's state arrays now live in shared memory; rebind
            # so checkpoints/restores act on the arrays the workers see.
            self._values = backend.values
            self._halted = backend.halted
            for worker in self.workers:
                worker.attach(self._values, self._halted)
            self._parallel = backend
            self._finalizer = weakref.finalize(self, backend.shutdown)
        return self._parallel

    @property
    def parallel_active(self) -> bool:
        """Whether a multiprocess backend is currently attached."""
        return self._parallel is not None

    def close(self) -> None:
        """Release parallel-execution resources (idempotent).

        Serial engines are unaffected.  A closed parallel engine keeps
        its state (values/halted are copied out of shared memory first),
        so results remain readable; further parallel supersteps run the
        serial path.
        """
        if self._parallel is not None:
            backend, self._parallel = self._parallel, None
            self._parallel_unavailable = True
            self._values = self._values.copy()
            self._halted = self._halted.copy()
            for worker in self.workers:
                worker.attach(self._values, self._halted)
            backend.shutdown()
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None

    def __enter__(self) -> "PregelEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _step_dense_serial(self) -> bool:
        """Batched array compute path (numeric values and messages)."""
        program = self.program
        graph = self.graph
        n = graph.num_vertices
        incoming = self._incoming
        inc_vals, inc_mask = incoming.dense_view(n)
        active_mask = ~self._halted | inc_mask
        aggregators = {name: factory() for name, factory in program.aggregators().items()}

        ctx = DenseComputeContext(
            superstep=self.superstep,
            graph=graph,
            values=self._values,
            active=active_mask,
            messages=inc_vals,
            has_message=inc_mask,
            aggregators=aggregators,
            prev_aggregates=self._prev_aggregates,
        )
        program.compute_dense(ctx)

        # Every vertex that ran is active next superstep unless it voted.
        self._halted[active_mask] = False
        self._halted |= ctx._halt_mask

        active = int(np.count_nonzero(active_mask))
        return self._exchange(ctx._sends, aggregators, active)

    def _exchange(
        self, sends: list, aggregators: dict, active: int, merge_by_source: bool = False
    ) -> bool:
        """The superstep tail every dense step ends in, serial or parallel.

        Concatenates the ``(src, dst, msg)`` batches in *sends*, delivers
        them, meters the traffic and closes the superstep; returns True
        while work remains.  ``merge_by_source`` stable-sorts the merged
        batch by source vertex first — how the parallel backend turns its
        per-worker outboxes back into the serial emission order.
        """
        outgoing = MessageStore(self.program.combiner, num_vertices=self.graph.num_vertices)
        sent = local = remote = 0
        if sends:
            if len(sends) == 1:
                src, dst, msg = sends[0]
            else:
                src, dst, msg = (np.concatenate(column) for column in zip(*sends))
            if merge_by_source:
                order = stable_argsort(src, self.graph.num_vertices)
                src, dst, msg = src[order], dst[order], msg[order]
            sent = len(dst)
            if src is self.graph.edge_sources() and dst is self.graph.indices:
                local, remote, dst_mask = self._full_broadcast(src, dst)
            else:
                dst_mask = None
                local, remote = self._count_traffic(src, dst)
            outgoing.deliver_many(dst, msg, dst_mask)
        self._finish_superstep(aggregators, outgoing, active, sent, local, remote)
        return bool(outgoing) or not bool(self._halted.all())

    def _full_broadcast(self, src, dst) -> tuple[int, int, np.ndarray]:
        """``(local, remote, destination mask)`` of a send along every CSR
        edge: fixed by the graph and this engine's placement, so computed
        (by :meth:`_count_traffic`) on the first one and reused after."""
        if self._broadcast is None:
            mask = np.zeros(self.graph.num_vertices, dtype=bool)
            mask[dst] = True
            self._broadcast = (*self._count_traffic(src, dst), mask)
        return self._broadcast

    def _count_traffic(self, src: np.ndarray, dst: np.ndarray) -> tuple[int, int]:
        """``(local, remote)`` network messages of one superstep's sends.

        The accounting rule, stated once for the serial and the parallel
        path: a worker combines
        what it sends to one destination only when the program declares a
        combiner, so with a combiner a network message is a distinct
        (source worker, destination) pair, and without one it is every
        message.  It is local when the destination's owner is the sender.
        """
        owner = self._owner
        if self.program.combiner is None:
            local = int(np.count_nonzero(owner[src] == owner[dst]))
            return local, len(dst) - local
        if self._traffic is None:
            self._traffic = _SlotCounter(owner, self.num_workers)
        return self._traffic.count(src, dst)

    def _finish_superstep(
        self, aggregators, outgoing, active, sent, local, remote
    ) -> None:
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
        self._prev_aggregates = {name: agg.value for name, agg in aggregators.items()}
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
            aggregates=dict(self._prev_aggregates),
        )

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
            "format": 2,
            "superstep": self.superstep,
            "num_vertices": self.graph.num_vertices,
            "values": self._values.copy(),
            "halted": self._halted.copy(),
            "pending_messages": self._incoming.state_dict(),
            "prev_aggregates": dict(self._prev_aggregates),
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
        self._prev_aggregates = dict(state["prev_aggregates"])
