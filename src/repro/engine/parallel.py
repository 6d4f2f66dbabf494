"""Multiprocess execution backend for the Pregel engine.

Promotes :class:`~repro.engine.worker.Worker` from an index-space
fiction to a real OS process: the dense vertex-value / halted / message
arrays live in one :mod:`multiprocessing.shared_memory` segment, and a
persistent :class:`~concurrent.futures.ProcessPoolExecutor` runs one
``compute_dense`` call per worker per superstep.  The parent process is
the BSP master: it merges the previous superstep's messages into the
shared inbox arrays, computes the global active mask, fans one task per
worker out to the pool, barriers on the results, and performs the
batched cross-worker message exchange.

Shared-memory layout (one segment, 64-byte aligned sections)::

    values     num_vertices x value_dtype   vertex state (workers write own slots)
    halted     num_vertices x bool          vote-to-halt flags (workers write own)
    active     num_vertices x bool          this superstep's active mask (master writes)
    msg_vals   num_vertices x float64       combined inbox values (master writes)
    msg_mask   num_vertices x bool          inbox destinations (master writes)
    send_src   num_edges    x int64         outbox: message sources (workers write)
    send_dst   num_edges    x int64         outbox: message destinations
    send_msg   num_edges    x float64       outbox: message payloads

The outbox is split into per-worker extents sized by each worker's total
out-degree, so workers write their sends without coordination; a program
that emits more messages than its worker's out-edges spills the excess
through the (pickled) result path instead of overrunning its extent.

**Determinism.**  Results are bit-identical to the serial engine: halted
and value writes are restricted to disjoint owned slots, and the master
merges the per-worker outboxes with a stable sort on the source vertex
before delivering them.  The serial dense path emits messages in CSR
edge order (source-ascending) for every built-in program, and all of a
source's messages come from exactly one worker in their original order,
so the stable merge reproduces the serial delivery order exactly — which
is what keeps floating-point ``SumCombiner`` accumulation identical.
(Order-insensitive combiners — min/max — are bit-identical regardless of
emission order.)  Aggregator values are reduced from per-worker partials
at the barrier, matching Giraph's real aggregator semantics; they may
differ from the serial engine in the last float ulp and are excluded
from the bit-identity contract.

Parallel mode requires the ``fork`` start method (the graph topology and
the program are inherited copy-on-write; only mutable state needs shared
memory) and a numeric ``value_dtype``.  When either is unavailable the
engine transparently runs its serial path.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import NamedTuple

import numpy as np

from repro.engine.vertex import DenseComputeContext
from repro.obs.state import get_metrics, get_tracer

_ALIGN = 64


def parallel_execution_supported(program=None) -> bool:
    """Whether this host/program can run the multiprocess dense path.

    Needs the ``fork`` start method (Linux/macOS) and, when *program* is
    given, a dense-capable program with a numeric value dtype.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return False
    if program is None:
        return True
    if not getattr(program, "supports_dense", False):
        return False
    dtype = getattr(program, "value_dtype", None)
    return dtype is not None and np.issubdtype(np.dtype(dtype), np.number)


@dataclass
class _WorkerSetup:
    """Everything a pool process needs; inherited copy-on-write by fork."""

    graph: object
    program: object
    own_masks: list  # worker -> bool mask over vertices
    values: np.ndarray
    halted: np.ndarray
    active: np.ndarray
    msg_vals: np.ndarray
    msg_mask: np.ndarray
    send_src: np.ndarray
    send_dst: np.ndarray
    send_msg: np.ndarray
    send_offsets: np.ndarray
    send_caps: np.ndarray


class _TaskResult(NamedTuple):
    """One worker's superstep outcome (everything bulky stays in shm)."""

    worker_id: int
    sent: int
    overflow: tuple | None  # (src, dst, msg) arrays beyond the shm extent
    partials: dict
    compute_seconds: float


_SETUP: _WorkerSetup | None = None


def _init_pool_process(setup: _WorkerSetup) -> None:
    global _SETUP
    _SETUP = setup


def _run_superstep(worker_id: int, superstep: int, prev_aggregates: dict):
    """Execute one worker's share of a superstep against shared memory."""
    st = _SETUP
    started = time.perf_counter()
    own = st.own_masks[worker_id]
    active_w = st.active & own
    program = st.program
    aggregators = {name: factory() for name, factory in program.aggregators().items()}
    ctx = DenseComputeContext(
        superstep=superstep,
        graph=st.graph,
        values=st.values,
        active=active_w,
        messages=st.msg_vals,
        has_message=st.msg_mask,
        aggregators=aggregators,
        prev_aggregates=prev_aggregates,
    )
    program.compute_dense(ctx)

    # Same bookkeeping as the serial path, restricted to owned slots
    # (ownership is disjoint, so concurrent workers never collide).
    st.halted[active_w] = False
    st.halted[ctx._halt_mask & own] = True

    # Write sends into this worker's outbox extent, in emission order.
    offset = int(st.send_offsets[worker_id])
    cap = int(st.send_caps[worker_id])
    pos = 0
    overflow_parts: list[tuple] = []
    for src, dst, msg in ctx._sends:
        count = len(src)
        room = cap - pos
        fit = min(count, room)
        if fit > 0:
            st.send_src[offset + pos : offset + pos + fit] = src[:fit]
            st.send_dst[offset + pos : offset + pos + fit] = dst[:fit]
            st.send_msg[offset + pos : offset + pos + fit] = msg[:fit]
            pos += fit
        if fit < count:
            overflow_parts.append((src[fit:], dst[fit:], msg[fit:]))
    overflow = None
    if overflow_parts:
        overflow = (
            np.concatenate([s for s, _, _ in overflow_parts]),
            np.concatenate([d for _, d, _ in overflow_parts]),
            np.concatenate([m for _, _, m in overflow_parts]).astype(
                np.float64, copy=False
            ),
        )
    partials = {name: agg.value for name, agg in aggregators.items()}
    return _TaskResult(
        worker_id=worker_id,
        sent=pos,
        overflow=overflow,
        partials=partials,
        compute_seconds=time.perf_counter() - started,
    )


class ParallelBackend:
    """Owns the shared-memory arena and the persistent worker pool.

    Built lazily by :class:`~repro.engine.engine.PregelEngine` on the
    first parallel superstep.  The backend never stores a reference to
    the engine (so a ``weakref.finalize`` on the engine can safely close
    it); per-step engine state is passed into :meth:`step`.
    """

    def __init__(
        self,
        graph,
        program,
        owner: np.ndarray,
        num_workers: int,
        values: np.ndarray,
        halted: np.ndarray,
        num_processes: int | None = None,
    ):
        n = graph.num_vertices
        # Derive the per-edge source ids before forking, so the pool
        # inherits the graph's one copy instead of deriving its own.
        graph.edge_sources()
        self.num_workers = num_workers
        value_dtype = values.dtype

        degrees = np.diff(graph.indptr)
        caps = np.bincount(owner, weights=degrees, minlength=num_workers).astype(
            np.int64
        )
        offsets = np.zeros(num_workers, dtype=np.int64)
        np.cumsum(caps[:-1], out=offsets[1:])
        total_sends = int(caps.sum())

        sections = [
            ("values", n, value_dtype),
            ("halted", n, np.dtype(bool)),
            ("active", n, np.dtype(bool)),
            ("msg_vals", n, np.dtype(np.float64)),
            ("msg_mask", n, np.dtype(bool)),
            ("send_src", total_sends, np.dtype(np.int64)),
            ("send_dst", total_sends, np.dtype(np.int64)),
            ("send_msg", total_sends, np.dtype(np.float64)),
        ]
        layout = {}
        cursor = 0
        for name, count, dtype in sections:
            layout[name] = (cursor, count, dtype)
            nbytes = count * dtype.itemsize
            cursor += nbytes + (-nbytes) % _ALIGN
        self._shm = shared_memory.SharedMemory(create=True, size=max(1, cursor))
        self.shm_bytes = self._shm.size
        self._arrays: dict[str, np.ndarray] | None = {
            name: np.ndarray(count, dtype=dtype, buffer=self._shm.buf, offset=off)
            for name, (off, count, dtype) in layout.items()
        }
        arr = self._arrays
        arr["values"][...] = values
        arr["halted"][...] = halted
        self.values = arr["values"]
        self.halted = arr["halted"]
        self._send_offsets = offsets
        self._send_caps = caps

        setup = _WorkerSetup(
            graph=graph,
            program=program,
            own_masks=[owner == w for w in range(num_workers)],
            values=arr["values"],
            halted=arr["halted"],
            active=arr["active"],
            msg_vals=arr["msg_vals"],
            msg_mask=arr["msg_mask"],
            send_src=arr["send_src"],
            send_dst=arr["send_dst"],
            send_msg=arr["send_msg"],
            send_offsets=offsets,
            send_caps=caps,
        )
        if num_processes is None:
            num_processes = min(num_workers, max(1, os.cpu_count() or 1))
        self.num_processes = max(1, num_processes)
        self._pool: ProcessPoolExecutor | None = ProcessPoolExecutor(
            max_workers=self.num_processes,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_pool_process,
            initargs=(setup,),
        )
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "engine.parallel.start",
                workers=num_workers,
                processes=self.num_processes,
                shm_bytes=self.shm_bytes,
            )
            get_metrics().gauge(
                "engine_shm_bytes",
                "Shared-memory arena bytes held by a parallel engine",
            ).set(self.shm_bytes, workers=num_workers)

    # ------------------------------------------------------------------
    def step(self, engine) -> bool:
        """Run one parallel superstep; mirrors ``PregelEngine._step_dense``."""
        arrays = self._arrays
        n = engine.graph.num_vertices
        engine._incoming.dense_view_into(n, arrays["msg_vals"], arrays["msg_mask"])
        np.logical_or(~self.halted, arrays["msg_mask"], out=arrays["active"])
        active = int(np.count_nonzero(arrays["active"]))

        futures = [
            self._pool.submit(_run_superstep, w, engine.superstep, engine._prev_aggregates)
            for w in range(self.num_workers)
        ]
        results = [future.result() for future in futures]  # superstep barrier

        program = engine.program
        aggregators = {
            name: factory() for name, factory in program.aggregators().items()
        }
        tracer = get_tracer()
        traced = tracer.enabled
        for res in results:
            for name, partial in res.partials.items():
                aggregators[name].accumulate(partial)
            if traced:
                get_metrics().histogram(
                    "engine_worker_compute_seconds",
                    "Per-worker wall-clock compute per parallel superstep",
                ).observe(res.compute_seconds, worker=res.worker_id)

        # Batched cross-worker exchange: gather each worker's outbox
        # extent; the engine's tail stable-sorts the merged batch by
        # source, which reproduces the serial delivery order.
        sends = []
        for res in results:
            if res.sent:
                lo = int(self._send_offsets[res.worker_id])
                hi = lo + res.sent
                sends.append(
                    (
                        arrays["send_src"][lo:hi],
                        arrays["send_dst"][lo:hi],
                        arrays["send_msg"][lo:hi],
                    )
                )
            if res.overflow is not None:
                sends.append(res.overflow)
        return engine._exchange(sends, aggregators, active, merge_by_source=True)

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop the pool and release the shared-memory arena (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._shm is not None:
            self._arrays = None
            self.values = None
            self.halted = None
            gc.collect()  # drop lingering views so the buffer can close
            shm, self._shm = self._shm, None
            try:
                shm.close()
            except BufferError:  # a view survived; the OS reclaims at exit
                pass
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
