"""Reference oracle for the engine: the per-vertex superstep path.

:class:`~repro.engine.engine.PregelEngine` runs one compute path, a
program's ``compute_dense`` over whole arrays.  This module is the
reference that path is held to: :class:`ScalarEngine` runs
``compute(ctx, messages)`` once per active vertex through
:class:`ComputeContext`, delivers one message at a time through the
per-message :class:`~repro.engine.messages.MessageStore` functions below
and combines with :data:`COMBINE`.  Every built-in program has a scalar
twin (``ScalarPageRank`` ...), and :class:`GraphColoring`, whose
messages are tuples, runs only here.

It also keeps what only tests use as a fixture or a cross-check: the
engine-free :class:`SuperstepWorkModel`, :class:`ExponentialEvictionModel`
and four small deterministic graph generators.  None of it may be used
on a shipped path.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cloud.configuration import Configuration
from repro.cloud.eviction import EvictionModel
from repro.engine.aggregators import SumAggregator
from repro.engine.algorithms import (
    SSSP,
    ConnectedComponents,
    InDegree,
    OutDegree,
    PageRank,
)
from repro.engine.engine import PregelEngine
from repro.engine.messages import MaxCombiner, MessageStore, MinCombiner, SumCombiner
from repro.engine.vertex import VertexProgram
from repro.exec.workmodel import SegmentPlan, WorkModel
from repro.graph.graph import Graph, from_edges
from repro.utils.rng import derive_rng

# ----------------------------------------------------------------------
# Combining and the per-message store API
# ----------------------------------------------------------------------

#: The scalar merge of each combiner (its ufunc's per-message twin).
COMBINE = {
    SumCombiner: lambda a, b: a + b,
    MinCombiner: lambda a, b: a if a <= b else b,
    MaxCombiner: lambda a, b: a if a >= b else b,
}


def combine(combiner, a, b):
    """Merge two messages with *combiner* (a class or an instance)."""
    return COMBINE[combiner if isinstance(combiner, type) else type(combiner)](a, b)


def deliver(store: MessageStore, dst: int, message) -> None:
    """Add one message for *dst*, combining eagerly when possible."""
    store._count += 1
    # Fold a dense entry for the same destination into the bucket
    # first, so each destination lives in exactly one representation.
    bucket = store._by_dst[dst]
    if not bucket and store._dense_mask is not None and store._dense_mask[dst]:
        bucket.append(store._dense_values[dst].item())
        store._dense_mask[dst] = False
    if store._combiner is not None and bucket:
        bucket[0] = combine(store._combiner, bucket[0], message)
    else:
        bucket.append(message)


def messages_for(store: MessageStore, dst: int) -> list:
    """Messages addressed to *dst* (a fresh list; empty when none)."""
    out = list(store._by_dst.get(dst, ()))
    if store._dense_mask is not None and store._dense_mask[dst]:
        out.append(store._dense_values[dst].item())
        if store._combiner is not None and len(out) > 1:
            folded = out[0]
            for m in out[1:]:
                folded = combine(store._combiner, folded, m)
            out = [folded]
    return out


def destinations(store: MessageStore) -> list[int]:
    """Vertices with at least one pending message."""
    dests = [d for d, bucket in store._by_dst.items() if bucket]
    if store._dense_mask is not None:
        dests.extend(int(d) for d in np.flatnonzero(store._dense_mask))
    return dests


def destination_mask(store: MessageStore, num_vertices: int) -> np.ndarray:
    """Boolean mask over ``[0, num_vertices)`` of pending destinations."""
    if store._dense_mask is not None:
        mask = store._dense_mask.copy()
    else:
        mask = np.zeros(num_vertices, dtype=bool)
    keys = [d for d, bucket in store._by_dst.items() if bucket]
    if keys:
        mask[np.asarray(keys, dtype=np.int64)] = True
    return mask


def as_dict(store: MessageStore) -> dict[int, list]:
    """Pending messages as ``{destination: [messages]}``."""
    merged = {dst: list(msgs) for dst, msgs in store._by_dst.items() if msgs}
    if store._dense_mask is not None:
        for d in np.flatnonzero(store._dense_mask).tolist():
            merged.setdefault(d, []).append(store._dense_values[d].item())
    return merged


def stored(store: MessageStore) -> int:
    """Number of stored messages (post-combining)."""
    count = sum(len(v) for v in store._by_dst.values())
    if store._dense_mask is not None:
        count += int(np.count_nonzero(store._dense_mask))
    return count


# ----------------------------------------------------------------------
# The per-vertex superstep
# ----------------------------------------------------------------------
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

    def send(self, dst: int, message) -> None:
        """Send *message* to vertex *dst*, delivered next superstep."""
        self._outbox.append((int(dst), message))

    def send_to_neighbors(self, message) -> None:
        """Send the same message along every out-edge."""
        outbox = self._outbox
        for dst in self._out_edges:
            outbox.append((int(dst), message))

    def vote_to_halt(self) -> None:
        """Deactivate this vertex until a message wakes it up."""
        self._halted = True

    def aggregate(self, name: str, value) -> None:
        """Contribute *value* to the named aggregator for this superstep."""
        self._aggregators[name].accumulate(value)

    def aggregated(self, name: str):
        """Read the named aggregator's value from the *previous* superstep."""
        return self._prev_aggregates.get(name)


class ScalarProgram(VertexProgram):
    """A program with only the per-vertex API: ``initial_value`` and
    ``compute(ctx, messages)``.  Runs on :class:`ScalarEngine` only."""

    def initial_values(self, num_vertices: int):
        return None

    def compute_dense(self, ctx) -> None:
        raise NotImplementedError("a scalar program runs on ScalarEngine only")


class ScalarEngine(PregelEngine):
    """:class:`PregelEngine` with every superstep on the per-vertex path.

    Construction, stats, aggregates and checkpoint hooks are the
    engine's own; only initial values and the superstep differ.
    """

    def _init_state(self) -> None:
        program, n = self.program, self.graph.num_vertices
        init = program.initial_values(n)
        if init is not None:
            self._values[...] = np.asarray(init)
        else:
            self._values[...] = np.fromiter(
                (program.initial_value(v, n) for v in range(n)),
                dtype=self._values.dtype,
                count=n,
            )

    def step(self) -> bool:
        """Per-vertex compute path (arbitrary value/message types)."""
        program = self.program
        graph = self.graph
        owner = self._owner
        n = graph.num_vertices
        values = self._values
        halted = self._halted
        incoming = self._incoming
        outgoing = MessageStore(program.combiner, num_vertices=n)
        aggregators = {name: factory() for name, factory in program.aggregators().items()}

        ctx = ComputeContext()
        ctx.superstep = self.superstep
        ctx.num_vertices = n
        ctx._aggregators = aggregators
        ctx._prev_aggregates = self._prev_aggregates

        inc_mask = destination_mask(incoming, n)
        runnable = ~halted | inc_mask
        active = 0
        sent = local = remote = 0
        combiner = program.combiner

        for worker in self.workers:
            # Sender-side combining: one buffered slot per destination.
            send_buffer: dict[int, list] = {}
            wid = worker.worker_id
            own = worker.vertices
            run_ids = own[runnable[own]]
            for v, has_messages in zip(run_ids.tolist(), inc_mask[run_ids].tolist()):
                halted[v] = False
                active += 1
                ctx.vertex_id = v
                ctx.value = values[v]
                ctx._out_edges = graph.neighbors(v)
                ctx._out_weights = graph.edge_weights(v)
                ctx._outbox = []
                ctx._halted = False
                program.compute(ctx, messages_for(incoming, v) if has_messages else [])
                values[v] = ctx.value
                halted[v] = ctx._halted
                sent += len(ctx._outbox)
                for dst, msg in ctx._outbox:
                    slot = send_buffer.get(dst)
                    if slot is None:
                        send_buffer[dst] = [msg]
                    elif combiner is not None:
                        slot[0] = combine(combiner, slot[0], msg)
                    else:
                        slot.append(msg)
            # Flush this worker's buffer across the (simulated) network.
            for dst, msgs in send_buffer.items():
                is_remote = owner[dst] != wid
                for msg in msgs:
                    deliver(outgoing, dst, msg)
                    if is_remote:
                        remote += 1
                    else:
                        local += 1
            del send_buffer

        self._finish_superstep(aggregators, outgoing, active, sent, local, remote)
        return bool(outgoing) or not bool(self._halted.all())


# ----------------------------------------------------------------------
# Scalar twins of the built-in programs
# ----------------------------------------------------------------------
class ScalarPageRank(PageRank):
    def compute(self, ctx: ComputeContext, messages: list) -> None:
        if ctx.superstep > 0:
            incoming = sum(messages)
            ctx.value = (1.0 - self.damping) / ctx.num_vertices + self.damping * incoming
        ctx.aggregate("rank_sum", ctx.value)
        if ctx.superstep < self.iterations:
            if ctx.out_degree:
                ctx.send_to_neighbors(ctx.value / ctx.out_degree)
        else:
            ctx.vote_to_halt()


class ScalarSSSP(SSSP):
    def compute(self, ctx: ComputeContext, messages: list) -> None:
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


class ScalarConnectedComponents(ConnectedComponents):
    def compute(self, ctx: ComputeContext, messages: list) -> None:
        candidate = min(messages) if messages else ctx.value
        if ctx.superstep == 0:
            candidate = min(candidate, ctx.vertex_id)
            ctx.value = candidate
            ctx.send_to_neighbors(candidate)
        elif candidate < ctx.value:
            ctx.value = candidate
            ctx.send_to_neighbors(candidate)
        ctx.vote_to_halt()


class ScalarInDegree(InDegree):
    def compute(self, ctx: ComputeContext, messages: list) -> None:
        if ctx.superstep == 0:
            ctx.send_to_neighbors(1)
        else:
            ctx.value = sum(messages)
        ctx.vote_to_halt()


class ScalarOutDegree(OutDegree):
    def compute(self, ctx: ComputeContext, messages: list) -> None:
        ctx.value = ctx.out_degree
        ctx.vote_to_halt()


# ----------------------------------------------------------------------
# Greedy graph colouring (tuple messages: scalar only)
# ----------------------------------------------------------------------
UNCOLOURED = -1


def _priority(vertex_id: int, round_index: int, salt: int) -> int:
    """Deterministic pseudo-random priority for (vertex, round).

    SplitMix64-style mixing: uniform enough for Luby's argument, stable
    across runs (and across checkpoint recovery, which matters here).
    """
    x = (vertex_id * 0x9E3779B97F4A7C15 + round_index * 0xBF58476D1CE4E5B9 + salt) & (
        2**64 - 1
    )
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & (2**64 - 1)
    return x ^ (x >> 31)


class GraphColoring(ScalarProgram):
    """Luby-MIS based greedy colouring (Salihoglu & Widom, VLDB'14).

    Each colour round takes two supersteps: every uncoloured vertex
    broadcasts a per-round priority (even supersteps), then a vertex
    whose priority beats every uncoloured neighbour takes the round
    index as its colour (odd supersteps).  Vertex value is the colour
    (``-1`` while uncoloured).  Run it on a symmetric graph.
    """

    combiner = MaxCombiner
    message_bytes = 16  # (priority, vertex id)
    value_dtype = np.int64

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def aggregators(self):
        return {"uncoloured": SumAggregator}

    def initial_value(self, vertex_id: int, num_vertices: int) -> int:
        return UNCOLOURED

    def compute(self, ctx: ComputeContext, messages: list) -> None:
        if ctx.value != UNCOLOURED:
            ctx.vote_to_halt()
            return
        round_index = ctx.superstep // 2
        my_key = (_priority(ctx.vertex_id, round_index, self.seed), ctx.vertex_id)
        if ctx.superstep % 2 == 0:
            # Phase A: advertise this round's priority to all neighbours.
            ctx.aggregate("uncoloured", 1)
            ctx.send_to_neighbors(my_key)
        else:
            # Phase B: local maxima join the independent set.
            best_neighbour = max(messages) if messages else None
            if best_neighbour is None or my_key > best_neighbour:
                ctx.value = round_index
                ctx.vote_to_halt()
            # Otherwise stay active for the next round.


def count_colors(values: dict) -> int:
    """Number of distinct colours in a finished colouring."""
    return len({c for c in values.values() if c != UNCOLOURED})


def is_proper_coloring(graph, values: dict) -> bool:
    """Check no edge connects two vertices of the same colour."""
    for src, dst in graph.iter_edges():
        if src != dst and values[src] == values[dst]:
            return False
    return True


# ----------------------------------------------------------------------
# Engine-free work model and the memoryless eviction model
# ----------------------------------------------------------------------
class SuperstepWorkModel(WorkModel):
    """Engine-free replay of a calibrated superstep curve.

    Drives the lifecycle core exactly the way the engine-backed
    ``EngineWorkModel`` does — segments quantise to superstep
    boundaries, evictions roll back to the last persisted superstep —
    but progress comes from the calibration statistics of a
    :class:`~repro.runtime.mechmodel.MechanisticPerformanceModel`
    instead of a live engine.  With the same trace and provisioner it
    must reproduce the runtime's decision/event sequence step for step
    (for programs whose superstep count matches the calibration run),
    which is what the simulator-vs-runtime equivalence tests assert.
    """

    def __init__(self, perf):
        self.perf = perf
        self.total_supersteps = len(perf.calibration.stats)
        self._done = 0
        self._persisted = 0
        graph = getattr(perf, "graph", None)
        if graph is not None and getattr(graph, "num_vertices", 0):
            self._frontier_denom = float(graph.num_vertices)
        else:
            actives = [s.active_vertices for s in perf.calibration.stats]
            self._frontier_denom = float(max(actives)) if actives else 1.0

    def start(self) -> None:
        self._done = 0
        self._persisted = 0

    def finished(self) -> bool:
        return self._done >= self.total_supersteps

    def work_left(self) -> float:
        return max(0.0, 1.0 - self.perf.work_fraction_done(self._done))

    def on_deployed(self, config: Configuration, t: float) -> None:
        self._done = self._persisted

    def run_segment(self, config: Configuration, budget: float) -> SegmentPlan:
        stats = self.perf.calibration.stats
        elapsed = 0.0
        ran_any = False
        while self._done < self.total_supersteps:
            index = min(self._done, len(stats) - 1)
            step_time = self.perf.superstep_seconds(stats[index], config)
            if ran_any and elapsed + step_time > budget:
                break
            self._done += 1
            elapsed += step_time
            ran_any = True
            if elapsed >= budget:
                break
        return SegmentPlan(elapsed=elapsed, finishing=self.finished())

    def commit(self, config: Configuration, plan: SegmentPlan, persisted: bool) -> None:
        if persisted and not plan.finishing:
            self._persisted = self._done

    def on_evicted(self, config: Configuration, t_start: float, t_evict: float) -> None:
        self._done = self._persisted

    @property
    def superstep(self) -> int:
        return self._done

    def frontier(self) -> float:
        """Active fraction of the last completed calibrated superstep —
        the signal ``EngineWorkModel`` measures from its live engine."""
        if self._done <= 0 or self._frontier_denom <= 0:
            return 1.0
        stats = self.perf.calibration.stats
        index = min(self._done, len(stats)) - 1
        fraction = stats[index].active_vertices / self._frontier_denom
        return min(1.0, max(0.0, fraction))


class ExponentialEvictionModel(EvictionModel):
    """Memoryless model: ``F(u) = 1 - exp(-u / mttf)``."""

    def __init__(self, mttf: float):
        if mttf <= 0:
            raise ValueError(f"mttf must be positive, got {mttf}")
        self._mttf = float(mttf)

    def cdf(self, uptime: float) -> float:
        if uptime <= 0:
            return 0.0
        return 1.0 - float(np.exp(-uptime / self._mttf))

    def cdf_many(self, uptimes: np.ndarray) -> np.ndarray:
        uptimes = np.asarray(uptimes, dtype=np.float64)
        return np.where(uptimes <= 0, 0.0, 1.0 - np.exp(-uptimes / self._mttf))

    @property
    def mttf(self) -> float:
        return self._mttf


# ----------------------------------------------------------------------
# Small deterministic graphs
# ----------------------------------------------------------------------
def random_graph(
    num_vertices: int, avg_degree: float = 8.0, seed=None, name: str = "random"
) -> Graph:
    """Erdős–Rényi style G(n, m) directed graph."""
    rng = derive_rng(seed, "random", num_vertices)
    m = int(round(avg_degree * num_vertices))
    src = rng.integers(0, num_vertices, size=m)
    dst = rng.integers(0, num_vertices, size=m)
    keep = src != dst
    return from_edges(src[keep], dst[keep], num_vertices=num_vertices, name=name, dedup=True)


def ring_of_cliques(
    num_cliques: int, clique_size: int, name: str = "ring-of-cliques"
) -> Graph:
    """Deterministic ring of cliques.

    A classic partitioner sanity graph: the optimal k-way cut for
    ``k | num_cliques`` severs exactly ``k`` ring edges.
    """
    if num_cliques < 1 or clique_size < 1:
        raise ValueError("num_cliques and clique_size must be >= 1")
    src_list, dst_list = [], []
    n = num_cliques * clique_size
    for c in range(num_cliques):
        base = c * clique_size
        for i in range(clique_size):
            for j in range(clique_size):
                if i != j:
                    src_list.append(base + i)
                    dst_list.append(base + j)
        # One ring edge between consecutive cliques (both directions).
        nxt = ((c + 1) % num_cliques) * clique_size
        if num_cliques > 1:
            src_list += [base, nxt]
            dst_list += [nxt, base]
    return from_edges(src_list, dst_list, num_vertices=n, name=name, dedup=True)


def grid_graph(rows: int, cols: int, name: str = "grid") -> Graph:
    """Deterministic 2D grid (4-neighbourhood), symmetric."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    src_list, dst_list = [], []

    def vid(r, c):
        return r * cols + c

    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                src_list += [vid(r, c), vid(r, c + 1)]
                dst_list += [vid(r, c + 1), vid(r, c)]
            if r + 1 < rows:
                src_list += [vid(r, c), vid(r + 1, c)]
                dst_list += [vid(r + 1, c), vid(r, c)]
    return from_edges(src_list, dst_list, num_vertices=rows * cols, name=name)


def path_graph(num_vertices: int, weighted: bool = False, name: str = "path") -> Graph:
    """Deterministic directed path 0 -> 1 -> ... -> n-1 (unit weights)."""
    if num_vertices < 1:
        raise ValueError("num_vertices must be >= 1")
    src = np.arange(num_vertices - 1, dtype=np.int64)
    dst = src + 1
    weights = np.ones(num_vertices - 1) if weighted else None
    return from_edges(src, dst, num_vertices=num_vertices, weights=weights, name=name)
