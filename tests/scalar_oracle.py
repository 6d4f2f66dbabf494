"""Reference oracle for the engine: the per-vertex superstep path.

:class:`~repro.engine.engine.PregelEngine` runs one compute path, a
program's ``compute_dense`` over whole arrays, with one combined inbox.
This module is the reference that path is held to: :class:`ScalarEngine`
runs ``compute(ctx, messages)`` once per active vertex through
:class:`ComputeContext`, delivers one message at a time into a
per-destination :class:`ListInbox` (in source-vertex order, as the
engine's store combines a batch) and combines with :data:`COMBINE`.
It is also the full Pregel model the engine dropped: programs without a
combiner, arbitrary ``send(dst, message)`` calls, the
:class:`MaxCombiner` and :class:`SumAggregator`.  Every dense program
has a scalar twin (``ScalarPageRank`` ..., held to it bit for bit by
``tests/test_scalar_twins.py``): the shipped SSSP and PageRank, and the
two dense test programs kept here, :class:`ConnectedComponents` (a
min-combined label propagation that halts data-dependently) and
:class:`InDegree` (the simplest sum-combined program).
:class:`GraphColoring`, whose messages are tuples, runs only here.

It also keeps what only tests use as a fixture or a cross-check: the
engine-free :class:`SuperstepWorkModel`, :class:`ExponentialEvictionModel`,
the per-vertex graph and partition views (:func:`from_edges`,
:func:`edge_weights`, :func:`part_vertices`) and four small
deterministic graph generators.  None of it may be used on a shipped
path.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from repro.cloud.configuration import Configuration
from repro.cloud.eviction import EvictionModel
from repro.engine.algorithms import SSSP, PageRank
from repro.engine.algorithms.pagerank import DAMPING
from repro.engine.engine import PregelEngine
from repro.engine.messages import Combiner, MinCombiner, SumCombiner
from repro.engine.vertex import DenseComputeContext, VertexProgram
from repro.exec.workmodel import SegmentPlan, WorkModel
from repro.graph.graph import Graph, _unique_edges, stable_argsort
from repro.utils.rng import derive_rng


class MaxCombiner(Combiner):
    """Keep the larger message (graph colouring's priorities)."""

    ufunc = np.maximum
    identity = -np.inf


class SumAggregator:
    """Pregel's reduce-and-broadcast primitive, summing: what vertices
    contribute in superstep ``s`` is readable in superstep ``s + 1``."""

    def __init__(self):
        self.value = 0

    def accumulate(self, value) -> None:
        self.value += value


# ----------------------------------------------------------------------
# Combining and the per-destination inbox
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


class ListInbox:
    """Each destination's messages in a list, merged into one with the
    combiner when the program declares one, plus the aggregates the
    next superstep reads (Pregel delivers both at the barrier).

    A checkpoint carries it as the engine's ``pending_messages``: its
    snapshot has the engine inbox's keys (no dense arrays) and the
    buckets and aggregates besides.
    """

    def __init__(self, combiner, num_vertices: int):
        self.combiner = combiner
        self.num_vertices = num_vertices
        self.buckets: dict[int, list] = defaultdict(list)
        self.aggregates: dict = {}

    def __bool__(self) -> bool:
        return any(self.buckets.values())

    def state_dict(self) -> dict:
        return {
            "dense_values": None,
            "dense_mask": None,
            "num_vertices": self.num_vertices,
            "buckets": {dst: list(msgs) for dst, msgs in self.buckets.items() if msgs},
            "aggregates": dict(self.aggregates),
        }

    @classmethod
    def from_state(cls, state: dict, combiner) -> "ListInbox":
        inbox = cls(combiner, state["num_vertices"])
        for dst, msgs in state["buckets"].items():
            inbox.buckets[int(dst)] = list(msgs)
        inbox.aggregates = dict(state["aggregates"])
        return inbox


def deliver(inbox: ListInbox, dst: int, message) -> None:
    """Add one message for *dst*, combining eagerly when possible."""
    bucket = inbox.buckets[dst]
    if inbox.combiner is not None and bucket:
        bucket[0] = combine(inbox.combiner, bucket[0], message)
    else:
        bucket.append(message)


def messages_for(store, dst: int) -> list:
    """Messages addressed to *dst* in a :class:`ListInbox` or an engine
    :class:`~repro.engine.messages.MessageStore` (a fresh list; empty
    when none)."""
    if isinstance(store, ListInbox):
        return list(store.buckets.get(dst, ()))
    values, mask = store.dense_view()
    return [values[dst].item()] if mask[dst] else []


def as_dict(store) -> dict[int, list]:
    """Pending messages as ``{destination: [messages]}``."""
    if isinstance(store, ListInbox):
        return {dst: list(msgs) for dst, msgs in store.buckets.items() if msgs}
    values, mask = store.dense_view()
    return {d: [values[d].item()] for d in np.flatnonzero(mask).tolist()}


def destinations(store) -> list[int]:
    """Vertices with at least one pending message."""
    return list(as_dict(store))


def destination_mask(store, num_vertices: int) -> np.ndarray:
    """Boolean mask over ``[0, num_vertices)`` of pending destinations."""
    mask = np.zeros(num_vertices, dtype=bool)
    mask[np.asarray(destinations(store), dtype=np.int64)] = True
    return mask


def stored(store) -> int:
    """Number of stored messages (post-combining)."""
    return sum(len(msgs) for msgs in as_dict(store).values())


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
    """A program with only the per-vertex API: ``initial_value``,
    ``compute(ctx, messages)`` and, optionally, :meth:`aggregators`.
    Runs on :class:`ScalarEngine` only."""

    def aggregators(self) -> dict:
        """Aggregator factories, keyed by name (default: none)."""
        return {}

    def initial_values(self, num_vertices: int):
        return None

    def compute_dense(self, ctx) -> None:
        raise NotImplementedError("a scalar program runs on ScalarEngine only")


class ScalarEngine(PregelEngine):
    """:class:`PregelEngine` with every superstep on the per-vertex path.

    Construction, stats and checkpoint capture are the engine's own; the
    initial values, the inbox (a :class:`ListInbox`, which also carries
    the aggregates), the superstep and the restore differ.
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
        self._incoming = ListInbox(program.combiner, n)

    def step(self) -> bool:
        """Per-vertex compute path (arbitrary value/message types)."""
        program = self.program
        graph = self.graph
        owner = self._owner
        n = graph.num_vertices
        values = self._values
        halted = self._halted
        incoming = self._incoming
        outgoing = ListInbox(program.combiner, n)
        factories = getattr(program, "aggregators", dict)()
        aggregators = {name: factory() for name, factory in factories.items()}

        ctx = ComputeContext()
        ctx.superstep = self.superstep
        ctx.num_vertices = n
        ctx._aggregators = aggregators
        ctx._prev_aggregates = incoming.aggregates

        inc_mask = destination_mask(incoming, n)
        runnable = ~halted | inc_mask
        active = 0
        sent = local = remote = 0
        combiner = program.combiner

        sends = []  # (source, destination, message) of every send
        for wid in range(self.num_workers):
            # A worker combines what it sends to one destination, so one
            # network message per destination it reaches.
            reached: set[int] = set()
            own = part_vertices(self.partitioning, wid)
            run_ids = own[runnable[own]]
            for v, has_messages in zip(run_ids.tolist(), inc_mask[run_ids].tolist()):
                halted[v] = False
                active += 1
                ctx.vertex_id = v
                ctx.value = values[v]
                ctx._out_edges = graph.neighbors(v)
                ctx._out_weights = edge_weights(graph, v)
                ctx._outbox = []
                ctx._halted = False
                program.compute(ctx, messages_for(incoming, v) if has_messages else [])
                values[v] = ctx.value
                halted[v] = ctx._halted
                sent += len(ctx._outbox)
                for dst, msg in ctx._outbox:
                    sends.append((v, dst, msg))
                    if combiner is not None and dst in reached:
                        continue
                    reached.add(dst)
                    if owner[dst] != wid:
                        remote += 1
                    else:
                        local += 1
        # The receiver merges its messages in source-vertex order (a
        # vertex's own in send order), as the dense store's ``ufunc.at``
        # does over a CSR-ordered batch: a float sum groups the same way.
        sends.sort(key=lambda send: send[0])
        for _, dst, msg in sends:
            deliver(outgoing, dst, msg)

        outgoing.aggregates = {name: agg.value for name, agg in aggregators.items()}
        self._finish_superstep(outgoing, active, sent, local, remote)
        return bool(outgoing) or not bool(self._halted.all())

    def restore_state(self, state: dict) -> None:
        self._values[...] = np.asarray(state["values"])
        self._halted[...] = np.asarray(state["halted"], dtype=bool)
        self._incoming = ListInbox.from_state(
            state["pending_messages"], self.program.combiner
        )
        self.superstep = int(state["superstep"])
        self.stats = list(state["stats"])[: self.superstep]


# ----------------------------------------------------------------------
# Dense test programs: WCC and in-degree
# ----------------------------------------------------------------------
class ConnectedComponents(VertexProgram):
    """Weakly connected components via HashMin label propagation: each
    vertex converges to the minimum vertex id in its component.

    Run on the symmetrised graph (``graph.undirected()``) for *weakly*
    connected components of a directed input.
    """

    combiner = MinCombiner
    message_bytes = 8
    value_dtype = np.int64

    def initial_values(self, num_vertices: int) -> np.ndarray:
        return np.arange(num_vertices, dtype=np.int64)

    def compute_dense(self, ctx: DenseComputeContext) -> None:
        values = ctx.values
        if ctx.superstep == 0:
            # Every vertex's label starts as its own id; broadcast it.
            ctx.send_to_all_neighbors(ctx.active, values)
        else:
            candidate = np.where(ctx.has_message, ctx.messages, np.inf)
            improved = ctx.active & (candidate < values)
            values[improved] = candidate[improved]
            ctx.send_to_all_neighbors(improved, values)
        ctx.vote_to_halt(ctx.active)


class InDegree(VertexProgram):
    """Vertex value = its in-degree; two supersteps via counting messages."""

    combiner = SumCombiner
    message_bytes = 8
    value_dtype = np.int64

    def initial_values(self, num_vertices: int) -> np.ndarray:
        return np.zeros(num_vertices, dtype=np.int64)

    def compute_dense(self, ctx: DenseComputeContext) -> None:
        if ctx.superstep == 0:
            ones = np.ones(ctx.num_vertices, dtype=np.int64)
            ctx.send_to_all_neighbors(ctx.active, ones)
        else:
            woken = ctx.active & ctx.has_message
            ctx.values[woken] = ctx.messages[woken]
        ctx.vote_to_halt(ctx.active)


# ----------------------------------------------------------------------
# Scalar twins of the dense programs
# ----------------------------------------------------------------------
class ScalarPageRank(PageRank):
    def compute(self, ctx: ComputeContext, messages: list) -> None:
        if ctx.superstep > 0:
            incoming = sum(messages)
            ctx.value = (1.0 - DAMPING) / ctx.num_vertices + DAMPING * incoming
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


def edge_sources(graph) -> np.ndarray:
    """Source vertex of every CSR edge, derived from ``indptr`` alone."""
    return np.repeat(np.arange(graph.num_vertices, dtype=np.int64), graph.out_degrees())


def edge_list(graph) -> list[tuple[int, int]]:
    """Every ``(src, dst)`` pair of *graph* in CSR order, as Python ints."""
    return list(zip(edge_sources(graph).tolist(), graph.indices.tolist()))


def is_proper_coloring(graph, values: dict) -> bool:
    """Check no edge connects two vertices of the same colour."""
    for src, dst in edge_list(graph):
        if src != dst and values[src] == values[dst]:
            return False
    return True


# ----------------------------------------------------------------------
# Per-vertex graph and partition views
# ----------------------------------------------------------------------
def from_edges(
    src,
    dst,
    *,
    num_vertices: int | None = None,
    weights=None,
    name: str = "",
    dedup: bool = False,
) -> Graph:
    """Build a :class:`Graph` from parallel source/destination arrays.

    Args:
        src, dst: integer array-likes of equal length.
        num_vertices: total vertex count; inferred as ``max(id) + 1`` when
            omitted.
        weights: optional per-edge weights, parallel to ``src``.
        name: dataset label.
        dedup: drop exact duplicate ``(src, dst)`` pairs (keeping the first
            weight) before building.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise ValueError(f"src shape {src.shape} != dst shape {dst.shape}")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != src.shape:
            raise ValueError("weights must be parallel to src/dst")
    if num_vertices is None:
        num_vertices = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1
    if len(src) and (src.min() < 0 or dst.min() < 0):
        raise ValueError("vertex ids must be non-negative")
    if len(src) and (src.max() >= num_vertices or dst.max() >= num_vertices):
        raise ValueError("vertex id exceeds num_vertices")

    if dedup:
        return _unique_edges(src * num_vertices + dst, num_vertices, name, weights)
    order = stable_argsort(src, num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_vertices), out=indptr[1:])
    return Graph(
        indptr=indptr,
        indices=dst[order],
        weights=None if weights is None else weights[order],
        name=name,
    )


def edge_weights(graph, v: int) -> np.ndarray:
    """Weights of the out-edges of ``v`` (all 1.0 when unweighted)."""
    if graph.weights is None:
        return np.ones(len(graph.neighbors(v)), dtype=np.float64)
    return graph.weights[graph.indptr[v] : graph.indptr[v + 1]]


def part_vertices(partitioning, part: int) -> np.ndarray:
    """Vertex ids assigned to partition ``part``."""
    if not 0 <= part < partitioning.num_parts:
        raise ValueError(f"part {part} out of range [0, {partitioning.num_parts})")
    return np.flatnonzero(partitioning.assignment == part)


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
