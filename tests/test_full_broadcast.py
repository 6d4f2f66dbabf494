"""A send along every CSR edge, counted once per engine.

When a dense superstep's only batch is the graph's own CSR (every vertex
with out-edges broadcasting, as PageRank does every superstep), its
network-message count and its destination mask are properties of the
graph and the placement, so the engine computes them on its first full
broadcast and reuses them.  Four families hold that to the old path:

* PageRank outputs frozen before the constants existed, serial and
  parallel, on a graph without dangling vertices and on one with them,
  and SSSP distances, weighted and not, frozen before SSSP moved onto
  ``send_to_all_neighbors``;
* every superstep of PageRank, WCC, in-degree, SSSP (weighted and not)
  and a combiner-less program re-derived from the materialised batch
  with the ``np.unique`` oracle and an ``ufunc.at`` + scatter rebuild,
  including the first broadcast after a checkpoint restore into a fresh
  engine and a traffic bitmap forced into several blocks;
* the count itself runs once per engine;
* the context's vertex-selection and id-range contracts.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.engine import (
    CheckpointManager,
    DataStore,
    DenseComputeContext,
    PregelEngine,
    parallel_execution_supported,
)
from repro.engine import engine as engine_module
from repro.engine.algorithms import SSSP, ConnectedComponents, InDegree, PageRank
from repro.engine.engine import _SlotCounter
from repro.engine.vertex import VertexProgram
from repro.graph import generators
from repro.graph.graph import from_edges
from repro.partitioning.hashing import HashPartitioner
from tests.scalar_oracle import destination_mask, messages_for
from tests.test_traffic_accounting import Shout, sorted_count


def sha(values) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(values, dtype=np.float64).tobytes()
    ).hexdigest()


@pytest.fixture(scope="module")
def rmat():
    graph = generators.rmat(9, seed=4)
    assert (graph.out_degrees() == 0).sum() == 88  # dangling sources
    assert (graph.in_degrees() == 0).sum() == 98  # never a destination
    return graph


@pytest.fixture(scope="module")
def weighted():
    rng = np.random.default_rng(8)
    src = rng.integers(0, 150, size=900)
    dst = rng.integers(0, 150, size=900)
    keep = src != dst
    weights = rng.uniform(0.1, 5.0, size=int(keep.sum()))
    return from_edges(src[keep], dst[keep], num_vertices=150, weights=weights)


# ----------------------------------------------------------------------
# Frozen before the per-engine constants existed.
# ----------------------------------------------------------------------

# name -> (graph, workers, per-superstep (active, sent, local, remote,
# remote_bytes) while ranks flow, sha256 of the final ranks)
PAGERANK_GOLDENS = {
    "no-dangling": (
        lambda: generators.community_graph(
            800, num_communities=8, avg_degree=10, mixing=0.1, seed=1
        ),
        4,
        (800, 7648, 744, 2192, 17536),
        "60a199e8cff3f4f7193744a58ef273a78a418f09c4ae382c6393931269445dcb",
    ),
    "rmat-dangling": (
        lambda: generators.rmat(9, seed=4),
        3,
        (512, 5659, 333, 638, 5104),
        "a9e97b8d772895383b4cbadf983414a60a18a1e5ee2647b4841244dc1efe6e3f",
    ),
}


class TestFrozenPageRank:
    @pytest.mark.parametrize("name", sorted(PAGERANK_GOLDENS))
    @pytest.mark.parametrize("execution", ["serial", "parallel"])
    def test_stats_and_ranks(self, name, execution):
        if execution == "parallel" and not parallel_execution_supported():
            pytest.skip("fork start method unavailable on this platform")
        make_graph, workers, flowing, digest = PAGERANK_GOLDENS[name]
        graph = make_graph()
        partitioning = HashPartitioner().partition(graph, workers)
        with PregelEngine(
            graph, PageRank(iterations=12), partitioning, execution=execution,
            num_processes=2,
        ) as engine:
            result = engine.run()
        observed = [
            (
                s.active_vertices,
                s.messages_sent,
                s.local_messages,
                s.remote_messages,
                s.remote_bytes,
            )
            for s in result.stats
        ]
        assert observed == [flowing] * 12 + [(graph.num_vertices, 0, 0, 0, 0)]
        assert sha(result.values_array()) == digest


# SSSP relaxed by hand (``senders[ctx.edge_sources]``) before it moved onto
# ``send_to_all_neighbors(..., add_edge_weight=True)``: distances frozen.
SSSP_GOLDENS = {
    "rmat": "b7f8fbbb95a64f0f3629277da4ca352602e17c82e10a1263ae60cc9e722dcbb8",
    "weighted": "c99e24213565849bee832dec9e168ddff9f018720c05db04bd295ebffd62d845",
}


class TestFrozenSSSP:
    @pytest.mark.parametrize("name", sorted(SSSP_GOLDENS))
    def test_distances(self, request, name):
        graph = request.getfixturevalue(name)
        source = int(np.argmax(graph.out_degrees()))
        partitioning = HashPartitioner().partition(graph, 3)
        result = PregelEngine(graph, SSSP(source=source), partitioning).run()
        assert sha(result.values_array()) == SSSP_GOLDENS[name]


# ----------------------------------------------------------------------
# Every superstep against a rebuild from the materialised batch.
# ----------------------------------------------------------------------


def materialise(sends, merge_by_source):
    """The superstep's batch as ``_exchange`` sees it, copied out."""
    if not sends:
        return None
    src, dst, msg = (np.concatenate(column) for column in zip(*sends))
    if merge_by_source:
        order = np.argsort(src, kind="stable")
        src, dst, msg = src[order], dst[order], msg[order]
    return src, dst, msg


def assert_matches_rebuild(engine, batch):
    """The closed superstep's stats and pending inbox, recomputed."""
    stats = engine.stats[-1]
    n = engine.graph.num_vertices
    pending = engine._incoming
    if batch is None:
        assert (stats.messages_sent, stats.local_messages, stats.remote_messages) == (
            0, 0, 0,
        )
        assert not pending
        return
    src, dst, msg = batch
    owner = engine._owner
    combiner = engine.program.combiner
    if combiner is None:
        local = int(np.count_nonzero(owner[src] == owner[dst]))
        remote = len(dst) - local
    else:
        local, remote = sorted_count(owner, src, dst)
    assert (
        stats.messages_sent,
        stats.local_messages,
        stats.remote_messages,
        stats.remote_bytes,
    ) == (len(dst), local, remote, remote * engine.program.message_bytes)
    mask = np.zeros(n, dtype=bool)
    mask[dst] = True
    assert np.array_equal(destination_mask(pending, n), mask)
    if combiner is not None:
        values = np.full(n, combiner.identity, dtype=np.float64)
        combiner.ufunc.at(values, dst, msg.astype(np.float64))
        got_values, got_mask = pending.dense_view(n)
        assert np.array_equal(got_mask, mask)
        assert got_values.tobytes() == values.tobytes()


@pytest.fixture()
def checked(monkeypatch):
    """Check every ``_exchange``; returns per-superstep records
    ``(combined, full)`` and the number of ``_SlotCounter.count`` calls."""
    record = {"steps": [], "counts": 0}
    original_exchange = PregelEngine._exchange
    original_count = _SlotCounter.count

    def exchange(self, sends, aggregators, active, merge_by_source=False):
        batch = materialise(sends, merge_by_source)
        more = original_exchange(self, sends, aggregators, active, merge_by_source)
        assert_matches_rebuild(self, batch)
        if batch is not None:
            graph = self.graph
            full = np.array_equal(batch[0], graph.edge_sources()) and np.array_equal(
                batch[1], graph.indices
            )
            record["steps"].append((self.program.combiner is not None, full))
        return more

    def count(self, src, dst):
        record["counts"] += 1
        return original_count(self, src, dst)

    monkeypatch.setattr(PregelEngine, "_exchange", exchange)
    monkeypatch.setattr(_SlotCounter, "count", count)
    return record


def star(weighted_edges: bool):
    # Only vertex 0 has out-edges: SSSP's first relaxation is a full
    # broadcast, with the edge weights added per edge.
    weights = [0.5, 1.25, 2.0, 3.5] if weighted_edges else None
    return from_edges([0, 0, 0, 0], [1, 2, 3, 4], num_vertices=6, weights=weights)


def source_of(graph) -> int:
    return int(np.argmax(graph.out_degrees()))


# name -> (graph fixture or builder, program factory taking the graph,
# superstep the after-load variant checkpoints at, superstep cap)
PROGRAMS = {
    "pagerank": ("rmat", lambda g: PageRank(iterations=6), 2, None),
    "wcc": ("rmat", lambda g: ConnectedComponents(), 0, None),
    "in-degree": ("rmat", lambda g: InDegree(), 0, None),
    "sssp": ("rmat", lambda g: SSSP(source=source_of(g)), 2, None),
    "sssp-weighted": ("weighted", lambda g: SSSP(source=source_of(g)), 2, None),
    "sssp-star": (lambda: star(False), lambda g: SSSP(source=0), 0, None),
    "sssp-star-weighted": (lambda: star(True), lambda g: SSSP(source=0), 0, None),
    # Without a combiner the next superstep's dense inbox cannot fold the
    # messages, so the dense Shout runs exactly its one sending superstep.
    "shout-no-combiner": ("rmat", lambda g: Shout(), 0, 1),
}
#: Programs none of whose batches is the full CSR.
NEVER_FULL = {"sssp", "sssp-weighted"}


class TestEquivalence:
    @pytest.mark.parametrize("variant", ["plain", "after-load", "multi-block"])
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_every_superstep_matches_the_oracle(
        self, request, checked, monkeypatch, name, variant
    ):
        source, make_program, save_at, cap = PROGRAMS[name]
        graph = request.getfixturevalue(source) if isinstance(source, str) else source()
        partitioning = HashPartitioner().partition(graph, 3)
        if variant == "multi-block":
            monkeypatch.setattr(
                engine_module, "_SLOT_BITMAP_BYTES", graph.num_vertices
            )
        engine = PregelEngine(graph, make_program(graph), partitioning)
        if variant == "after-load":
            engine.run(max_supersteps=save_at)
            manager = CheckpointManager(DataStore(), "broadcast")
            manager.save(engine)
            # A fresh engine over another placement: its first broadcast
            # must count for its own owners, not reuse anybody's.
            engine = PregelEngine(
                graph, make_program(graph), HashPartitioner().partition(graph, 2)
            )
            manager.load_into(engine)
            checked["steps"].clear()
            checked["counts"] = 0
        engine.run(max_supersteps=cap)
        steps = checked["steps"]
        assert steps, "the program sent nothing"
        assert any(full for _, full in steps) == (name not in NEVER_FULL)
        combined = [full for with_combiner, full in steps if with_combiner]
        expected_counts = combined.count(False) + (1 if any(combined) else 0)
        assert checked["counts"] == expected_counts


# ----------------------------------------------------------------------
# The count runs once per engine.
# ----------------------------------------------------------------------


class TestCountedOnce:
    def test_once_per_engine_across_thirty_supersteps(self, rmat, monkeypatch):
        calls = []
        original = _SlotCounter.count

        def count(self, src, dst):
            calls.append(len(dst))
            return original(self, src, dst)

        monkeypatch.setattr(_SlotCounter, "count", count)
        partitioning = HashPartitioner().partition(rmat, 4)
        first = PregelEngine(rmat, PageRank(iterations=30), partitioning).run()
        assert first.supersteps_run == 31
        assert calls == [rmat.num_edges]
        # Per engine, not per graph: a second engine counts again.
        second = PregelEngine(rmat, PageRank(iterations=30), partitioning).run()
        assert calls == [rmat.num_edges] * 2
        assert second.stats == first.stats


# ----------------------------------------------------------------------
# Vertex selection and id ranges.
# ----------------------------------------------------------------------


def context(graph) -> DenseComputeContext:
    n = graph.num_vertices
    return DenseComputeContext(
        superstep=0,
        graph=graph,
        values=np.arange(n, dtype=np.float64),
        active=np.ones(n, dtype=bool),
        messages=np.zeros(n),
        has_message=np.zeros(n, dtype=bool),
        aggregators={},
        prev_aggregates={},
    )


@pytest.fixture()
def cycle():
    return from_edges([0, 1, 2, 3], [1, 2, 3, 0], num_vertices=4)


class TestSendToAllNeighborsSelection:
    def test_an_id_array_covering_every_sender_is_the_full_csr(self, cycle):
        ctx = context(cycle)
        ctx.send_to_all_neighbors(np.arange(4), ctx.values)
        [(src, dst, msg)] = ctx._sends
        assert src is cycle.edge_sources() and dst is cycle.indices
        assert msg.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_a_partial_id_array_selects_those_vertices(self, cycle):
        ctx = context(cycle)
        ctx.send_to_all_neighbors(np.array([0, 2]), ctx.values)
        [(src, dst, msg)] = ctx._sends
        assert (src.tolist(), dst.tolist(), msg.tolist()) == ([0, 2], [1, 3], [0.0, 2.0])

    def test_a_mask_and_its_ids_send_the_same(self, cycle):
        by_mask, by_ids = context(cycle), context(cycle)
        by_mask.send_to_all_neighbors(np.array([False, True, False, True]), [5, 6, 7, 8])
        by_ids.send_to_all_neighbors([3, 1], [5, 6, 7, 8])
        for a, b in zip(by_mask._sends[0], by_ids._sends[0]):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "senders",
        [
            np.ones(3, dtype=bool),  # wrong length
            np.ones((4, 1), dtype=bool),  # wrong shape
            np.array([[0, 1]]),  # ids, but not one-dimensional
            np.array([0.0, 1.0]),  # neither mask nor ids
            np.array([0, 4]),  # out of range
            np.array([-1]),  # negative
        ],
        ids=["short-mask", "2d-mask", "2d-ids", "floats", "id-too-big", "id-negative"],
    )
    def test_anything_else_is_rejected(self, cycle, senders):
        ctx = context(cycle)
        with pytest.raises(ValueError):
            ctx.send_to_all_neighbors(senders, ctx.values)
        assert not ctx._sends

    def test_vote_to_halt_takes_the_same_forms(self, cycle):
        ctx = context(cycle)
        ctx.vote_to_halt(np.array([0, 2]))
        ctx.vote_to_halt(np.array([False, False, False, True]))
        assert ctx._halt_mask.tolist() == [True, False, True, True]
        with pytest.raises(ValueError):
            ctx.vote_to_halt(np.array([7]))


class SendTo(VertexProgram):
    """Superstep 0: vertex 0 sends 5.0 from ``src`` to ``dst``."""

    combiner = None
    value_dtype = np.float64

    def __init__(self, src, dst):
        self.src, self.dst = src, dst

    def initial_values(self, num_vertices):
        return np.zeros(num_vertices)

    def compute_dense(self, ctx):
        if ctx.superstep == 0:
            ctx.send_batch([self.src], [self.dst], [5.0])
        ctx.vote_to_halt(ctx.active)


class TestSendBatchRange:
    @pytest.fixture()
    def triangle(self):
        return from_edges([0, 1, 2], [1, 2, 0], num_vertices=3)

    @pytest.mark.parametrize(
        "src,dst,bad",
        [(0, -1, "-1"), (0, 3, "3"), (-1, 0, "-1"), (3, 0, "3")],
        ids=["dst-negative", "dst-too-big", "src-negative", "src-too-big"],
    )
    def test_out_of_range_ids_are_named(self, triangle, src, dst, bad):
        ctx = context(triangle)
        with pytest.raises(ValueError, match=rf"id {bad}\b"):
            ctx.send_batch([src], [dst], [5.0])
        assert not ctx._sends

    def test_a_negative_destination_is_not_delivered(self, triangle):
        engine = PregelEngine(triangle, SendTo(0, -1))
        with pytest.raises(ValueError, match="-1"):
            engine.step()

    def test_in_range_ids_still_send(self, triangle):
        engine = PregelEngine(triangle, SendTo(0, 2))
        engine.step()
        stats = engine.stats[0]
        assert (stats.messages_sent, stats.local_messages) == (1, 1)
        assert messages_for(engine._incoming, 2) == [5.0]
