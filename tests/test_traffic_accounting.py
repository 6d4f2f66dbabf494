"""The engine's local/remote traffic accounting.

One rule, two execution paths (serial, parallel) held to the per-vertex
reference path of ``tests/scalar_oracle.py``: with a combiner a network
message is a distinct (source worker, destination) pair; without one it
is every message.  The engine counts the distinct pairs with a bounded
bitmap instead of a sort; the sort (``np.unique``) survives here as the
oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import PregelEngine, parallel_execution_supported
from repro.engine import engine as engine_module
from repro.engine.algorithms import ConnectedComponents
from repro.engine.engine import _SlotCounter
from repro.engine.vertex import VertexProgram
from repro.graph import generators
from repro.graph.graph import from_edges
from repro.partitioning.base import Partitioning
from repro.partitioning.hashing import HashPartitioner
from tests.scalar_oracle import ScalarEngine


class Shout(VertexProgram):
    """Superstep 0: every vertex sends its id along every out-edge.

    Declares *no combiner*, so a worker may not merge what it sends.
    """

    combiner = None
    value_dtype = np.float64

    def initial_values(self, num_vertices):
        return np.arange(num_vertices, dtype=np.float64)

    def compute(self, ctx, messages):
        if ctx.superstep == 0:
            ctx.send_to_neighbors(ctx.value)
        ctx.vote_to_halt()

    def compute_dense(self, ctx):
        if ctx.superstep == 0:
            ctx.send_to_all_neighbors(ctx.active, ctx.values)
        ctx.vote_to_halt(ctx.active)


def first_superstep(graph, partitioning, program, engine=PregelEngine, **kwargs):
    with engine(graph, program, partitioning, **kwargs) as engine:
        engine.step()
        stats = engine.stats[0]
    return (stats.messages_sent, stats.local_messages, stats.remote_messages)


class TestNoCombinerMeansNoCombining:
    @pytest.fixture()
    def three_vertices(self):
        # 0 and 1 live on worker 0 and both send to 2 on worker 1;
        # 0 also sends to its neighbour 1 on the same worker.
        graph = from_edges([0, 0, 1], [1, 2, 2], num_vertices=3)
        return graph, Partitioning(assignment=np.array([0, 0, 1]), num_parts=2)

    def test_scalar_counts_every_message(self, three_vertices):
        graph, partitioning = three_vertices
        assert first_superstep(graph, partitioning, Shout(), ScalarEngine) == (3, 1, 2)

    def test_dense_agrees_with_scalar(self, three_vertices):
        graph, partitioning = three_vertices
        assert first_superstep(graph, partitioning, Shout()) == (3, 1, 2)

    @pytest.mark.skipif(
        not parallel_execution_supported(), reason="fork start method unavailable"
    )
    def test_parallel_agrees_with_scalar(self, three_vertices):
        graph, partitioning = three_vertices
        observed = first_superstep(
            graph, partitioning, Shout(), execution="parallel", num_processes=2
        )
        assert observed == (3, 1, 2)

    def test_parity_on_a_generated_graph(self):
        graph = generators.rmat(7, seed=3)
        partitioning = HashPartitioner().partition(graph, 3)
        scalar = first_superstep(graph, partitioning, Shout(), ScalarEngine)
        assert first_superstep(graph, partitioning, Shout()) == scalar
        assert scalar[0] == scalar[1] + scalar[2] == graph.num_edges
        if parallel_execution_supported():
            assert scalar == first_superstep(
                graph, partitioning, Shout(), execution="parallel", num_processes=2
            )


def sorted_count(owner, src, dst):
    """The replaced implementation: sort every message's slot key."""
    n = len(owner)
    slots = np.unique(owner[src] * np.int64(n) + dst)
    remote = int(np.count_nonzero(owner[slots % n] != slots // n))
    return len(slots) - remote, remote


class TestSlotCounter:
    @pytest.fixture()
    def messages(self):
        rng = np.random.default_rng(5)
        n, workers = 500, 7
        owner = rng.integers(0, workers, size=n)
        src = rng.integers(0, n, size=6000)
        dst = rng.integers(0, n // 4, size=6000)  # plenty of repeated slots
        return owner, workers, src, dst

    def test_matches_the_sort(self, messages):
        owner, workers, src, dst = messages
        counter = _SlotCounter(owner, workers)
        assert counter.count(src, dst) == sorted_count(owner, src, dst)
        # The bitmap is reusable: a second, different batch is unaffected.
        assert counter.count(src[:50], dst[:50]) == sorted_count(owner, src[:50], dst[:50])

    @pytest.mark.parametrize("budget_workers", [1, 2, 3, 6])
    def test_blocks_under_the_byte_budget(self, messages, monkeypatch, budget_workers):
        owner, workers, src, dst = messages
        monkeypatch.setattr(
            engine_module, "_SLOT_BITMAP_BYTES", budget_workers * len(owner)
        )
        counter = _SlotCounter(owner, workers)
        assert len(counter._seen) == budget_workers * len(owner) < workers * len(owner)
        assert counter.count(src, dst) == sorted_count(owner, src, dst)

    def test_budget_smaller_than_one_worker_still_counts(self, messages, monkeypatch):
        owner, workers, src, dst = messages
        monkeypatch.setattr(engine_module, "_SLOT_BITMAP_BYTES", 16)
        counter = _SlotCounter(owner, workers)
        assert len(counter._seen) == len(owner)  # one worker's row is the floor
        assert counter.count(src, dst) == sorted_count(owner, src, dst)

    def test_engine_stats_do_not_depend_on_the_budget(self, monkeypatch):
        graph = generators.rmat(7, seed=9)
        partitioning = HashPartitioner().partition(graph, 5)
        whole = PregelEngine(graph, ConnectedComponents(), partitioning).run()
        monkeypatch.setattr(
            engine_module, "_SLOT_BITMAP_BYTES", 2 * graph.num_vertices
        )
        blocked = PregelEngine(graph, ConnectedComponents(), partitioning).run()
        assert blocked.stats == whole.stats
        assert any(s.remote_messages for s in whole.stats)
