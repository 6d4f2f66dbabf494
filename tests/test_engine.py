"""Tests for the Pregel engine: supersteps, messages, aggregators, stats."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    MaxCombiner,
    MessageStore,
    MinCombiner,
    PregelEngine,
    SumCombiner,
)
from repro.engine.aggregators import (
    AndAggregator,
    MaxAggregator,
    MinAggregator,
    OrAggregator,
    SumAggregator,
)
from repro.engine.vertex import ComputeContext, VertexProgram
from repro.engine.worker import build_workers
from repro.graph import from_edges, generators
from repro.partitioning import HashPartitioner


class EchoProgram(VertexProgram):
    """Sends its id once, then halts; values collect received ids."""

    def initial_value(self, vertex_id, num_vertices):
        return []

    def compute(self, ctx, messages):
        if ctx.superstep == 0:
            ctx.send_to_neighbors(ctx.vertex_id)
        else:
            ctx.value = sorted(messages)
        ctx.vote_to_halt()


class TestMessageStore:
    def test_deliver_and_read(self):
        store = MessageStore()
        store.deliver(3, "a")
        store.deliver(3, "b")
        assert store.messages_for(3) == ["a", "b"]
        assert store.messages_for(5) == []

    def test_combiner_merges(self):
        store = MessageStore(SumCombiner)
        store.deliver(1, 2)
        store.deliver(1, 5)
        assert store.messages_for(1) == [7]
        assert len(store) == 1
        assert store.raw_count() == 2

    def test_min_max_combiners(self):
        assert MinCombiner.combine(3, 5) == 3
        assert MaxCombiner.combine(3, 5) == 5
        assert SumCombiner.combine(3, 5) == 8

    def test_bool_and_destinations(self):
        store = MessageStore()
        assert not store
        store.deliver(0, "x")
        assert store
        assert list(store.destinations()) == [0]


class TestAggregators:
    @pytest.mark.parametrize(
        "cls,contributions,expected",
        [
            (SumAggregator, [1, 2, 3], 6),
            (MinAggregator, [4, 2, 9], 2),
            (MaxAggregator, [4, 2, 9], 9),
            (AndAggregator, [True, True, False], False),
            (OrAggregator, [False, True, False], True),
        ],
    )
    def test_reduction(self, cls, contributions, expected):
        agg = cls()
        for value in contributions:
            agg.accumulate(value)
        assert agg.value == expected

    def test_identity(self):
        assert SumAggregator().value == 0
        assert MinAggregator().value == float("inf")
        assert AndAggregator().value is True

    def test_merge(self):
        a, b = SumAggregator(), SumAggregator()
        a.accumulate(2)
        b.accumulate(3)
        a.merge(b)
        assert a.value == 5

    def test_reset(self):
        agg = SumAggregator()
        agg.accumulate(5)
        agg.reset()
        assert agg.value == 0


class TestWorkers:
    def test_build_workers_partition_ownership(self):
        g = generators.path_graph(10)
        p = HashPartitioner().partition(g, 3)
        workers = build_workers(p, 3)
        owned = sorted(v for w in workers for v in w.vertices.tolist())
        assert owned == list(range(10))

    def test_mismatched_count_rejected(self):
        g = generators.path_graph(4)
        p = HashPartitioner().partition(g, 2)
        with pytest.raises(ValueError):
            build_workers(p, 3)


class TestEngineExecution:
    def test_message_delivery_next_superstep(self):
        g = from_edges([0, 1], [1, 2], num_vertices=3)
        result = PregelEngine(g, EchoProgram(), HashPartitioner().partition(g, 2)).run()
        assert result.values[1] == [0]
        assert result.values[2] == [1]
        assert result.values[0] == []

    def test_halts_when_quiescent(self):
        g = from_edges([0], [1], num_vertices=2)
        result = PregelEngine(g, EchoProgram()).run()
        assert result.halted_normally
        assert result.supersteps_run == 2

    def test_superstep_cap(self):
        class Chatty(VertexProgram):
            def initial_value(self, vertex_id, num_vertices):
                return 0

            def compute(self, ctx, messages):
                ctx.send(ctx.vertex_id, 1)  # self-message forever

        g = from_edges([0], [0], num_vertices=1)
        result = PregelEngine(g, Chatty(), max_supersteps=5).run()
        assert not result.halted_normally
        assert result.supersteps_run == 5

    def test_stats_local_vs_remote(self):
        # Two vertices on the same worker, one on another.
        g = from_edges([0, 0], [2, 1], num_vertices=3)
        p = HashPartitioner().partition(g, 2)  # 0,2 -> w0; 1 -> w1
        result = PregelEngine(g, EchoProgram(), p).run()
        step0 = result.stats[0]
        assert step0.local_messages == 1  # 0 -> 2 stays on worker 0
        assert step0.remote_messages == 1  # 0 -> 1 crosses
        assert step0.remote_bytes == EchoProgram.message_bytes
        assert 0 < step0.remote_fraction < 1

    def test_partition_quality_reduces_remote_traffic(self, community):
        from repro.partitioning import MultilevelPartitioner
        from repro.engine.algorithms import PageRank

        good = MultilevelPartitioner().partition(community, 4, seed=1)
        bad = HashPartitioner().partition(community, 4)
        res_good = PregelEngine(community, PageRank(iterations=2), good).run()
        res_bad = PregelEngine(community, PageRank(iterations=2), bad).run()
        assert res_good.total_remote_messages < res_bad.total_remote_messages

    def test_values_array(self):
        class Ident(VertexProgram):
            def initial_value(self, vertex_id, num_vertices):
                return float(vertex_id)

            def compute(self, ctx, messages):
                ctx.vote_to_halt()

        g = generators.path_graph(5)
        result = PregelEngine(g, Ident()).run()
        assert result.values_array().tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_mismatched_partitioning_rejected(self):
        g = generators.path_graph(5)
        p = HashPartitioner().partition(generators.path_graph(3), 2)
        with pytest.raises(ValueError):
            PregelEngine(g, EchoProgram(), p)

    def test_bad_max_supersteps(self):
        g = generators.path_graph(2)
        with pytest.raises(ValueError):
            PregelEngine(g, EchoProgram(), max_supersteps=0)

    def test_default_partitioning_single_worker(self):
        g = generators.path_graph(3)
        engine = PregelEngine(g, EchoProgram())
        assert engine.num_workers == 1

    def test_combiner_reduces_network_messages(self):
        # Many vertices all message vertex 0; with a Sum combiner the
        # per-worker traffic collapses to one message per worker.
        class Converge(VertexProgram):
            combiner = SumCombiner

            def initial_value(self, vertex_id, num_vertices):
                return 0

            def compute(self, ctx, messages):
                if ctx.superstep == 0:
                    ctx.send(0, 1)
                else:
                    ctx.value = sum(messages)
                ctx.vote_to_halt()

        n = 20
        g = from_edges(list(range(n)), [0] * n, num_vertices=n, dedup=True)
        p = HashPartitioner().partition(g, 4)
        result = PregelEngine(g, Converge(), p).run()
        assert result.values[0] == n
        step0 = result.stats[0]
        # 4 workers -> at most 4 combined messages total.
        assert step0.local_messages + step0.remote_messages <= 4


class TestAggregatorFlow:
    def test_aggregate_visible_next_superstep(self):
        class Counter(VertexProgram):
            def aggregators(self):
                return {"count": SumAggregator}

            def initial_value(self, vertex_id, num_vertices):
                return None

            def compute(self, ctx, messages):
                if ctx.superstep == 0:
                    ctx.aggregate("count", 1)
                    ctx.send(ctx.vertex_id, "tick")
                else:
                    ctx.value = ctx.aggregated("count")
                    ctx.vote_to_halt()

        g = generators.path_graph(6)
        result = PregelEngine(g, Counter()).run()
        assert all(v == 6 for v in result.values.values())


class TestMessageStoreRegressions:
    def test_messages_for_returns_a_copy(self):
        # Mutating a delivered inbox must not corrupt the store's
        # pending messages (workers clear their inboxes after compute).
        store = MessageStore()
        store.deliver(1, "a")
        inbox = store.messages_for(1)
        inbox.append("b")
        inbox.clear()
        assert store.messages_for(1) == ["a"]
        assert len(store) == 1

    def test_messages_for_copy_on_dense_store(self):
        store = MessageStore(SumCombiner(), num_vertices=4)
        store.deliver_many(np.array([2, 2, 3]), np.array([1.0, 2.0, 5.0]))
        inbox = store.messages_for(2)
        inbox.clear()
        assert store.messages_for(2) == [3.0]
        assert store.messages_for(3) == [5.0]

    def test_state_dict_round_trip(self):
        store = MessageStore(MinCombiner(), num_vertices=6)
        store.deliver_many(np.array([0, 4, 4]), np.array([3.0, 9.0, 2.0]))
        store.deliver(5, 7.5)
        restored = MessageStore.from_state(store.state_dict(), MinCombiner())
        assert restored.as_dict() == store.as_dict()
        assert restored.raw_count() == store.raw_count()
        assert len(restored) == len(store)

    def test_deliver_many_matches_scalar_combining(self):
        rng = np.random.default_rng(3)
        dst = rng.integers(0, 50, size=400)
        msgs = rng.random(400)
        for combiner_cls in (SumCombiner, MinCombiner, MaxCombiner):
            batched = MessageStore(combiner_cls(), num_vertices=50)
            batched.deliver_many(dst, msgs)
            scalar = MessageStore(combiner_cls())
            for d, m in zip(dst.tolist(), msgs.tolist()):
                scalar.deliver(d, m)
            for v in range(50):
                got = batched.messages_for(v)
                want = scalar.messages_for(v)
                assert len(got) == len(want)
                if want:
                    assert got[0] == pytest.approx(want[0], rel=1e-12)
            assert batched.raw_count() == scalar.raw_count()

    def test_deliver_many_without_combiner_keeps_all_messages(self):
        store = MessageStore(num_vertices=4)
        store.deliver_many(np.array([1, 1, 2]), np.array([7.0, 8.0, 9.0]))
        assert sorted(store.messages_for(1)) == [7.0, 8.0]
        assert store.messages_for(2) == [9.0]
        assert store.raw_count() == 3

    def test_deliver_many_mixes_with_scalar_delivery(self):
        store = MessageStore(SumCombiner(), num_vertices=4)
        store.deliver(1, 1.0)
        store.deliver_many(np.array([1, 3]), np.array([2.0, 4.0]))
        store.deliver(3, 0.5)
        assert store.messages_for(1) == [3.0]
        assert store.messages_for(3) == [4.5]
        assert store.raw_count() == 4

    def test_deliver_many_rejects_mismatched_shapes(self):
        store = MessageStore(SumCombiner(), num_vertices=4)
        with pytest.raises(ValueError):
            store.deliver_many(np.array([0, 1]), np.array([1.0]))


class TestValuesArrayValidation:
    def test_dense_ids_round_trip(self):
        from repro.engine import ExecutionResult

        result = ExecutionResult(
            values={0: 1.0, 1: 2.0, 2: 3.0}, stats=[], aggregates={},
            supersteps_run=0, halted_normally=True,
        )
        assert np.array_equal(result.values_array(), [1.0, 2.0, 3.0])

    def test_sparse_ids_raise(self):
        from repro.engine import ExecutionResult

        result = ExecutionResult(
            values={0: 1.0, 5: 2.0}, stats=[], aggregates={},
            supersteps_run=0, halted_normally=True,
        )
        with pytest.raises(ValueError, match="not dense"):
            result.values_array()

    def test_negative_ids_raise(self):
        from repro.engine import ExecutionResult

        result = ExecutionResult(
            values={-1: 1.0, 0: 2.0}, stats=[], aggregates={},
            supersteps_run=0, halted_normally=True,
        )
        with pytest.raises(ValueError, match="non-negative"):
            result.values_array()


class TestRestoreStats:
    def test_restore_state_restores_stats(self):
        from repro.engine.algorithms import PageRank

        g = generators.random_graph(40, avg_degree=4, seed=1)
        engine = PregelEngine(g, PageRank(iterations=5))
        for _ in range(3):
            engine.step()
        state = engine.capture_state()
        engine.step()  # diverge past the checkpoint

        fresh = PregelEngine(g, PageRank(iterations=5))
        fresh.restore_state(state)
        assert len(fresh.stats) == 3
        assert fresh.stats == engine.stats[:3]

        # Restoring an engine that had advanced further truncates its
        # stats back to the checkpointed superstep.
        engine.restore_state(state)
        assert len(engine.stats) == 3
