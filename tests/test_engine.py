"""Tests for the Pregel engine: supersteps, messages, stats.

Programs with list, string or tuple values and messages, without a
combiner, or with aggregators run on the per-vertex reference path
(``tests/scalar_oracle.py``), which shares the engine's construction and
stats; its list inbox and aggregators are tested here too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    CheckpointManager,
    DataStore,
    MessageStore,
    MinCombiner,
    PregelEngine,
    SumCombiner,
)
from repro.engine.algorithms import PageRank
from repro.graph import generators
from repro.partitioning import HashPartitioner
from tests.scalar_oracle import from_edges
from tests import scalar_oracle
from tests.scalar_oracle import (
    InDegree,
    ListInbox,
    MaxCombiner,
    ScalarEngine,
    ScalarProgram,
    SumAggregator,
    as_dict,
    combine,
    deliver,
    destinations,
    messages_for,
    stored,
)


class EchoProgram(ScalarProgram):
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
        store = ListInbox(None, num_vertices=6)
        deliver(store, 3, "a")
        deliver(store, 3, "b")
        assert messages_for(store, 3) == ["a", "b"]
        assert messages_for(store, 5) == []

    def test_combiner_merges(self):
        store = ListInbox(SumCombiner, num_vertices=2)
        deliver(store, 1, 2)
        deliver(store, 1, 5)
        assert messages_for(store, 1) == [7]
        assert stored(store) == 1

    def test_min_max_combiners(self):
        assert combine(MinCombiner, 3, 5) == 3
        assert combine(MaxCombiner, 3, 5) == 5
        assert combine(SumCombiner, 3, 5) == 8

    def test_bool_and_destinations(self):
        store = ListInbox(None, num_vertices=1)
        assert not store
        deliver(store, 0, "x")
        assert store
        assert destinations(store) == [0]


class TestAggregators:
    @pytest.mark.parametrize(
        "cls,contributions,expected", [(SumAggregator, [1, 2, 3], 6)]
    )
    def test_reduction(self, cls, contributions, expected):
        agg = cls()
        for value in contributions:
            agg.accumulate(value)
        assert agg.value == expected

    def test_identity(self):
        assert SumAggregator().value == 0


class TestEngineExecution:
    def test_message_delivery_next_superstep(self):
        g = from_edges([0, 1], [1, 2], num_vertices=3)
        result = ScalarEngine(g, EchoProgram(), HashPartitioner().partition(g, 2)).run()
        assert result.values[1] == [0]
        assert result.values[2] == [1]
        assert result.values[0] == []

    def test_halts_when_quiescent(self):
        g = from_edges([0], [1], num_vertices=2)
        result = ScalarEngine(g, EchoProgram()).run()
        assert result.halted_normally
        assert result.supersteps_run == 2

    def test_superstep_cap(self):
        class Chatty(ScalarProgram):
            def initial_value(self, vertex_id, num_vertices):
                return 0

            def compute(self, ctx, messages):
                ctx.send(ctx.vertex_id, 1)  # self-message forever

        g = from_edges([0], [0], num_vertices=1)
        result = ScalarEngine(g, Chatty()).run(max_supersteps=5)
        assert not result.halted_normally
        assert result.supersteps_run == 5

    def test_stats_local_vs_remote(self):
        # Two vertices on the same worker, one on another.
        g = from_edges([0, 0], [2, 1], num_vertices=3)
        p = HashPartitioner().partition(g, 2)  # 0,2 -> w0; 1 -> w1
        result = ScalarEngine(g, EchoProgram(), p).run()
        step0 = result.stats[0]
        assert step0.local_messages == 1  # 0 -> 2 stays on worker 0
        assert step0.remote_messages == 1  # 0 -> 1 crosses
        assert step0.remote_bytes == EchoProgram.message_bytes
        assert 0 < step0.remote_messages / (step0.local_messages + step0.remote_messages) < 1

    def test_partition_quality_reduces_remote_traffic(self, community):
        from repro.partitioning import MultilevelPartitioner

        good = MultilevelPartitioner().partition(community, 4, seed=1)
        bad = HashPartitioner().partition(community, 4)
        res_good = PregelEngine(community, PageRank(iterations=2), good).run()
        res_bad = PregelEngine(community, PageRank(iterations=2), bad).run()
        assert sum(s.remote_messages for s in res_good.stats) < sum(
            s.remote_messages for s in res_bad.stats
        )

    def test_values_array(self):
        class Ident(ScalarProgram):
            def initial_value(self, vertex_id, num_vertices):
                return float(vertex_id)

            def compute(self, ctx, messages):
                ctx.vote_to_halt()

        g = scalar_oracle.path_graph(5)
        result = ScalarEngine(g, Ident()).run()
        assert result.values_array().tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_mismatched_partitioning_rejected(self):
        g = scalar_oracle.path_graph(5)
        p = HashPartitioner().partition(scalar_oracle.path_graph(3), 2)
        with pytest.raises(ValueError):
            PregelEngine(g, EchoProgram(), p)

    def test_object_valued_program_matches_float(self, community):
        # A program that declares no value dtype keeps its values in an
        # ``object`` array; the dense step must compute the same thing.
        class ObjectPageRank(PageRank):
            value_dtype = None

        p = HashPartitioner().partition(community, 4)
        engine = PregelEngine(community, ObjectPageRank(iterations=5), p)
        assert engine._values.dtype == object
        got = engine.run()
        ref = PregelEngine(community, PageRank(iterations=5), p).run()
        assert got.values == ref.values
        assert got.stats == ref.stats

    def test_default_partitioning_single_worker(self):
        g = scalar_oracle.path_graph(3)
        engine = PregelEngine(g, PageRank(iterations=1))
        assert engine.num_workers == 1

    def test_combiner_reduces_network_messages(self):
        # Many vertices all message vertex 0; with a Sum combiner the
        # per-worker traffic collapses to one message per worker.
        class Converge(ScalarProgram):
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
        result = ScalarEngine(g, Converge(), p).run()
        assert result.values[0] == n
        step0 = result.stats[0]
        # 4 workers -> at most 4 combined messages total.
        assert step0.local_messages + step0.remote_messages <= 4


class TestAggregatorFlow:
    def test_aggregate_visible_next_superstep(self):
        class Counter(ScalarProgram):
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

        g = scalar_oracle.path_graph(6)
        result = ScalarEngine(g, Counter()).run()
        assert all(v == 6 for v in result.values.values())


class TestMessageStoreRegressions:
    def test_messages_for_returns_a_copy(self):
        # Mutating a delivered inbox must not corrupt the store's
        # pending messages (workers clear their inboxes after compute).
        store = ListInbox(None, num_vertices=2)
        deliver(store, 1, "a")
        inbox = messages_for(store, 1)
        inbox.append("b")
        inbox.clear()
        assert messages_for(store, 1) == ["a"]
        assert stored(store) == 1

    def test_messages_for_copy_on_dense_store(self):
        store = MessageStore(SumCombiner(), num_vertices=4)
        store.deliver_many(np.array([2, 2, 3]), np.array([1.0, 2.0, 5.0]))
        inbox = messages_for(store, 2)
        inbox.clear()
        assert messages_for(store, 2) == [3.0]
        assert messages_for(store, 3) == [5.0]

    def test_state_dict_round_trip(self):
        store = MessageStore(MinCombiner(), num_vertices=6)
        store.deliver_many(np.array([0, 4, 4, 5]), np.array([3.0, 9.0, 2.0, 7.5]))
        restored = MessageStore.from_state(store.state_dict(), MinCombiner())
        assert as_dict(restored) == as_dict(store) == {0: [3.0], 4: [2.0], 5: [7.5]}
        assert stored(restored) == stored(store)

    def test_deliver_many_matches_scalar_combining(self):
        rng = np.random.default_rng(3)
        dst = rng.integers(0, 50, size=400)
        msgs = rng.random(400)
        for combiner_cls in (SumCombiner, MinCombiner, MaxCombiner):
            batched = MessageStore(combiner_cls(), num_vertices=50)
            batched.deliver_many(dst, msgs)
            scalar = ListInbox(combiner_cls(), num_vertices=50)
            for d, m in zip(dst.tolist(), msgs.tolist()):
                deliver(scalar, d, m)
            for v in range(50):
                got = messages_for(batched, v)
                want = messages_for(scalar, v)
                assert len(got) == len(want)
                if want:
                    assert got[0] == pytest.approx(want[0], rel=1e-12)

    def test_a_missing_combiner_is_refused_by_name(self):
        with pytest.raises(ValueError, match="needs a combiner"):
            MessageStore(None, num_vertices=4)

    def test_deliver_many_rejects_mismatched_shapes(self):
        store = MessageStore(SumCombiner(), num_vertices=4)
        with pytest.raises(ValueError):
            store.deliver_many(np.array([0, 1]), np.array([1.0]))


class TestValuesArrayValidation:
    def test_dense_ids_round_trip(self):
        from repro.engine import ExecutionResult

        result = ExecutionResult(
            values={0: 1.0, 1: 2.0, 2: 3.0}, stats=[],
            supersteps_run=0, halted_normally=True,
        )
        assert np.array_equal(result.values_array(), [1.0, 2.0, 3.0])

    def test_sparse_ids_raise(self):
        from repro.engine import ExecutionResult

        result = ExecutionResult(
            values={0: 1.0, 5: 2.0}, stats=[],
            supersteps_run=0, halted_normally=True,
        )
        with pytest.raises(ValueError, match="not dense"):
            result.values_array()

    def test_negative_ids_raise(self):
        from repro.engine import ExecutionResult

        result = ExecutionResult(
            values={-1: 1.0, 0: 2.0}, stats=[],
            supersteps_run=0, halted_normally=True,
        )
        with pytest.raises(ValueError, match="non-negative"):
            result.values_array()


class TestRestoreStats:
    def test_restore_state_restores_stats(self):
        g = scalar_oracle.random_graph(40, avg_degree=4, seed=1)
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

    def test_restore_past_the_last_working_superstep_runs_nothing(self):
        """In-degree does all its work in supersteps 0 and 1: an engine
        restored at superstep 2 halts where the straight run did."""
        g = generators.rmat(8, seed=2)
        want = PregelEngine(g, InDegree()).run()
        assert want.supersteps_run == 2
        engine = PregelEngine(g, InDegree())
        engine.run(max_supersteps=2)
        manager = CheckpointManager(DataStore(), "in-degree")
        manager.save(engine)
        fresh = PregelEngine(g, InDegree())
        manager.load_into(fresh)
        got = fresh.run()
        assert (got.supersteps_run, got.halted_normally) == (2, True)
        assert got.stats == want.stats
        assert got.values == want.values

    def test_capture_carries_exactly_what_restore_reads(self):
        class Recording(dict):
            """A snapshot level that records the keys read from it."""

            def __init__(self, items, read):
                super().__init__(items)
                self.read = read

            def __getitem__(self, key):
                self.read.add(key)
                return super().__getitem__(key)

            def get(self, key, default=None):
                self.read.add(key)
                return super().get(key, default)

        g = scalar_oracle.random_graph(40, avg_degree=4, seed=1)
        engine = PregelEngine(g, PageRank(iterations=5))
        for _ in range(2):
            engine.step()
        state = engine.capture_state()
        read, pending_read = set(), set()
        recorded = Recording(state, read)
        recorded["pending_messages"] = Recording(state["pending_messages"], pending_read)
        PregelEngine(g, PageRank(iterations=5)).restore_state(recorded)
        assert read == set(state)
        assert pending_read == set(state["pending_messages"])
