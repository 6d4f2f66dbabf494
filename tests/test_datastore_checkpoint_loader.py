"""Tests for the simulated datastore, checkpointing and the loaders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    CheckpointManager,
    DataStore,
    HashLoader,
    MicroLoader,
    PregelEngine,
)
from repro.engine import loader as loading
from repro.engine.datastore import STORE_BANDWIDTH, STORE_LATENCY
from repro.engine.algorithms import PageRank
from repro.graph import generators
from repro.partitioning import (
    HashPartitioner,
    MicroPartitioner,
    MultilevelPartitioner,
)
from repro.utils.units import MiB
from tests import scalar_oracle


class TestDataStore:
    def test_put_get_roundtrip(self):
        store = DataStore()
        store.put("a/b", b"hello")
        assert store.get("a/b") == b"hello"

    def test_missing_key(self):
        with pytest.raises(KeyError):
            DataStore().get("nope")

    def test_delete_idempotent(self):
        store = DataStore()
        store.put("k", b"x")
        store.delete("k")
        store.delete("k")
        with pytest.raises(KeyError):
            store.get("k")

    def test_transfer_time_model(self):
        store = DataStore()
        t1 = store.transfer_time(STORE_BANDWIDTH, 1)
        t2 = store.transfer_time(STORE_BANDWIDTH, 4)
        assert STORE_BANDWIDTH == 100 * MiB
        assert t1 == pytest.approx(STORE_LATENCY + 1.0)
        assert t2 == pytest.approx(STORE_LATENCY + 0.25)

    def test_non_bytes_rejected(self):
        with pytest.raises(TypeError):
            DataStore().put("k", "text")

    def test_invalid_parallelism(self):
        with pytest.raises(ValueError):
            DataStore().transfer_time(10, 0)

    def test_total_stored_bytes(self):
        store = DataStore()
        store.put("a", b"12")
        store.put("b", b"345")
        assert store.total_stored_bytes() == 5


class TestCheckpointManager:
    def make_engine(self, workers=3, seed=1):
        g = scalar_oracle.random_graph(120, avg_degree=5, seed=seed).undirected()
        return g, PregelEngine(
            g, PageRank(iterations=6), HashPartitioner().partition(g, workers)
        )

    def test_save_and_restore_same_layout(self):
        g, engine = self.make_engine()
        for _ in range(3):
            engine.step()
        manager = CheckpointManager(DataStore(), "job")
        manager.save(engine)
        _, engine2 = self.make_engine()
        manager.load_into(engine2)
        assert engine2.superstep == 3
        assert engine2.values() == engine.values()

    def test_restore_different_worker_layout(self):
        g, engine = self.make_engine(workers=3)
        for _ in range(3):
            engine.step()
        manager = CheckpointManager(DataStore(), "job")
        manager.save(engine)
        # Resume on 2 workers with a structurally different partitioner.
        engine2 = PregelEngine(
            g, PageRank(iterations=6), MultilevelPartitioner().partition(g, 2, seed=4)
        )
        manager.load_into(engine2)
        full = self.make_engine()[1].run()
        resumed = engine2.run()
        for v in full.values:
            assert resumed.values[v] == pytest.approx(full.values[v], abs=1e-12)

    def test_prune_keeps_last(self):
        _, engine = self.make_engine()
        store = DataStore()
        manager = CheckpointManager(store, "job", keep_last=2)
        infos = []
        for _ in range(4):
            engine.step()
            infos.append(manager.save(engine))
        kept = infos[-2:]
        for info in infos[:-2]:
            with pytest.raises(KeyError):
                store.get(info.key)
        assert store.total_stored_bytes() == sum(store.size_of(i.key) for i in kept)

    def test_load_without_checkpoint(self):
        _, engine = self.make_engine()
        manager = CheckpointManager(DataStore(), "job")
        with pytest.raises(LookupError):
            manager.load_into(engine)

    def test_latest_info(self):
        _, engine = self.make_engine()
        manager = CheckpointManager(DataStore(), "job")
        assert manager.latest() is None
        info = manager.save(engine, num_writers=4)
        assert manager.latest() == info
        assert info.nbytes > 0
        assert info.simulated_write_seconds > 0

    def test_invalid_keep_last(self):
        with pytest.raises(ValueError):
            CheckpointManager(DataStore(), "job", keep_last=0)

    def test_restore_wrong_graph_rejected(self):
        _, engine = self.make_engine()
        engine.step()
        manager = CheckpointManager(DataStore(), "job")
        manager.save(engine)
        other_graph = scalar_oracle.path_graph(5)
        other = PregelEngine(other_graph, PageRank(iterations=2))
        with pytest.raises(ValueError):
            manager.load_into(other)


class TestLoadTimingModel:
    def test_stream_flat_in_machines(self):
        t2 = loading.stream_time(10**9, 10**6, 2)
        t16 = loading.stream_time(10**9, 10**6, 16)
        assert t2 == t16

    def test_micro_scales_with_machines(self):
        t2 = loading.micro_time(10**9, 10**6, 2)
        t16 = loading.micro_time(10**9, 10**6, 16)
        assert t16 < t2

    def test_ordering_micro_fastest(self):
        for w in (2, 4, 8, 16):
            micro = loading.micro_time(10**9, 10**6, w)
            hashed = loading.hash_time(10**9, 10**6, w)
            stream = loading.stream_time(10**9, 10**6, w)
            assert micro < hashed < stream

    def test_gap_grows_with_dataset(self):
        small = loading.stream_time(10**7, 10**5, 8) / loading.micro_time(10**7, 10**5, 8)
        big = loading.stream_time(10**10, 10**8, 8) / loading.micro_time(10**10, 10**8, 8)
        assert big > small

    def test_estimate_dispatch(self):
        assert loading.estimate("micro", 10**6, 10**4, 4) == loading.micro_time(
            10**6, 10**4, 4
        )
        with pytest.raises(ValueError):
            loading.estimate("teleport", 10**6, 10**4, 4)

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            loading.micro_time(10**6, 10**4, 0)


class TestLoaders:
    @pytest.fixture(scope="class")
    def graph(self):
        return generators.community_graph(800, num_communities=8, seed=3)

    def test_hash_loader(self, graph):
        result = HashLoader().load(graph, 4)
        assert result.partitioning.assignment.tolist() == [
            v % 4 for v in range(graph.num_vertices)
        ]
        assert result.shuffled_edges > 0

    def test_micro_loader(self, graph):
        artefact = MicroPartitioner(num_micro_parts=16).build(graph, seed=1)
        loader = MicroLoader(artefact)
        result = loader.load(graph, 4, seed=1)
        assert result.partitioning.num_parts == 4
        assert result.simulated_seconds > 0

    def test_micro_loader_any_worker_count(self, graph):
        artefact = MicroPartitioner(num_micro_parts=16).build(graph, seed=1)
        loader = MicroLoader(artefact)
        for w in (2, 4, 8, 16):
            assert loader.load(graph, w).partitioning.num_parts == w

    def test_size_override_drives_timing(self, graph):
        result_small = HashLoader().load(graph, 4)
        result_big = HashLoader().load(
            graph, 4, size_override=(10**9, 10**7)
        )
        assert result_big.simulated_seconds > result_small.simulated_seconds

    def test_real_loaders_keep_the_model_ordering(self, graph):
        """Fig 6's ordering from the loader implementations themselves."""
        artefact = MicroPartitioner(num_micro_parts=16).build(graph, seed=1)
        stream_s = loading.stream_time(graph.num_edges, graph.num_vertices, 4)
        hashed = HashLoader().load(graph, 4)
        micro = MicroLoader(artefact).load(graph, 4, seed=1)
        assert micro.simulated_seconds < hashed.simulated_seconds < stream_s

    def test_loaded_partitioning_usable_by_engine(self, graph):
        artefact = MicroPartitioner(num_micro_parts=16).build(graph, seed=1)
        result = MicroLoader(artefact).load(graph, 4, seed=1)
        run = PregelEngine(graph, PageRank(iterations=2), result.partitioning).run()
        assert run.halted_normally


class TestMicroLoaderKeepsItsClusterings:
    """A clustering is a pure function of (artefact, k, integer seed);
    the loader computes each once.  Fresh-entropy and stream seeds are
    not functions of anything and are clustered every time."""

    @pytest.fixture(scope="class")
    def graph(self):
        return generators.community_graph(800, num_communities=8, seed=3)

    @pytest.fixture(scope="class")
    def artefact(self, graph):
        return MicroPartitioner(num_micro_parts=16).build(graph, seed=1)

    @pytest.fixture()
    def clusterings(self, monkeypatch):
        """Number of quotient-graph partitionings run so far."""
        calls = []
        original = MultilevelPartitioner.partition

        def counting(self, *args, **kwargs):
            calls.append(args[1])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(MultilevelPartitioner, "partition", counting)
        return calls

    def test_ten_loads_over_three_worker_counts_cluster_three_times(
        self, graph, artefact, clusterings
    ):
        loader = MicroLoader(artefact)
        loads = [loader.load(graph, k, seed=5) for k in [2, 4, 8] * 3 + [2]]
        assert clusterings == [2, 4, 8]
        for load in loads:
            fresh = artefact.cluster(load.num_workers, seed=5)
            assert np.array_equal(load.partitioning.assignment, fresh.assignment)
            assert load.partitioning.num_parts == load.num_workers

    def test_seeds_do_not_share_an_entry(self, graph, artefact, clusterings):
        loader = MicroLoader(artefact)
        loader.load(graph, 4, seed=5)
        loader.load(graph, 4, seed=6)
        loader.load(graph, 4, seed=np.int64(5))  # the same seed as 5
        assert clusterings == [4, 4]

    def test_fresh_entropy_and_generator_seeds_cluster_every_time(
        self, graph, artefact, clusterings
    ):
        loader = MicroLoader(artefact)
        for _ in range(3):
            loader.load(graph, 4, seed=None)
        assert clusterings == [4, 4, 4]
        rng = np.random.default_rng(9)
        for _ in range(2):
            loader.load(graph, 4, seed=rng)
        assert clusterings == [4] * 5

    def test_a_caller_cannot_poison_the_next_load(self, graph, artefact):
        loader = MicroLoader(artefact)
        first = loader.load(graph, 4, seed=5).partitioning
        with pytest.raises(ValueError, match="read-only"):
            first.assignment[0] = (first.assignment[0] + 1) % 4
        again = loader.load(graph, 4, seed=5).partitioning
        assert np.array_equal(again.assignment, artefact.cluster(4, seed=5).assignment)
        # An un-memoised clustering stays the caller's own to edit.
        loader.load(graph, 4, seed=None).partitioning.assignment[0] = 0
