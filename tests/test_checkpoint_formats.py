"""Checkpoint envelopes, delta chains, and corruption fallback.

Covers the one restorable format (a format-3 ``planes`` envelope), the
refusal of anything else, the delta-chain restore path (full +
changed-vertex delta must equal a full-snapshot restore bit-exactly),
corrupted-envelope fallback down to a single flipped byte, the
chain-aware prune, and a save repeated at one superstep.  The
runtime-level test reuses the fault-injection observers to drive a real
eviction/recovery cycle over delta checkpoints.
"""

from __future__ import annotations

import pickle
import zlib

import numpy as np
import pytest

from repro.cloud import default_catalog
from repro.engine import DataStore, PregelEngine, codec
from repro.engine.algorithms import SSSP, PageRank
from repro.engine.checkpoint import (
    CheckpointCorruptionError,
    CheckpointInfo,
    CheckpointManager,
)
from repro.exec import DatastoreWriteFaults, EvictionStormFaults
from repro.graph import generators
from repro.partitioning.hashing import HashPartitioner
from repro.runtime import HourglassRuntime
from tests import scalar_oracle
from tests.test_fault_injection import PinnedProvisioner


@pytest.fixture()
def graph():
    return scalar_oracle.grid_graph(10, 10)


@pytest.fixture()
def partitioning(graph):
    return HashPartitioner().partition(graph, 3)


#: Marks an envelope field to delete rather than overwrite.
MISSING = "<missing>"


def make_engine(graph, partitioning, steps=0):
    engine = PregelEngine(graph, SSSP(source=0), partitioning)
    for _ in range(steps):
        engine.step()
    return engine


def plain_nbytes(engine) -> int:
    """Size of the engine's state as an uncompressed format-2 pickle."""
    return len(pickle.dumps(engine.capture_state(), protocol=pickle.HIGHEST_PROTOCOL))


def info_for(store, key, superstep) -> CheckpointInfo:
    return CheckpointInfo(
        key=key,
        superstep=superstep,
        nbytes=store.size_of(key),
        simulated_write_seconds=0.0,
    )


def assert_state_equal(a: PregelEngine, b: PregelEngine):
    assert a.superstep == b.superstep
    assert np.array_equal(a._values, b._values)
    assert np.array_equal(a._halted, b._halted)
    assert a.stats == b.stats


class TestFormat3Full:
    def test_roundtrip(self, graph, partitioning):
        store = DataStore()
        manager = CheckpointManager(store, "job")
        engine = make_engine(graph, partitioning, steps=3)
        info = manager.save(engine)
        assert info.kind == "full"
        assert info.nbytes > 0
        raw, _ = store.get_object_timed(info.key)
        assert raw["format"] == 3
        assert raw["kind"] == "full"
        assert raw["codec"] == "planes"

        restored = make_engine(graph, partitioning)
        manager.load_into(restored)
        assert_state_equal(engine, restored)

    def test_compression_shrinks_payload(self, graph, partitioning):
        engine = make_engine(graph, partitioning, steps=2)
        packed = CheckpointManager(DataStore(), "job").save(engine)
        assert packed.nbytes < plain_nbytes(engine)

    def test_invalid_codec_rejected(self, graph, partitioning):
        # There is one write path and no codec option; an envelope naming
        # a codec nobody ever wrote is corruption, not a crash.
        with pytest.raises(TypeError):
            CheckpointManager(DataStore(), "job", codec="zlib")
        store = DataStore()
        manager = CheckpointManager(store, "job")
        info = manager.save(make_engine(graph, partitioning, steps=1))
        env, _ = store.get_object_timed(info.key)
        env["codec"] = "lz4"
        store.put_object(info.key, env)
        with pytest.raises(CheckpointCorruptionError, match="lz4"):
            manager.load_into(make_engine(graph, partitioning))

    def test_invalid_full_interval_rejected(self):
        with pytest.raises(ValueError):
            CheckpointManager(DataStore(), "job", full_interval=0)

    @pytest.mark.parametrize("name", ["zlib", "zstd", None])
    def test_non_planes_codec_falls_back(self, graph, partitioning, name):
        store = DataStore()
        manager = CheckpointManager(store, "job")
        engine = make_engine(graph, partitioning, steps=1)
        manager.save(engine)
        engine.step()
        info = manager.save(engine)
        env, _ = store.get_object_timed(info.key)
        env["codec"] = name
        store.put_object(info.key, env)
        restored = make_engine(graph, partitioning)
        manager.load_into(restored)
        assert restored.superstep == 1
        with pytest.raises(CheckpointCorruptionError, match="codec"):
            manager.load_into(restored, info)

    def test_non_envelope_objects_are_corruption(self, graph, partitioning):
        # A bare engine state dict (the old format 2), a per-worker dict
        # (the old format 1) and non-dicts are all refused, not restored.
        engine = make_engine(graph, partitioning, steps=2)
        store = DataStore()
        manager = CheckpointManager(store, "job")
        bare = engine.capture_state()
        per_worker = {"superstep": 2, "workers": [], "pending_messages": {}}
        for obj in (bare, per_worker, [bare], None, b"\x00"):
            store.put_object("stray", obj)
            restored = make_engine(graph, partitioning)
            with pytest.raises(CheckpointCorruptionError, match="format-3"):
                manager.load_into(restored, info_for(store, "stray", 2))
            assert restored.superstep == 0

    @pytest.mark.parametrize(
        "field,value",
        [
            ("format", 2),
            ("kind", "dalta"),
            ("kind", None),
            ("payload", "not bytes"),
            ("crc32", "0"),
            *[(field, MISSING) for field in ("payload", "crc32", "kind", "codec")],
        ],
    )
    def test_malformed_envelope_metadata_falls_back(
        self, graph, partitioning, field, value
    ):
        store = DataStore()
        manager = CheckpointManager(store, "job", delta=True)
        engine = make_engine(graph, partitioning, steps=2)
        manager.save(engine)
        engine.step()
        info = manager.save(engine)
        env, _ = store.get_object_timed(info.key)
        if value == MISSING:
            del env[field]
        else:
            env[field] = value
        store.put_object(info.key, env)
        restored = make_engine(graph, partitioning)
        manager.load_into(restored)
        assert restored.superstep == 2

    def test_delta_over_a_delta_base_is_corruption(self, graph, partitioning):
        store = DataStore()
        manager = CheckpointManager(store, "job", keep_last=10, delta=True)
        engine = make_engine(graph, partitioning, steps=1)
        infos = [manager.save(engine)]
        for _ in range(2):
            engine.step()
            infos.append(manager.save(engine))
        env, _ = store.get_object_timed(infos[2].key)
        env["base_key"] = infos[1].key  # a delta, not a full snapshot
        store.put_object(infos[2].key, env)
        with pytest.raises(CheckpointCorruptionError, match="compose"):
            manager.load_into(make_engine(graph, partitioning), infos[2])

    def test_inconsistent_state_is_corruption(self, graph, partitioning):
        # A writer bug, not bit rot: the CRC matches, the state does not
        # hang together, and the engine is left untouched.
        engine = make_engine(graph, partitioning, steps=2)
        for field, value in [("halted", np.zeros(3, dtype=bool)), ("stats", [])]:
            state = engine.capture_state()
            state[field] = value
            stored = pickle.dumps(codec.pack(state), protocol=pickle.HIGHEST_PROTOCOL)
            store = DataStore()
            envelope = {
                "format": 3,
                "kind": "full",
                "codec": "planes",
                "base_key": None,
                "superstep": 2,
                "crc32": zlib.crc32(stored),
                "payload": stored,
            }
            store.put_object("bad", envelope)
            restored = make_engine(graph, partitioning)
            with pytest.raises(CheckpointCorruptionError, match="inconsistent"):
                CheckpointManager(store, "job").load_into(
                    restored, info_for(store, "bad", 2)
                )
            assert restored.superstep == 0


class TestByteFlipSweep:
    """Every single-byte corruption of a stored checkpoint either restores
    one of the uncorrupted checkpoints exactly or is refused as a
    :class:`CheckpointCorruptionError` with the engine left untouched —
    never a raw exception and never a state nobody wrote."""

    @staticmethod
    def snapshot(engine) -> bytes:
        return pickle.dumps(engine.capture_state(), protocol=pickle.HIGHEST_PROTOCOL)

    @pytest.mark.parametrize("mask", [0x01, 0xFF])
    @pytest.mark.parametrize("target", ["delta", "full"])
    def test_every_flipped_byte_restores_exactly_or_is_refused(self, target, mask):
        graph = generators.community_graph(300, num_communities=4, avg_degree=8, seed=3)
        partitioning = HashPartitioner().partition(graph, 3)

        def fresh():
            return PregelEngine(graph, PageRank(iterations=10), partitioning)

        store = DataStore()
        manager = CheckpointManager(store, "sweep", delta=True)
        engine = fresh()
        engine.step()
        engine.step()
        full = manager.save(engine)
        engine.step()
        delta = manager.save(engine)
        assert (full.kind, delta.kind) == ("full", "delta")
        intact = set()
        for info in (full, delta):
            restored = fresh()
            manager.load_into(restored, info)
            intact.add(self.snapshot(restored))

        key = (delta if target == "delta" else full).key
        original = store.get(key)
        restored = fresh()
        refused = 0
        for i in range(len(original)):
            flipped = bytearray(original)
            flipped[i] ^= mask
            store.put(key, bytes(flipped))
            before = self.snapshot(restored)
            try:
                manager.load_into(restored)
            except CheckpointCorruptionError:
                refused += 1
                assert self.snapshot(restored) == before, f"byte {i} mutated the engine"
            else:
                assert self.snapshot(restored) in intact, f"byte {i} restored junk"
        if target == "delta":
            # The full snapshot is intact: every flip falls back to it.
            assert refused == 0
        else:
            assert refused > 0


class TestDeltaChains:
    def save_sequence(self, manager, graph, partitioning, saves):
        engine = make_engine(graph, partitioning)
        infos = []
        for _ in range(saves):
            engine.step()
            infos.append(manager.save(engine))
        return engine, infos

    def test_full_delta_cadence_and_bases(self, graph, partitioning):
        manager = CheckpointManager(
            DataStore(), "job", keep_last=10, delta=True, full_interval=3
        )
        _, infos = self.save_sequence(manager, graph, partitioning, 5)
        assert [i.kind for i in infos] == ["full", "delta", "delta", "delta", "full"]
        for info in infos[1:4]:
            assert info.base_key == infos[0].key

    def test_delta_restore_equals_full_restore_bit_exact(self, graph, partitioning):
        delta_mgr = CheckpointManager(
            DataStore(), "job", keep_last=10, delta=True, full_interval=4
        )
        full_mgr = CheckpointManager(DataStore(), "job", keep_last=10)
        engine = make_engine(graph, partitioning)
        for _ in range(3):
            engine.step()
            delta_mgr.save(engine)
            full_mgr.save(engine)
        assert delta_mgr.latest().kind == "delta"

        from_delta = make_engine(graph, partitioning)
        from_full = make_engine(graph, partitioning)
        delta_mgr.load_into(from_delta)
        full_mgr.load_into(from_full)
        assert_state_equal(from_full, from_delta)
        assert_state_equal(engine, from_delta)

    def test_delta_is_smaller_in_steady_state(self):
        # Steady state: the full snapshot always carries every vertex,
        # the delta only the frontier that changed since the last full.
        big = scalar_oracle.grid_graph(40, 40)
        partitioning = HashPartitioner().partition(big, 3)
        engine = make_engine(big, partitioning, steps=10)
        manager = CheckpointManager(
            DataStore(), "job", keep_last=10, delta=True, full_interval=8
        )
        full = manager.save(engine)
        engine.step()
        delta = manager.save(engine)
        assert (full.kind, delta.kind) == ("full", "delta")
        assert delta.nbytes < full.nbytes
        # And >= 3x smaller than the same state in plain format 2.
        assert 3 * delta.nbytes <= plain_nbytes(engine)

    def test_resume_and_finish_from_delta(self, graph, partitioning):
        reference = make_engine(graph, partitioning).run()
        manager = CheckpointManager(
            DataStore(), "job", keep_last=10, delta=True, full_interval=4
        )
        engine, _ = self.save_sequence(manager, graph, partitioning, 3)
        restored = make_engine(graph, partitioning)
        manager.load_into(restored)
        result = restored.run()
        assert np.array_equal(reference.values_array(), result.values_array())
        assert reference.stats == result.stats

    def test_restore_across_worker_layouts(self, graph):
        three = HashPartitioner().partition(graph, 3)
        five = HashPartitioner().partition(graph, 5)
        manager = CheckpointManager(
            DataStore(), "job", keep_last=10, delta=True, full_interval=4
        )
        engine, _ = self.save_sequence(manager, graph, three, 3)
        restored = make_engine(graph, five)
        manager.load_into(restored)
        assert_state_equal(engine, restored)

    def test_corrupted_delta_falls_back_to_intact_chain(self, graph, partitioning):
        store = DataStore()
        manager = CheckpointManager(
            store, "job", keep_last=10, delta=True, full_interval=4
        )
        _, infos = self.save_sequence(manager, graph, partitioning, 3)
        # Truncate the newest delta's compressed payload in the store.
        env, _ = store.get_object_timed(infos[2].key)
        env["payload"] = env["payload"][:-4]
        store.put_object(infos[2].key, env)

        restored = make_engine(graph, partitioning)
        manager.load_into(restored)  # falls back to the superstep-2 delta
        assert restored.superstep == infos[1].superstep

    def test_corrupted_base_falls_back_to_nothing_raises(self, graph, partitioning):
        store = DataStore()
        manager = CheckpointManager(
            store, "job", keep_last=10, delta=True, full_interval=4
        )
        _, infos = self.save_sequence(manager, graph, partitioning, 2)
        env, _ = store.get_object_timed(infos[0].key)
        env["crc32"] ^= 0xFFFF
        store.put_object(infos[0].key, env)

        restored = make_engine(graph, partitioning)
        with pytest.raises(CheckpointCorruptionError):
            manager.load_into(restored)

    def test_explicit_corrupt_info_does_not_fall_back(self, graph, partitioning):
        store = DataStore()
        manager = CheckpointManager(
            store, "job", keep_last=10, delta=True, full_interval=4
        )
        _, infos = self.save_sequence(manager, graph, partitioning, 2)
        store.delete(infos[1].key)
        restored = make_engine(graph, partitioning)
        with pytest.raises(CheckpointCorruptionError):
            manager.load_into(restored, infos[1])

    def test_prune_is_chain_aware(self, graph, partitioning):
        store = DataStore()
        manager = CheckpointManager(
            store, "job", keep_last=2, delta=True, full_interval=3
        )
        engine = make_engine(graph, partitioning)
        infos = []
        for _ in range(6):
            engine.step()
            infos.append(manager.save(engine))
        # f1 d2 d3 d4 f5 d6: after save 4 the base full must survive the
        # keep window because retained deltas compose with it...
        assert [i.kind for i in infos] == [
            "full", "delta", "delta", "delta", "full", "delta",
        ]
        keys = set(store.list_keys("checkpoints/"))
        # ...but once the second full landed and its delta is the only
        # retained chain, the first full (and its deltas) are gone.
        assert infos[0].key not in keys
        assert keys == {infos[4].key, infos[5].key}
        assert [i.key for i in manager.history()] == [infos[4].key, infos[5].key]

        restored = make_engine(graph, partitioning)
        manager.load_into(restored)
        assert_state_equal(engine, restored)

    def test_prune_keeps_base_while_deltas_reference_it(self, graph, partitioning):
        store = DataStore()
        manager = CheckpointManager(
            store, "job", keep_last=2, delta=True, full_interval=8
        )
        _, infos = self.save_sequence(manager, graph, partitioning, 4)
        keys = set(store.list_keys("checkpoints/"))
        assert infos[0].key in keys  # full base survives the keep window
        assert infos[1].key not in keys  # plain old delta rotated out
        restored = make_engine(graph, partitioning)
        manager.load_into(restored)
        assert restored.superstep == infos[3].superstep


class TestRepeatedSave:
    """A save at a superstep that already has a checkpoint replaces it:
    the chain stays restorable and the history names each key once."""

    @pytest.fixture()
    def pagerank(self):
        graph = generators.community_graph(500, num_communities=4, avg_degree=6, seed=5)
        partitioning = HashPartitioner().partition(graph, 3)
        return lambda: PregelEngine(graph, PageRank(iterations=10), partitioning)

    def test_double_save_restores_exact_state(self, pagerank):
        manager = CheckpointManager(DataStore(), "job", delta=True, full_interval=4)
        engine = pagerank()
        engine.step()
        engine.step()
        first = manager.save(engine)
        second = manager.save(engine)
        restored = pagerank()
        manager.load_into(restored)
        assert_state_equal(engine, restored)
        assert (first.kind, second.kind) == ("full", "full")

    @pytest.mark.parametrize("delta", [False, True])
    def test_history_holds_one_entry_per_key(self, pagerank, delta):
        store = DataStore()
        manager = CheckpointManager(store, "job", keep_last=10, delta=delta)
        engine = pagerank()
        engine.step()
        manager.save(engine)
        manager.save(engine)
        engine.step()
        manager.save(engine)
        manager.save(engine)
        keys = [info.key for info in manager.history()]
        assert len(keys) == len(set(keys)) == 2
        assert set(store.list_keys("checkpoints/")) == set(keys)

    def test_replay_after_rollback_keeps_chain_restorable(self, pagerank):
        # Full at 2, delta at 4; roll back to the full and replay: the
        # saves at 2 and 4 land on the same keys again.
        manager = CheckpointManager(
            DataStore(), "job", keep_last=10, delta=True, full_interval=4
        )
        engine = pagerank()
        engine.step()
        engine.step()
        full = manager.save(engine)
        engine.step()
        engine.step()
        manager.save(engine)
        manager.load_into(engine, full)
        resaved = manager.save(engine)
        assert resaved.kind == "full"
        engine.step()
        engine.step()
        assert manager.save(engine).kind == "delta"
        assert [info.superstep for info in manager.history()] == [2, 4]
        restored = pagerank()
        manager.load_into(restored)
        assert_state_equal(engine, restored)


class TestRuntimeDeltaRecovery:
    def test_eviction_recovery_over_delta_chain_is_exact(self, long_market):
        # The real lifecycle: delta checkpoints on, a flaky datastore
        # write (DatastoreWriteFaults) and a forced eviction — recovery
        # composes full+delta chains and the answer must match an
        # undisturbed run.
        catalog = tuple(default_catalog())
        graph = generators.community_graph(
            800, num_communities=8, avg_degree=10, seed=4
        )
        config = [c for c in catalog if c.is_transient][0]
        rt = HourglassRuntime(
            graph,
            lambda: PageRank(iterations=12),
            long_market,
            catalog,
            PinnedProvisioner(config),
            num_micro_parts=32,
            seed=2,
            time_scale=3000.0,
            data_scale=20_000,
            delta_checkpoints=True,
        )
        undisturbed = PregelEngine(
            graph,
            PageRank(iterations=12),
            rt.artefact.cluster(config.num_workers, seed=2),
        ).run()
        budget = rt.perf.fixed_time(rt.lrc) + 3.0 * rt.perf.exec_time(rt.lrc)
        uptime = 1.5 * rt.perf.setup_time(config)
        faults = DatastoreWriteFaults({1}, retries=0)
        rt.observers = (faults, EvictionStormFaults(uptime, max_evictions=1))
        result = rt.execute(0.0, budget)

        assert result.events[-1].kind == "finish"
        assert result.evictions >= 1
        kinds = {
            obj.get("kind")
            for key in rt.datastore.list_keys("checkpoints/")
            for obj in [rt.datastore.get_object_timed(key)[0]]
            if isinstance(obj, dict)
        }
        assert "delta" in kinds or "full" in kinds
        for v, value in undisturbed.values.items():
            assert result.values[v] == pytest.approx(value, abs=1e-15)
