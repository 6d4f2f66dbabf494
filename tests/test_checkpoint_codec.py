"""The plane-wise checkpoint codec (``repro.engine.codec``).

Bit-exactness is asserted on raw bytes (``tobytes()``), never ``==``:
NaN payloads, signed zeros and subnormals must survive.  The envelope
around the codec keeps its guarantees — a flipped byte anywhere in the
stored payload is detected and restore falls back — and the bytes
written may only go down against what this repo wrote before.
"""

from __future__ import annotations

import pickle
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import CheckpointManager, DataStore, PregelEngine, codec
from repro.engine.algorithms import SSSP, PageRank
from repro.engine.checkpoint import CheckpointCorruptionError
from repro.graph import generators
from repro.partitioning.multilevel import MultilevelPartitioner

LENGTHS = [0, 1, 7, 4096, 4097]
AWKWARD_FLOATS = [
    np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
    1.0, -1.5,
]  # fmt: skip


def build_array(dtype: str, length: int, seed: int) -> np.ndarray:
    """A generated array of *dtype* salted with the awkward values."""
    rng = np.random.default_rng(seed)
    if dtype == "bool":
        return rng.random(length) < 0.3
    if dtype == "object":
        return np.array([("msg", int(i)) for i in range(length)] + [None], dtype=object)[
            :length
        ]
    if dtype.startswith("int"):
        info = np.iinfo(dtype)
        array = rng.integers(-50, 50, size=length).astype(dtype)
        array[::3] = rng.choice([info.min, info.max, 0], size=len(array[::3]))
        return array
    # Floats: a compressible high end, noisy mantissas, awkward values
    # and a non-canonical NaN bit pattern.
    array = (rng.random(length) / 3).astype(dtype)
    with np.errstate(over="ignore"):
        awkward = np.array(AWKWARD_FLOATS).astype(dtype)
    array[::5] = rng.choice(awkward, size=len(array[::5]))
    if length > 2:
        bits = array.view(f"uint{8 * array.dtype.itemsize}")
        bits[2] = np.array(-1).astype(bits.dtype) - 5  # NaN with payload bits set
    return array


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        dtype=st.sampled_from(["float64", "float32", "int64", "int32", "bool", "object"]),
        length=st.sampled_from(LENGTHS),
        seed=st.integers(0, 2**16),
    )
    def test_bit_exact(self, dtype, length, seed):
        array = build_array(dtype, length, seed)
        packed = codec.pack({"outer": {"array": array}, "n": length})
        restored = codec.unpack(packed)["outer"]["array"]
        assert restored.dtype == array.dtype
        assert restored.shape == array.shape
        if dtype == "object":
            assert packed["outer"]["array"] is array  # passed through
            assert restored is array
        else:
            assert not isinstance(packed["outer"]["array"], np.ndarray)
            assert restored.tobytes() == array.tobytes()
        assert codec.unpack(packed)["n"] == length

    def test_non_native_byte_order_survives(self):
        array = build_array("float64", 100, 1).astype(">f8")
        restored = codec.unpack(codec.pack({"a": array}))["a"]
        assert restored.dtype == array.dtype
        assert restored.tobytes() == array.tobytes()

    def test_restored_arrays_are_writable(self):
        restored = codec.unpack(codec.pack({"a": np.arange(10.0), "b": np.ones(9, bool)}))
        restored["a"][0] = 1.0
        restored["b"][0] = False

    def test_everything_else_passes_through_untouched(self):
        matrix = np.arange(12.0).reshape(3, 4)
        scalar = np.float64(2.5)
        strings = np.array(["a", "bc"])
        zero_d = np.array(3.0)
        payload = {
            "matrix": matrix,
            "scalar": scalar,
            "strings": strings,
            "zero_d": zero_d,
            "list": [np.arange(3)],
            "text": "planes",
        }
        packed = codec.pack(payload)
        for key, value in payload.items():
            assert packed[key] is value
        assert codec.unpack(packed)["list"][0] is payload["list"][0]


class TestWhatCompresses:
    def test_noisy_planes_are_stored_raw_and_flat_ones_deflated(self):
        rng = np.random.default_rng(0)
        ranks = 1.0 / 60_000 + rng.random(60_000) * 1e-6  # PageRank-like
        packed = codec.pack({"values": ranks})["values"]
        # little-endian float64: plane 7 = sign/exponent, plane 0 = low mantissa
        assert packed["deflated_planes"][7]
        assert not packed["deflated_planes"][0]
        stored = len(packed["stored"]) + len(packed["deflated"])
        assert stored < 0.9 * ranks.nbytes

    def test_constant_bool_array_costs_bytes_not_kilobytes(self):
        packed = codec.pack({"halted": np.zeros(60_000, dtype=bool)})["halted"]
        assert len(packed["stored"]) + len(packed["deflated"]) < 64


@pytest.fixture(scope="module")
def graph():
    return generators.community_graph(
        2000, num_communities=8, avg_degree=10, mixing=0.1, seed=7
    )


@pytest.fixture(scope="module")
def partitioning(graph):
    return MultilevelPartitioner().partition(graph, 4, seed=1)


class TestEnvelopeAroundTheCodec:
    def test_flipped_byte_in_a_stored_plane_is_detected_and_skipped(
        self, graph, partitioning
    ):
        store = DataStore()
        manager = CheckpointManager(store, "job", keep_last=5)
        engine = PregelEngine(graph, PageRank(iterations=10), partitioning)
        for _ in range(3):
            engine.step()
        intact = manager.save(engine)
        engine.step()
        newest = manager.save(engine)

        env, _ = store.get_object_timed(newest.key)
        assert env["codec"] == "planes"
        # Flip one bit inside the raw-stored mantissa planes of the value
        # array: nothing downstream could notice, so the CRC has to.
        raw_planes = pickle.loads(env["payload"])["values"]["stored"]
        at = env["payload"].index(raw_planes) + len(raw_planes) // 2
        payload = bytearray(env["payload"])
        payload[at] ^= 0x01
        env["payload"] = bytes(payload)
        store.put_object(newest.key, env)

        fresh = PregelEngine(graph, PageRank(iterations=10), partitioning)
        with pytest.raises(CheckpointCorruptionError, match="CRC"):
            manager.load_into(fresh, newest)
        manager.load_into(fresh)  # newest -> oldest: lands on the intact one
        assert fresh.superstep == intact.superstep

    def test_inconsistent_packed_array_is_corruption(self, graph, partitioning):
        store = DataStore()
        manager = CheckpointManager(store, "job")
        engine = PregelEngine(graph, PageRank(iterations=10), partitioning)
        for _ in range(3):
            engine.step()
        info = manager.save(engine)
        env, _ = store.get_object_timed(info.key)
        packed = pickle.loads(env["payload"])
        assert packed["values"]["stored"]  # noisy mantissa planes, kept raw
        packed["values"]["stored"] = packed["values"]["stored"][:-1]
        env["payload"] = pickle.dumps(packed)
        env["crc32"] = zlib.crc32(env["payload"])  # a writer bug, not bit rot
        store.put_object(info.key, env)
        with pytest.raises(CheckpointCorruptionError, match="undecodable"):
            manager.load_into(PregelEngine(graph, PageRank(iterations=10), partitioning))

    def test_sssp_full_then_delta_then_restore_equals_uninterrupted_run(
        self, graph, partitioning
    ):
        reference = PregelEngine(graph, SSSP(source=0), partitioning).run()
        manager = CheckpointManager(DataStore(), "job", delta=True)
        engine = PregelEngine(graph, SSSP(source=0), partitioning)
        for _ in range(3):
            engine.step()
        assert manager.save(engine).kind == "full"
        engine.step()
        assert manager.save(engine).kind == "delta"

        other_layout = MultilevelPartitioner().partition(graph, 3, seed=2)
        resumed = PregelEngine(graph, SSSP(source=0), other_layout)
        manager.load_into(resumed)
        assert resumed.superstep == 4
        assert resumed._values.tobytes() == engine._values.tobytes()
        result = resumed.run()
        assert result.values_array().tobytes() == reference.values_array().tobytes()
        assert [s.active_vertices for s in result.stats] == [
            s.active_vertices for s in reference.stats
        ]

    def test_pagerank_snapshot_is_no_bigger_than_before_the_codec(
        self, graph, partitioning
    ):
        # Ceiling: the bytes the whole-pickle zlib envelope took for this
        # exact state at the commit that introduced the plane-wise codec.
        engine = PregelEngine(graph, PageRank(iterations=10), partitioning)
        for _ in range(5):
            engine.step()
        assert CheckpointManager(DataStore(), "job").save(engine).nbytes <= 30917

    def test_sssp_chain_is_no_bigger_than_before_the_codec(self, graph, partitioning):
        manager = CheckpointManager(DataStore(), "job", delta=True)
        engine = PregelEngine(graph, SSSP(source=0), partitioning)
        for _ in range(3):
            engine.step()
        assert manager.save(engine).nbytes <= 2658
        engine.step()
        assert manager.save(engine).nbytes <= 2589
