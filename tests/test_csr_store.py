"""Out-of-core CSR stores and streaming RMAT generation.

The `.npy`-directory store must round-trip exactly, the two-pass on-disk
builder must agree with the in-RAM ``from_edges`` construction, the
streaming RMAT generator must be re-iterable (identical batches on every
pass — the property the two-pass builder relies on), and the engine must
produce the same results over a memory-mapped graph as over its in-RAM
copy.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.engine import PregelEngine
from repro.engine.algorithms import SSSP, PageRank
from repro.engine.loader import LoadTimingModel, MicroLoader
from repro.graph import generators
from repro.graph.generators import rmat_edge_batches
from repro.graph.graph import from_edges
from repro.graph.io import (
    CSR_META_FILENAME,
    build_csr_on_disk,
    build_rmat_csr,
    csr_nbytes,
    is_memmap_backed,
    load_csr,
)
from repro.partitioning.hashing import HashPartitioner
from repro.partitioning.micro import MicroPartitioner
from tests import scalar_oracle


@pytest.fixture(scope="module")
def graph():
    return generators.rmat(9, seed=7)


def write_store(graph, directory):
    """*graph* as a CSR store, built from its edges in one batch."""
    batch = (graph.edge_sources(), graph.indices, graph.weights)
    build_csr_on_disk(lambda: [batch], graph.num_vertices, directory, name=graph.name)


def assert_graphs_equal(a, b):
    assert a.num_vertices == b.num_vertices
    assert a.num_edges == b.num_edges
    assert np.array_equal(np.asarray(a.indptr), np.asarray(b.indptr))
    assert np.array_equal(np.asarray(a.indices), np.asarray(b.indices))
    if a.weights is None:
        assert b.weights is None
    else:
        assert np.array_equal(np.asarray(a.weights), np.asarray(b.weights))


class TestSaveLoadRoundTrip:
    def test_round_trip_mmap(self, graph, tmp_path):
        write_store(graph, tmp_path / "store")
        loaded = load_csr(tmp_path / "store")
        assert_graphs_equal(graph, loaded)
        assert loaded.name == graph.name
        assert is_memmap_backed(loaded.indptr)
        assert is_memmap_backed(loaded.indices)

    def test_round_trip_in_ram(self, graph, tmp_path):
        write_store(graph, tmp_path / "store")
        loaded = load_csr(tmp_path / "store", mmap=False)
        assert_graphs_equal(graph, loaded)
        assert not is_memmap_backed(loaded.indices)

    def test_weighted_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        src = rng.integers(0, 32, size=128)
        dst = rng.integers(0, 32, size=128)
        keep = src != dst
        weights = rng.uniform(0.5, 2.0, size=int(keep.sum()))
        graph = from_edges(
            src[keep], dst[keep], num_vertices=32, weights=weights, name="wg"
        )
        write_store(graph, tmp_path / "store")
        loaded = load_csr(tmp_path / "store")
        assert_graphs_equal(graph, loaded)
        assert is_memmap_backed(loaded.weights)

    def test_is_memmap_backed_sees_through_views(self, graph, tmp_path):
        write_store(graph, tmp_path / "store")
        loaded = load_csr(tmp_path / "store")
        # Slices and reshapes keep the memmap as their .base.
        assert is_memmap_backed(loaded.indices[3:17])
        assert is_memmap_backed(loaded.indices[::2][1:])
        assert not is_memmap_backed(np.asarray(loaded.indices).copy())
        assert not is_memmap_backed([1, 2, 3])

    def test_csr_nbytes(self, graph, tmp_path):
        expected = graph.indptr.nbytes + graph.indices.nbytes
        assert csr_nbytes(graph) == expected
        write_store(graph, tmp_path / "store")
        assert csr_nbytes(load_csr(tmp_path / "store")) == expected


class TestBuildOnDisk:
    def test_matches_from_edges(self, tmp_path):
        rng = np.random.default_rng(11)
        src = rng.integers(0, 40, size=300)
        dst = rng.integers(0, 40, size=300)
        reference = from_edges(src, dst, num_vertices=40)

        def batches():
            # Three uneven chunks, preserving global edge order.
            yield src[:100], dst[:100]
            yield src[100:250], dst[100:250]
            yield src[250:], dst[250:]

        built = build_csr_on_disk(batches, num_vertices=40, directory=tmp_path / "b")
        assert built.num_vertices == 40
        assert built.num_edges == reference.num_edges
        # from_edges sorts neighbors per vertex; the streaming builder
        # preserves batch order — compare per-vertex neighbor multisets.
        for v in range(40):
            assert sorted(built.neighbors(v).tolist()) == sorted(
                reference.neighbors(v).tolist()
            )

    def test_weighted_scatter_keeps_pairing(self, tmp_path):
        src = np.array([2, 0, 2, 1, 0, 2])
        dst = np.array([5, 6, 7, 8, 9, 10])
        w = np.array([0.5, 0.6, 0.7, 0.8, 0.9, 1.0])

        def batches():
            yield src, dst, w

        built = build_csr_on_disk(batches, num_vertices=11, directory=tmp_path / "w")
        # Each (dst, weight) pair must survive the scatter intact.
        pairs = {
            (int(d), float(wt))
            for d, wt in zip(np.asarray(built.indices), np.asarray(built.weights))
        }
        assert pairs == {(int(d), float(wt)) for d, wt in zip(dst, w)}

    def test_rejects_out_of_range_edges(self, tmp_path):
        def batches():
            yield np.array([0, 9]), np.array([1, 2])

        with pytest.raises(ValueError, match="out of range"):
            build_csr_on_disk(batches, num_vertices=5, directory=tmp_path / "x")

    def test_rejects_mixed_weightedness(self, tmp_path):
        def batches():
            yield np.array([0]), np.array([1]), np.array([1.0])
            yield np.array([1]), np.array([2])

        with pytest.raises(ValueError, match="weightedness"):
            build_csr_on_disk(batches, num_vertices=3, directory=tmp_path / "x")


class TestStreamingRmat:
    def test_batches_reiterable(self):
        def collect():
            return [
                (s.copy(), d.copy())
                for s, d in rmat_edge_batches(8, seed=13, batch_edges=1000)
            ]

        first, second = collect(), collect()
        assert len(first) == len(second) > 1
        for (s1, d1), (s2, d2) in zip(first, second):
            assert np.array_equal(s1, s2)
            assert np.array_equal(d1, d2)

    def test_batch_ids_in_range_no_self_loops(self):
        n = 1 << 8
        total = 0
        for s, d in rmat_edge_batches(8, seed=13, batch_edges=1000):
            assert len(s) == len(d) <= 1000
            assert s.min() >= 0 and s.max() < n
            assert d.min() >= 0 and d.max() < n
            assert not np.any(s == d)
            total += len(s)
        # Self-loop drops only: close to edge_factor * n.
        assert total > 0.8 * 16 * n

    def test_build_rmat_csr_deterministic(self, tmp_path):
        g1 = build_rmat_csr(7, tmp_path / "a", seed=21, batch_edges=500)
        g2 = build_rmat_csr(7, tmp_path / "b", seed=21, batch_edges=500)
        assert_graphs_equal(g1, g2)
        assert is_memmap_backed(g1.indices)
        assert g1.num_vertices == 1 << 7

    def test_batch_size_does_not_change_graph(self, tmp_path):
        # Batch boundaries are an implementation detail of the stream;
        # the aggregate edge multiset they produce must not depend on
        # them... but per-batch RNG derivation means batch size IS part
        # of the stream identity.  Pin that contract explicitly: same
        # batch_edges -> same graph (covered above); the builder itself
        # is insensitive to how one fixed stream is chunked.
        batches = [
            (s.copy(), d.copy())
            for s, d in rmat_edge_batches(7, seed=3, batch_edges=700)
        ]
        rechunked_src = np.concatenate([s for s, _ in batches])
        rechunked_dst = np.concatenate([d for _, d in batches])

        def one_shot():
            yield rechunked_src, rechunked_dst

        def chunked():
            return iter([(s, d) for s, d in batches])

        g1 = build_csr_on_disk(
            one_shot, num_vertices=1 << 7, directory=tmp_path / "one"
        )
        g2 = build_csr_on_disk(
            chunked, num_vertices=1 << 7, directory=tmp_path / "many"
        )
        assert_graphs_equal(g1, g2)


class TestEngineOverMemmap:
    def test_serial_engine_matches_in_ram(self, tmp_path):
        in_ram = scalar_oracle.grid_graph(10, 10)
        write_store(in_ram, tmp_path / "store")
        mapped = load_csr(tmp_path / "store")
        partitioning = HashPartitioner().partition(in_ram, 3)
        ref = PregelEngine(in_ram, SSSP(source=0), partitioning).run()
        got = PregelEngine(mapped, SSSP(source=0), partitioning).run()
        assert np.array_equal(ref.values_array(), got.values_array())
        assert ref.stats == got.stats

    def test_parallel_engine_over_memmap(self, tmp_path):
        from repro.engine import parallel_execution_supported

        if not parallel_execution_supported():
            pytest.skip("fork start method unavailable")
        in_ram = scalar_oracle.grid_graph(10, 10)
        write_store(in_ram, tmp_path / "store")
        mapped = load_csr(tmp_path / "store")
        partitioning = HashPartitioner().partition(in_ram, 4)
        ref = PregelEngine(in_ram, PageRank(iterations=6), partitioning).run()
        with PregelEngine(
            mapped, PageRank(iterations=6), partitioning, execution="parallel"
        ) as engine:
            got = engine.run()
        assert np.array_equal(ref.values_array(), got.values_array())
        assert ref.stats == got.stats


class TestEdgeSourceSpill:
    """Per-edge source ids of a memory-mapped graph are spilled to disk
    once per *graph* (not per engine) and released explicitly."""

    @pytest.fixture()
    def spill_root(self, tmp_path, monkeypatch):
        import tempfile

        root = tmp_path / "tmp"
        root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(root))
        return root

    @staticmethod
    def spills(root):
        return sorted(root.glob("repro-edge-src-*"))

    def test_one_spill_for_three_engines_none_after_release(self, tmp_path, spill_root):
        import warnings

        in_ram = generators.community_graph(2000, num_communities=8, seed=3)
        write_store(in_ram, tmp_path / "store")
        mapped = load_csr(tmp_path / "store", mmap=True)
        partitioning = HashPartitioner().partition(in_ram, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            for _ in range(3):
                engine = PregelEngine(mapped, PageRank(iterations=4), partitioning)
                engine.step()
                engine.step()
                engine.close()
                assert len(self.spills(spill_root)) == 1
                del engine
            spill = self.spills(spill_root)[0]
            assert (spill / "edge_src.npy").stat().st_size >= 8 * mapped.num_edges
            assert is_memmap_backed(mapped.edge_sources())
            assert mapped.edge_sources() is mapped.edge_sources()
            mapped.release()
            assert self.spills(spill_root) == []
            mapped.release()  # idempotent
            import gc

            gc.collect()  # anything implicitly cleaned up would warn here

    def test_released_graph_derives_again_on_demand(self, tmp_path, spill_root):
        in_ram = scalar_oracle.grid_graph(8, 8)
        write_store(in_ram, tmp_path / "store")
        mapped = load_csr(tmp_path / "store", mmap=True)
        first = np.array(mapped.edge_sources())
        mapped.release()
        assert np.array_equal(mapped.edge_sources(), first)
        assert np.array_equal(first, in_ram.edge_sources())
        assert len(self.spills(spill_root)) == 1
        mapped.release()

    def test_garbage_collection_is_the_backstop(self, tmp_path, spill_root):
        import gc

        write_store(scalar_oracle.grid_graph(8, 8), tmp_path / "store")
        mapped = load_csr(tmp_path / "store", mmap=True)
        mapped.edge_sources()
        assert len(self.spills(spill_root)) == 1
        del mapped
        gc.collect()
        assert self.spills(spill_root) == []

    def test_in_ram_graph_never_touches_disk(self, spill_root):
        graph = scalar_oracle.grid_graph(8, 8)
        sources = graph.edge_sources()
        assert not is_memmap_backed(sources)
        assert np.array_equal(sources, graph.edge_array()[:, 0])
        assert self.spills(spill_root) == []
        graph.release()
        assert graph.edge_sources() is not sources


class TestMemmapLoaderPricing:
    def test_micro_loader_prices_by_bytes(self, tmp_path):
        graph = generators.community_graph(400, num_communities=4, seed=3)
        write_store(graph, tmp_path / "store")
        mapped = load_csr(tmp_path / "store")
        artefact = MicroPartitioner(num_micro_parts=16).build(graph, seed=1)
        timing = LoadTimingModel()
        loader = MicroLoader(artefact, timing)
        result = loader.load(mapped, 4, seed=1)
        assert result.simulated_seconds == pytest.approx(
            timing.micro_time_bytes(csr_nbytes(mapped), 4)
        )
        # size_override still wins over the memmap path.
        overridden = loader.load(mapped, 4, seed=1, size_override=(10**8, 10**6))
        assert overridden.simulated_seconds == pytest.approx(
            timing.micro_time(10**8, 10**6, 4)
        )
        # In-RAM graphs keep the historical edge/vertex pricing.
        in_ram = loader.load(graph, 4, seed=1)
        assert in_ram.simulated_seconds == pytest.approx(
            timing.micro_time(graph.num_edges, graph.num_vertices, 4)
        )


class TestMalformedStore:
    """A broken store is refused with one ValueError naming its directory."""

    @pytest.fixture()
    def store(self, tmp_path):
        directory = tmp_path / "rmat8"
        build_rmat_csr(8, directory, seed=3)
        return directory

    def test_manifest_without_weighted_key(self, store):
        meta = store / CSR_META_FILENAME
        manifest = json.loads(meta.read_text())
        del manifest["weighted"]
        meta.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=f"{store}.*'weighted'"):
            load_csr(store)

    @pytest.mark.parametrize("mmap", [True, False])
    def test_truncated_indices(self, store, mmap):
        indices = store / "indices.npy"
        with indices.open("r+b") as handle:
            handle.truncate(indices.stat().st_size - 64)
        with pytest.raises(ValueError, match=str(store)):
            load_csr(store, mmap=mmap)
