"""Serial-vs-parallel engine bit-identity and resource management.

The shared-memory multiprocess backend must be *observably identical*
to the serial engine: same vertex values, same per-superstep stats,
same superstep count — bit for bit — on every dense-capable algorithm.
Programs without a dense path transparently run the serial compute.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    CheckpointManager,
    DataStore,
    PregelEngine,
    parallel_execution_supported,
)
from repro.engine.algorithms import (
    SSSP,
    ConnectedComponents,
    InDegree,
    OutDegree,
    PageRank,
)
from repro.graph import generators
from repro.graph.graph import from_edges
from repro.partitioning.hashing import HashPartitioner
from tests import scalar_oracle

pytestmark = pytest.mark.skipif(
    not parallel_execution_supported(),
    reason="fork start method unavailable on this platform",
)


@pytest.fixture(scope="module")
def graph():
    return generators.rmat(8, seed=11)


@pytest.fixture(scope="module")
def partitioning(graph):
    return HashPartitioner().partition(graph, 4)


def run_both(graph, partitioning, make_program, **parallel_kwargs):
    serial = PregelEngine(graph, make_program(), partitioning).run()
    with PregelEngine(
        graph, make_program(), partitioning, execution="parallel", **parallel_kwargs
    ) as engine:
        parallel = engine.run()
    return serial, parallel


def assert_identical(serial, parallel, dtype=np.float64):
    assert serial.supersteps_run == parallel.supersteps_run
    assert serial.halted_normally == parallel.halted_normally
    assert np.array_equal(serial.values_array(dtype), parallel.values_array(dtype))
    assert serial.stats == parallel.stats


class TestBitIdentity:
    @pytest.mark.parametrize(
        "make_program,dtype",
        [
            (lambda: PageRank(iterations=10), np.float64),
            (lambda: SSSP(source=0), np.float64),
            (lambda: ConnectedComponents(), np.int64),
            (lambda: InDegree(), np.int64),
            (lambda: OutDegree(), np.int64),
        ],
        ids=["pagerank", "sssp", "wcc", "in-degree", "out-degree"],
    )
    def test_matches_serial(self, graph, partitioning, make_program, dtype):
        serial, parallel = run_both(graph, partitioning, make_program)
        assert_identical(serial, parallel, dtype)

    def test_weighted_sssp(self):
        rng = np.random.default_rng(3)
        src = rng.integers(0, 64, size=400)
        dst = rng.integers(0, 64, size=400)
        keep = src != dst
        weights = rng.uniform(0.1, 5.0, size=int(keep.sum()))
        graph = from_edges(
            src[keep], dst[keep], num_vertices=64, weights=weights, name="w"
        )
        partitioning = HashPartitioner().partition(graph, 3)
        serial, parallel = run_both(graph, partitioning, lambda: SSSP(source=0))
        assert_identical(serial, parallel)

    def test_sssp_long_frontier(self):
        # The rmat fixture's vertex 0 is edge-free (SSSP ends at once);
        # a grid drives a frontier across many supersteps.
        graph = scalar_oracle.grid_graph(12, 12)
        partitioning = HashPartitioner().partition(graph, 4)
        serial, parallel = run_both(graph, partitioning, lambda: SSSP(source=0))
        assert serial.supersteps_run > 5
        assert_identical(serial, parallel)

    def test_single_worker_partitioning(self, graph):
        partitioning = HashPartitioner().partition(graph, 1)
        serial, parallel = run_both(graph, partitioning, lambda: SSSP(source=0))
        assert_identical(serial, parallel)

    def test_more_processes_than_workers_is_capped(self, graph, partitioning):
        serial, parallel = run_both(
            graph, partitioning, lambda: PageRank(iterations=5), num_processes=32
        )
        assert_identical(serial, parallel)


class ObjectPageRank(PageRank):
    """PageRank over an ``object`` value array."""

    value_dtype = None


class TestFallback:
    def test_scalar_program_runs_serial_path(self, graph, partitioning):
        # Object values cannot live in shared memory: the parallel engine
        # must transparently compute serially and still be exact.
        serial = PregelEngine(graph, ObjectPageRank(iterations=5), partitioning).run()
        engine = PregelEngine(
            graph, ObjectPageRank(iterations=5), partitioning, execution="parallel"
        )
        parallel = engine.run()
        assert not engine.parallel_active
        assert serial.values == parallel.values
        assert serial.stats == parallel.stats

    def test_supported_predicate(self):
        assert not parallel_execution_supported(ObjectPageRank())
        assert parallel_execution_supported(PageRank())
        assert parallel_execution_supported(SSSP())

    def test_invalid_execution_mode_rejected(self, graph, partitioning):
        with pytest.raises(ValueError):
            PregelEngine(graph, SSSP(), partitioning, execution="distributed")


class TestLifecycle:
    def test_close_keeps_results_readable(self, graph, partitioning):
        engine = PregelEngine(
            graph, SSSP(source=0), partitioning, execution="parallel"
        )
        result = engine.run()
        engine.close()
        engine.close()  # idempotent
        after = engine.values()
        assert after == result.values
        # Further steps (none left, but the call path) run serially.
        assert not engine.parallel_active

    def test_context_manager(self, graph, partitioning):
        with PregelEngine(
            graph, SSSP(source=0), partitioning, execution="parallel"
        ) as engine:
            engine.run()
        assert not engine.parallel_active

    def test_checkpoint_across_modes(self):
        # Save mid-run from a parallel engine, restore into a serial one:
        # the finished results must match an uninterrupted serial run.
        graph = scalar_oracle.grid_graph(12, 12)
        partitioning = HashPartitioner().partition(graph, 4)
        reference = PregelEngine(graph, SSSP(source=0), partitioning).run()
        store = DataStore()
        with PregelEngine(
            graph, SSSP(source=0), partitioning, execution="parallel"
        ) as engine:
            manager = CheckpointManager(store, "cross-mode")
            engine.step()
            engine.step()
            manager.save(engine)
        resumed = PregelEngine(graph, SSSP(source=0), partitioning)
        manager.load_into(resumed)
        assert resumed.superstep == 2
        result = resumed.run()
        assert np.array_equal(
            reference.values_array(), result.values_array()
        )
        assert reference.stats == result.stats
