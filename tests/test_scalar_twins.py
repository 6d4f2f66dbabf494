"""Every built-in program against its scalar twin, bit for bit.

``tests/scalar_oracle.py`` keeps a per-vertex twin of each built-in
program (``ScalarPageRank``, ``ScalarSSSP``, ``ScalarConnectedComponents``,
``ScalarInDegree``) and the per-vertex :class:`ScalarEngine` that runs
it.  Here each twin runs beside its dense program on generated graphs
over 1, 3 and 8 hash workers, and the two must agree on the bytes of the
final values and on every ``SuperstepStats`` record: once straight
through, and once resumed in a fresh engine from a full + delta
checkpoint chain written mid-run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import CheckpointManager, DataStore, PregelEngine
from repro.engine.algorithms import SSSP, PageRank
from repro.graph import generators
from repro.partitioning.hashing import HashPartitioner
from tests.scalar_oracle import from_edges
from tests.scalar_oracle import (
    ConnectedComponents,
    InDegree,
    ScalarConnectedComponents,
    ScalarEngine,
    ScalarInDegree,
    ScalarPageRank,
    ScalarSSSP,
)


def rmat():
    return generators.rmat(8, seed=2)  # dangling sources and sinks


def weighted():
    rng = np.random.default_rng(3)
    src = rng.integers(0, 200, size=1200)
    dst = rng.integers(0, 200, size=1200)
    keep = src != dst
    weights = rng.uniform(0.1, 4.0, size=int(keep.sum()))
    return from_edges(src[keep], dst[keep], num_vertices=200, weights=weights)


def hub(graph) -> int:
    return int(np.argmax(graph.out_degrees()))


# name -> (graph builder, dense program, scalar twin, supersteps at
# which the resumed runs save their full and their delta checkpoint),
# each program factory taking the graph.
TWINS = {
    "pagerank": (
        rmat,
        lambda g: PageRank(iterations=8),
        lambda g: ScalarPageRank(iterations=8),
        (2, 4),
    ),
    "sssp": (
        rmat,
        lambda g: SSSP(source=hub(g)),
        lambda g: ScalarSSSP(source=hub(g)),
        (1, 2),
    ),
    "sssp-weighted": (
        weighted,
        lambda g: SSSP(source=hub(g)),
        lambda g: ScalarSSSP(source=hub(g)),
        (1, 3),
    ),
    "wcc": (
        rmat,
        lambda g: ConnectedComponents(),
        lambda g: ScalarConnectedComponents(),
        (1, 2),
    ),
    "in-degree": (rmat, lambda g: InDegree(), lambda g: ScalarInDegree(), (0, 1)),
}


def straight(engine_class, graph, program, partitioning):
    return engine_class(graph, program, partitioning).run()


def resumed(engine_class, graph, make_program, partitioning, saves):
    """Run saving a full then a delta checkpoint at the supersteps in
    *saves*, then resume a fresh engine from the delta."""
    manager = CheckpointManager(DataStore(), "twins", keep_last=4, delta=True)
    engine = engine_class(graph, make_program(graph), partitioning)
    infos = []
    for superstep in saves:
        engine.run(max_supersteps=superstep)
        infos.append(manager.save(engine))
    assert [info.kind for info in infos] == ["full", "delta"]
    fresh = engine_class(graph, make_program(graph), partitioning)
    manager.load_into(fresh, infos[-1])
    assert fresh.superstep == saves[-1]
    return fresh.run()


def assert_same(dense, scalar):
    assert dense.values_array().tobytes() == scalar.values_array().tobytes()
    assert dense.stats == scalar.stats
    assert (dense.supersteps_run, dense.halted_normally) == (
        scalar.supersteps_run,
        scalar.halted_normally,
    )


@pytest.mark.parametrize("workers", [1, 3, 8])
@pytest.mark.parametrize("name", sorted(TWINS))
class TestScalarTwins:
    def test_straight_run(self, name, workers):
        make_graph, dense, scalar, _ = TWINS[name]
        graph = make_graph()
        partitioning = HashPartitioner().partition(graph, workers)
        want = straight(PregelEngine, graph, dense(graph), partitioning)
        assert any(s.messages_sent for s in want.stats)
        assert_same(want, straight(ScalarEngine, graph, scalar(graph), partitioning))

    def test_resumed_from_full_and_delta(self, name, workers):
        make_graph, dense, scalar, saves = TWINS[name]
        graph = make_graph()
        partitioning = HashPartitioner().partition(graph, workers)
        want = resumed(PregelEngine, graph, dense, partitioning, saves)
        assert want.supersteps_run > saves[-1]
        assert_same(want, resumed(ScalarEngine, graph, scalar, partitioning, saves))
        # Resuming changes nothing: the chain carries the whole state.
        assert_same(want, straight(PregelEngine, graph, dense(graph), partitioning))


@pytest.mark.parametrize("workers", [1, 3, 8])
def test_in_degree_resumed_past_its_last_working_superstep(workers):
    """In-degree works in supersteps 0 and 1 only: a chain saved at 1 and
    2 restores an engine with nothing left to run, which must halt at 2
    like the straight run, not run an empty third superstep."""
    graph = rmat()
    partitioning = HashPartitioner().partition(graph, workers)
    saves = (1, 2)
    want = resumed(PregelEngine, graph, lambda g: InDegree(), partitioning, saves)
    assert (want.supersteps_run, len(want.stats)) == (2, 2)
    assert_same(want, resumed(ScalarEngine, graph, lambda g: ScalarInDegree(), partitioning, saves))
    assert_same(want, straight(PregelEngine, graph, InDegree(), partitioning))
