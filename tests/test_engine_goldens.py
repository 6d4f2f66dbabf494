"""Frozen engine, partitioner and runtime outputs.

Captured at the commit *before* the engine/reload-path optimisation
(sort-free traffic count, per-graph edge sources, memoised clustering,
plane-wise checkpoint codec, faster ``_refine``) so that work can only
change how long things take, never what they compute.  Three families:

* the full per-superstep ``(active, sent, local, remote)`` sequence of
  three dense programs;
* sha256 of partition assignments (the other partitioning tests only
  bound edge cuts, so an output-changing "optimisation" would pass them);
* one ``HourglassRuntime.execute`` battered by two real evictions.

Re-freeze only with an explanation of why a simulated quantity moved.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.cloud import default_catalog
from repro.core import HourglassProvisioner
from repro.engine import PregelEngine
from repro.engine.algorithms import SSSP, PageRank
from repro.graph import generators
from repro.partitioning.micro import MicroPartitioner
from repro.partitioning.multilevel import MultilevelPartitioner
from repro.runtime import HourglassRuntime
from repro.utils.units import HOURS
from tests.scalar_oracle import ConnectedComponents


def sha(array, dtype=np.int64) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=dtype).tobytes()).hexdigest()


@pytest.fixture(scope="module")
def graph():
    g = generators.community_graph(
        2000, num_communities=8, avg_degree=10, mixing=0.1, seed=7
    )
    assert (g.num_vertices, g.num_edges) == (2000, 19638)
    return g


@pytest.fixture(scope="module")
def four_way(graph):
    return MultilevelPartitioner().partition(graph, 4, seed=1)


# (active, sent, local, remote) per superstep.
PAGERANK_STATS = [(2000, 19638, 1996, 2011)] * 10 + [(2000, 0, 0, 0)]
SSSP_STATS = [
    (2000, 11, 10, 1),
    (11, 117, 93, 9),
    (101, 1044, 387, 102),
    (474, 3958, 1290, 543),
    (1490, 10565, 1746, 1309),
    (1832, 3938, 1238, 537),
    (1323, 5, 4, 1),
    (5, 0, 0, 0),
]
WCC_STATS = [
    (2000, 19638, 1996, 2011),
    (2000, 18068, 1994, 1912),
    (2000, 17368, 1986, 1855),
    (1994, 15427, 1970, 1716),
    (1984, 13495, 1767, 1507),
    (1839, 3938, 1238, 537),
    (1323, 5, 4, 1),
    (5, 0, 0, 0),
]

PROGRAMS = {
    "pagerank": (lambda: PageRank(iterations=10), PAGERANK_STATS),
    "sssp": (lambda: SSSP(source=0), SSSP_STATS),
    "wcc": (ConnectedComponents, WCC_STATS),
}


class TestSuperstepStatsGoldens:
    @pytest.mark.parametrize(
        "name", sorted(PROGRAMS), ids=lambda name: f"serial-{name}"
    )
    def test_traffic_sequence(self, graph, four_way, name):
        make_program, expected = PROGRAMS[name]
        result = PregelEngine(graph, make_program(), four_way).run()
        observed = [
            (s.active_vertices, s.messages_sent, s.local_messages, s.remote_messages)
            for s in result.stats
        ]
        assert observed == expected
        assert [s.remote_bytes for s in result.stats] == [8 * r for *_, r in expected]


class TestPartitionGoldens:
    def test_four_way_fixture(self, four_way):
        assert sha(four_way.assignment) == (
            "1d9503476bd522e2db13475c43d25781ea13428d168d75c871c84724c5ce2557"
        )

    def test_multilevel_eight_way(self, graph):
        assignment = MultilevelPartitioner().partition(graph, 8, seed=3).assignment
        assert sha(assignment) == (
            "cec82002a7618668b24de5aeb01ec608d68c7c2ae780b94c407f0ddf62f19823"
        )

    def test_micro_build_and_clusterings(self, graph):
        artefact = MicroPartitioner(num_micro_parts=16).build(graph, seed=3)
        assert sha(artefact.micro.assignment) == (
            "04a2c9f00acb58f7300caca0bba4bc301860c19a5510031b4e89f264dd7f1ebb"
        )
        expected = {
            2: "4b6f4850fa86f92b36b719caee2c433ede73cab782f39e645e05d40d7be988fa",
            4: "74f26d607c52a24eb0dcb28140b1125700a26a1b03d2eebaf90b958ed7560b9f",
            8: "53f97a43f0acb0814ea965b0495f0158beb8bbe305db7b0c0fd5a1de6e2ec5d5",
        }
        for k, digest in expected.items():
            assert sha(artefact.cluster(k, seed=3).assignment) == digest


class TestRuntimeGolden:
    def test_execute_through_two_evictions(self, long_market):
        graph = generators.community_graph(
            1500, num_communities=12, avg_degree=12, seed=4
        )
        runtime = HourglassRuntime(
            graph,
            lambda: PageRank(iterations=12),
            long_market,
            tuple(default_catalog()),
            HourglassProvisioner(),
            num_micro_parts=32,
            seed=2,
            time_scale=3000.0,
            data_scale=20_000,
        )
        lrc = runtime.lrc
        budget = runtime.perf.fixed_time(lrc) + 1.5 * runtime.perf.exec_time(lrc)
        assert budget == pytest.approx(8865.322507605748, rel=1e-12)
        release = 51 * HOURS
        result = runtime.execute(release, release + budget)
        assert (result.evictions, result.deployments) == (2, 6)
        assert not result.missed_deadline
        assert result.cost == pytest.approx(4.175288344128197, rel=1e-12)
        assert [e.kind for e in result.events].count("checkpoint") == 12
        values = [result.values[v] for v in range(graph.num_vertices)]
        assert sha(values, dtype=np.float64) == (
            "2aee534ff35efdd52ff6bd7d02d9f3e3cb1435c6f29e47381c290434c6ae5b12"
        )
