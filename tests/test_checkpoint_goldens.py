"""Frozen checkpoint bytes and restores.

Captured while the engine could still read checkpoint formats 1/2 and
zlib/zstd envelopes, before those readers were deleted, so the deletion
can only change what the engine refuses to read, never what it writes or
what a restore yields.  For a PageRank and an SSSP chain (a full
checkpoint at superstep 2, then deltas at supersteps 3 and 4, serial, on
a 2k-vertex community graph) each test pins:

* the sha256 of every stored envelope's bytes, in write order;
* the sha256 of the values, halted flags and stats that a fresh engine
  holds after restoring each checkpoint.

Re-freeze only with an explanation of why a written byte moved.  The
envelope digests were re-frozen once, when the engine state lost its
unread keys: ``format``, ``num_vertices`` and ``prev_aggregates`` from a
full payload, ``prev_aggregates`` from a delta, and ``generic`` and
``count`` from the pending messages of both.  The delta digests moved
once more when a delta payload lost its ``kind`` key (the envelope's
``kind`` decides how a checkpoint composes).  Every restore digest is
the one frozen before.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.engine import DataStore, PregelEngine
from repro.engine.algorithms import SSSP, PageRank
from repro.engine.checkpoint import CheckpointManager
from repro.graph import generators
from repro.partitioning.multilevel import MultilevelPartitioner


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def graph():
    return generators.community_graph(
        2000, num_communities=8, avg_degree=10, mixing=0.1, seed=7
    )


@pytest.fixture(scope="module")
def four_way(graph):
    return MultilevelPartitioner().partition(graph, 4, seed=1)


def restored_digests(engine: PregelEngine) -> tuple[int, str, str, str]:
    stats = [dataclasses.astuple(s) for s in engine.stats]
    return (
        engine.superstep,
        sha(np.ascontiguousarray(engine._values).tobytes()),
        sha(np.ascontiguousarray(engine._halted).tobytes()),
        sha(repr(stats).encode()),
    )


def run_chain(graph, partitioning, make_program):
    """Envelope digests and per-checkpoint restore digests of one chain."""
    store = DataStore()
    manager = CheckpointManager(store, "golden", keep_last=10, delta=True)
    engine = PregelEngine(graph, make_program(), partitioning)
    engine.step()
    infos = []
    for _ in range(3):
        engine.step()
        infos.append(manager.save(engine))
    assert [(i.kind, i.superstep) for i in infos] == [
        ("full", 2), ("delta", 3), ("delta", 4),
    ]
    envelopes = [sha(store.get(info.key)) for info in infos]
    restores = []
    for info in infos:
        restored = PregelEngine(graph, make_program(), partitioning)
        manager.load_into(restored, info)
        restores.append(restored_digests(restored))
    return envelopes, restores


PAGERANK_ENVELOPES = [
    "2d709cd4b642edf77fcada673cacd226c263761493b8ca5c64bbddf8b26a5ad6",
    "4dd9c82ce8ffd7a8933d1b2789599e333a60fb084bae7bb4b791c0c8adba3aca",
    "a55799238cfe6b4e51dfdd243ff73a59695195f5e6eba92a0ba7c6b1539b2a00",
]
PAGERANK_RESTORES = [
    (
        2,
        "17abe79dea5e0207bf09daf291f2d9d2c8e104238ed9cbd2e59fe87974c8dd79",
        "2da42fb1d7bd8524e83d5a1e332bad697c8769ba430770a19bec630eb8ffcaa8",
        "2f7d7e495b665c915d0c4f04c0f9002dedaf3129145efac14b313f68f5e8e22e",
    ),
    (
        3,
        "ac7b6a19665ff4de3748d24115fe929cf5571c4c36d8454ce027ef0c31fcb25a",
        "2da42fb1d7bd8524e83d5a1e332bad697c8769ba430770a19bec630eb8ffcaa8",
        "fbb91d40865ee4b9ee486c854506c94a1591faf9c5dad066bd36d0afb02a5d72",
    ),
    (
        4,
        "886fd793c2a8ed64ab813bd2b642b0328e3c9be375c51167786600fa48a983f4",
        "2da42fb1d7bd8524e83d5a1e332bad697c8769ba430770a19bec630eb8ffcaa8",
        "65ab94617a8268c78fe13224baeec191761c4ccf7a8153a3e7070126424bc08d",
    ),
]
SSSP_ENVELOPES = [
    "cc8c140a533db6d11fd17791aafe03272862d5ad304ea36a0b1c811d55bb6640",
    "b10411a5a612ec2199fab7e9e37763a4bd456a5e52841493265220349f94d22e",
    "9485cc2a57359f6b88cc903c5c736b6c75beb7368c225dd56261cc1e54b72a5d",
]
SSSP_RESTORES = [
    (
        2,
        "3cb314f6f57a9324c9922e8632eae57b0c99ec9fa89df843b21761df14f65c4e",
        "236b232fb94678b33f7cfe5d9b11edf49949b02c5a5820277d2c7b6f65a12a55",
        "8d046230fe0490099c0d449390c57c1f391893070315926a50f4a688f37371f3",
    ),
    (
        3,
        "d0bd5f0f062f04aa6a37091454f724ee40a8d20b478eb28732eb9cf13fe011ff",
        "236b232fb94678b33f7cfe5d9b11edf49949b02c5a5820277d2c7b6f65a12a55",
        "7096c4c9a47e74a06223fcb8edf4ead6a6b4d38fa77e320899a4e50314dead3d",
    ),
    (
        4,
        "da14e98aa298c28c2aed58fb6a21043d42d836b81246c8faab9b584a38d91ad6",
        "236b232fb94678b33f7cfe5d9b11edf49949b02c5a5820277d2c7b6f65a12a55",
        "0191d8d11c826982470876ea14f4939cf3a310cf4746f09fcdfad26f01d8d59d",
    ),
]

CHAINS = {
    "pagerank": (lambda: PageRank(iterations=10), PAGERANK_ENVELOPES, PAGERANK_RESTORES),
    "sssp": (lambda: SSSP(source=0), SSSP_ENVELOPES, SSSP_RESTORES),
}


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_chain_bytes_and_restores(graph, four_way, name):
    make_program, envelopes, restores = CHAINS[name]
    observed_envelopes, observed_restores = run_chain(graph, four_way, make_program)
    assert observed_envelopes == envelopes
    assert observed_restores == restores
