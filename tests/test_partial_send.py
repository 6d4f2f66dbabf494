"""A partial send, delivered and counted, against a per-edge rebuild.

A send from some but not all vertices with out-edges is built per sender
(each sender's id and out-degree, its messages repeated along its run of
edges), and the traffic counter's bitmap gives the inbox its destination
mask.  On random graphs with zero-degree vertices, weighted and not, over
random sender masks and id arrays and a traffic bitmap split into
blocks, one superstep's inbox bytes, inbox mask and ``(local, remote)``
count must equal a rebuild that walks every CSR edge and counts with the
sort-based oracle of ``tests/test_traffic_accounting.py``.

A partial send never reads the graph's per-edge source array, so an SSSP
run over a memory-mapped store leaves it unmade (and unspilled).
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import PregelEngine
from repro.engine import engine as engine_module
from repro.engine.algorithms import SSSP
from repro.engine.messages import MinCombiner, SumCombiner
from repro.engine.vertex import VertexProgram
from repro.graph.io import build_csr_on_disk, is_memmap_backed, load_csr
from repro.partitioning.base import Partitioning
from repro.partitioning.hashing import HashPartitioner
from tests.scalar_oracle import from_edges
from tests import scalar_oracle
from tests.test_traffic_accounting import sorted_count


class SendOnce(VertexProgram):
    """Superstep 0: *senders* send ``values`` (plus the edge weight)."""

    value_dtype = np.float64

    def __init__(self, combiner, senders, values, add_edge_weight):
        self.combiner = combiner
        self.senders = senders
        self.values = values
        self.add_edge_weight = add_edge_weight

    def initial_values(self, num_vertices):
        return np.zeros(num_vertices)

    def compute_dense(self, ctx):
        if ctx.superstep == 0:
            ctx.send_to_all_neighbors(self.senders, self.values, self.add_edge_weight)
        ctx.vote_to_halt(ctx.active)


@st.composite
def partial_sends(draw):
    n = draw(st.integers(2, 24))
    # Only some vertices get out-edges: the rest have degree zero.
    with_edges = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    m = draw(st.integers(1, 6 * n))
    src = draw(st.lists(st.sampled_from(with_edges), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    weighted = draw(st.booleans())
    weights = (
        draw(st.lists(st.floats(0.0, 8.0, width=32), min_size=m, max_size=m))
        if weighted
        else None
    )
    graph = from_edges(np.array(src), np.array(dst), num_vertices=n, weights=weights)
    workers = draw(st.integers(1, 5))
    owner = np.array(draw(st.lists(st.integers(0, workers - 1), min_size=n, max_size=n)))
    if draw(st.booleans()):
        senders = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    else:
        senders = np.array(draw(st.lists(st.integers(0, n - 1), max_size=2 * n)), dtype=np.int64)
    values = np.array(
        draw(st.lists(st.floats(-1e3, 1e3, width=32), min_size=n, max_size=n))
    )
    return {
        "graph": graph,
        "partitioning": Partitioning(assignment=owner, num_parts=workers),
        "senders": senders,
        "values": values,
        "add_edge_weight": draw(st.booleans()),
        "combiner": draw(st.sampled_from([SumCombiner, MinCombiner])),
        # Bitmap rows per block: 1 splits it per worker; 8 keeps it whole.
        "rows_per_block": draw(st.sampled_from([1, 2, 8])),
    }


def mask_of(case) -> np.ndarray:
    mask = np.zeros(case["graph"].num_vertices, dtype=bool)
    mask[case["senders"]] = True
    return mask


def rebuild(case):
    """Inbox values, inbox mask, ``(local, remote)`` and the number of
    messages, walked per edge."""
    graph, combiner = case["graph"], case["combiner"]
    n = graph.num_vertices
    mask = mask_of(case)
    src = scalar_oracle.edge_sources(graph)
    keep = mask[src]
    src, dst = src[keep], graph.indices[keep]
    msg = case["values"][src]
    if case["add_edge_weight"]:
        msg = msg + (1.0 if graph.weights is None else graph.weights[keep])
    values = np.full(n, combiner.identity, dtype=np.float64)
    combiner.ufunc.at(values, dst, msg)
    inbox_mask = np.zeros(n, dtype=bool)
    inbox_mask[dst] = True
    owner = case["partitioning"].assignment
    return values, inbox_mask, sorted_count(owner, src, dst), len(dst)


@settings(max_examples=150, deadline=None)
@given(partial_sends())
def test_partial_send_matches_the_per_edge_rebuild(case):
    graph = case["graph"]
    program = SendOnce(
        case["combiner"], case["senders"], case["values"], case["add_edge_weight"]
    )
    budget = case["rows_per_block"] * graph.num_vertices
    with mock.patch.object(engine_module, "_SLOT_BITMAP_BYTES", budget):
        engine = PregelEngine(graph, program, case["partitioning"])
        engine.step()
    values, mask, (local, remote), sent = rebuild(case)
    stats = engine.stats[0]
    assert (stats.messages_sent, stats.local_messages, stats.remote_messages) == (
        sent,
        local,
        remote,
    )
    got_values, got_mask = engine._incoming.dense_view()
    assert np.array_equal(got_mask, mask)
    assert got_values.tobytes() == values.tobytes()
    # Only a full broadcast (every vertex with out-edges sends) reads the
    # graph's per-edge sources.
    full = not ((graph.out_degrees() > 0) & ~mask_of(case)).any()
    assert (graph._edge_src is not None) == full


def test_sssp_over_a_memory_mapped_store_makes_no_edge_sources(tmp_path):
    in_ram = scalar_oracle.grid_graph(12, 12)
    batch = (scalar_oracle.edge_sources(in_ram), in_ram.indices, None)
    build_csr_on_disk(lambda: [batch], in_ram.num_vertices, tmp_path / "store")
    mapped = load_csr(tmp_path / "store", mmap=True)
    assert is_memmap_backed(mapped.indices)
    partitioning = HashPartitioner().partition(in_ram, 4)
    got = PregelEngine(mapped, SSSP(source=0), partitioning).run()
    assert mapped._edge_src is None
    want = PregelEngine(in_ram, SSSP(source=0), partitioning).run()
    assert got.values_array().tobytes() == want.values_array().tobytes()
    assert got.stats == want.stats
