"""Live-memory budget of the offline path: graph generation and the
micro-partition build.

Both run under ``tracemalloc``, which sees every NumPy array, and each
traced peak must stay under a fixed budget.  The numbers are a pure
function of the code and its inputs, so the test is deterministic: a
change that keeps a second edge-length copy alive where it used to free
it moves the peak by megabytes, and fails here.

The budgets sit about 10 % above this code's peaks; the implementation
they replaced peaked at 30.68 MB (generation) and 33.85 MB (build) on the
same inputs, and the build at 23.35 MB while coarsening levels held
``int64`` ids and ``float64`` weights.  Lower a budget when the code gets
leaner; raise one only with an explanation of what the extra memory buys.
The levels' own width is held separately: every level the micro build
retains costs at most 8 bytes per edge (``int32`` id and weight).
"""

from __future__ import annotations

import sys
import tracemalloc

import pytest

from repro.graph import generators
from repro.partitioning import multilevel
from repro.partitioning.micro import MicroPartitioner
from repro.utils.rng import derive_rng

#: Traced peaks, bytes: 8.28 MB and 14.26 MB at this code.
GENERATE_BUDGET = 9_100_000
BUILD_BUDGET = 15_700_000


def _traced_peak(fn):
    """``(fn(), peak bytes traced while it ran)``."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _index_line_tables():
    """Run a small build once under a no-op profiler.

    ``tracemalloc`` records the line of every allocation.  CPython 3.11
    finds it by scanning the code object's line table, unless profiling
    has built that table's index; a profiled pass over the same code
    builds it, which makes the traced build below two to three times
    faster without changing what it allocates.
    """
    small = generators.community_graph(2000, num_communities=32, avg_degree=16, seed=5)
    saved = sys.getprofile()
    sys.setprofile(lambda *args: None)
    try:
        MicroPartitioner(num_micro_parts=64).build(small, seed=5)
    finally:
        sys.setprofile(saved)


def _golden_graph():
    # The test_partition_goldens graph: 20 000 vertices, 316 324 edges.
    return generators.community_graph(
        20000, num_communities=32, avg_degree=16, mixing=0.1, seed=5
    )


@pytest.fixture(scope="module")
def peaks():
    _index_line_tables()
    graph, generate = _traced_peak(_golden_graph)
    _, build = _traced_peak(lambda: MicroPartitioner(num_micro_parts=64).build(graph, seed=5))
    return generate, build


def test_generation_peak(peaks):
    assert peaks[0] < GENERATE_BUDGET


def test_micro_build_peak(peaks):
    assert peaks[1] < BUILD_BUDGET


def test_level_bytes_per_edge():
    """Every level a micro-64 build holds until uncoarsening, the finest
    included, stores an edge in at most 8 bytes (16 with int64 ids and
    float64 weights)."""
    partitioner = MicroPartitioner(num_micro_parts=64).base
    current = partitioner._to_wgraph(_golden_graph(), None)
    rng = derive_rng(5, "multilevel", 0)
    levels = 0
    while current.num_vertices > max(multilevel.COARSEN_UNTIL, 20 * 64):
        assert current.indices.nbytes + current.ewgts.nbytes <= 8 * len(current.indices)
        cmap, num_coarse = multilevel._heavy_edge_matching(current, rng)
        current = multilevel._contract(current, cmap, num_coarse)
        levels += 1
    assert current.indices.nbytes + current.ewgts.nbytes <= 8 * len(current.indices)
    assert levels >= 3
