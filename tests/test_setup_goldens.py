"""Frozen outputs of the three set-up builders every run starts from.

A run's inputs are a synthetic spot market (evaluation and history
price traces), a seeded arrival trace and a graph with its offline
micro-partitioning.  These sha256 literals were captured before the
builders were vectorised, so that work can only change how long set-up
takes, never what it builds; the parallel-edge merge's were captured
before the merge took ownership of its key array.  Each case digests
raw array bytes (dtype included), so a single flipped price bit,
reordered CSR neighbour or moved micro-partition fails it.  Properties
hold the kernels to what they replaced on generated inputs: the spike
overlay to one ``np.linspace`` pair per spike, ``stable_argsort`` to
``np.argsort(kind="stable")``, the merge to a sequential sum per key and
the ``dedup`` build to two stable sorts.

Re-freeze only with an explanation of why an input moved.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.instance import R4_FAMILY
from repro.cloud.market import SpotMarket
from repro.cloud.trace_gen import _overlay_spikes, generate_market_traces
from repro.graph import generators
from repro.graph.graph import merge_parallel_edges, stable_argsort
from repro.graph.io import build_csr_on_disk
from repro.load.trace import LoadTraceConfig, generate_trace
from repro.partitioning.micro import MicroPartitioner
from repro.utils.rng import derive_rng
from repro.utils.units import HOURS
from tests.scalar_oracle import from_edges
from tests import scalar_oracle
from tools.smoke import build_rmat_csr


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(array.dtype.str.encode())
        h.update(array.tobytes())
    return h.hexdigest()


def traces_digest(traces) -> str:
    return digest(
        *(a for name in sorted(traces) for a in (traces[name].times, traces[name].prices))
    )


def csr_digest(graph) -> str:
    arrays = [graph.indptr, graph.indices]
    if graph.weights is not None:
        arrays.append(graph.weights)
    return digest(*arrays)


# ----------------------------------------------------------------------
# Market synthesis
# ----------------------------------------------------------------------
# seed -> (duration, history_duration); the second case's durations are
# not multiples of the 60 s step.
MARKETS = {
    7: (14 * 24 * HOURS, 30 * 24 * HOURS),
    2019: (3 * 24 * HOURS + 1234.5, 5 * 24 * HOURS + 17.0),
}
# (evaluation traces, history traces, per-SKU mean price and MTTF)
MARKET_GOLDENS = {
    7: (
        "de8eec5cb00a7e5a16a00307da2980086145ee758aa406dfc44ce6e0bdad2959",
        "f0798cdb212f43db428e7cf04a13828bb0ce2868311fee0ab41e0db7bc584cad",
        "e3695a2896477091ceed9096149b35357d18b8b09320feec1ffea15b59ef67a8",
    ),
    2019: (
        "85e6ff3eb4f238c434807b2553e821f7633bf8a1be2ca6049d2a0b7423043508",
        "1da9d4b93b00961aabf658f1e4795185160d3c55a91f38063fc66ff3d94e90a6",
        "1246c05c3360854840b72ee64e337c192ef7de222b625f73d2deec614cbe6381",
    ),
}
# generate_market_traces at an off-grid duration, a non-default step and
# a non-zero start_time (SpotMarket.synthetic always starts at 0).
SHIFTED_MARKET = "1c1f9d541668abb7cae11d9557f2e54d70d53fbad9cc862be6177c4eaffe4135"


@pytest.mark.parametrize("seed", sorted(MARKETS))
def test_synthetic_market(seed):
    duration, history_duration = MARKETS[seed]
    market = SpotMarket.synthetic(
        R4_FAMILY, duration=duration, seed=seed, history_duration=history_duration
    )
    history = generate_market_traces(
        R4_FAMILY, duration=history_duration, seed=derive_rng(seed, "history")
    )
    stats = [market.stats_for(itype.name) for itype in R4_FAMILY]
    derived = np.array(
        [(s.mean_spot_price, s.eviction_model.mttf) for s in stats], dtype=np.float64
    )
    assert (
        traces_digest(market.traces),
        traces_digest(history),
        digest(derived),
    ) == MARKET_GOLDENS[seed]


def test_shifted_market_traces():
    traces = generate_market_traces(
        R4_FAMILY, duration=2 * 24 * HOURS + 45.25, step=90.0, seed=11, start_time=1234.5
    )
    assert traces_digest(traces) == SHIFTED_MARKET


def _overlay_oracle(prices, starts, widths, peaks, floor):
    """The per-spike overlay ``_overlay_spikes`` replaced: one linspace
    pair and one slice ``maximum`` per spike, in draw order."""
    for i0, width, peak in zip(starts, widths, peaks):
        rise = max(1, width // 3)
        profile = np.concatenate(
            [np.linspace(floor, peak, rise), np.linspace(peak, floor, width - rise + 1)[1:]]
        )
        prices[i0 : i0 + width] = np.maximum(prices[i0 : i0 + width], profile[:width])


@st.composite
def spike_sets(draw):
    n = draw(st.integers(1, 120))
    spikes = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(1, n),
                st.floats(1.1, 2.5, allow_nan=False),
            ),
            min_size=1,
            max_size=12,
        )
    )
    starts = [i0 for i0, _, _ in spikes]
    widths = [min(width, n - i0) for i0, width, _ in spikes]
    peaks = [0.6 * scale for _, _, scale in spikes]
    base = draw(st.lists(st.floats(0.0, 2.0, allow_nan=False), min_size=n, max_size=n))
    return np.array(base), starts, widths, peaks


@settings(max_examples=80, deadline=None)
@given(spike_sets())
def test_spike_overlay_matches_per_spike_linspace(case):
    base, starts, widths, peaks = case
    floor = 1.02 * 0.6
    expected = base.copy()
    _overlay_oracle(expected, starts, widths, peaks, floor)
    observed = base.copy()
    _overlay_spikes(observed, starts, widths, peaks, floor)
    assert observed.tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# Arrival traces
# ----------------------------------------------------------------------
LOAD_CONFIGS = {
    "default": LoadTraceConfig(),
    "bursty": LoadTraceConfig(
        seed=17, num_jobs=800, burst_probability_per_hour=0.9, burst_rate_multiplier=6.0
    ),
}
LOAD_GOLDENS = {
    "default": "26b95c1ba498b0a0fa5b7b8df6bca7cfc93adff057e99074c014d9f73ad5afd2",
    "bursty": "3bfbe2ec93cc3a1e57ca46a639ca48faf527266849a43278ae2d007952bf2ccc",
}


@pytest.mark.parametrize("label", sorted(LOAD_CONFIGS))
def test_arrival_trace_checksum(label):
    trace = generate_trace(LOAD_CONFIGS[label])
    assert trace.checksum() == LOAD_GOLDENS[label]
    # The checksum is sha256 of the canonical JSON of every job's fields.
    payload = json.dumps(
        [asdict(job) for job in trace.jobs], sort_keys=True, separators=(",", ":")
    )
    assert trace.checksum() == hashlib.sha256(payload.encode()).hexdigest()


# ----------------------------------------------------------------------
# CSR builds
# ----------------------------------------------------------------------
GRAPHS = {
    "community": lambda: generators.community_graph(
        6000, num_communities=16, avg_degree=12, mixing=0.1, seed=3
    ),
    "rmat": lambda: generators.rmat(12, edge_factor=8, seed=4),
    "random": lambda: scalar_oracle.random_graph(3000, avg_degree=6, seed=5),
    "ring_of_cliques": lambda: scalar_oracle.ring_of_cliques(9, 7),
}
GRAPH_GOLDENS = {
    "community": "4f4050b45b6ab852d714b0feac561c18627d91ffa7088c251092edf77efa3401",
    "rmat": "62194d63c97c2764df6fba013b86c0faca67675a1dfb162088915cb041491c2a",
    "random": "2f3d82e0a82967abc1059a2988726c7a612bdee6e7567e384ef8cf5848cae983",
    "ring_of_cliques": "029aef965aa4d8e2d651b6e4755d8798ccab7e91402b10db3c9db8ed2a86dd62",
}


@pytest.mark.parametrize("label", sorted(GRAPHS))
def test_generator_csr(label):
    assert csr_digest(GRAPHS[label]()) == GRAPH_GOLDENS[label]


def _weighted_multigraph():
    """500 vertices, 6 000 edges with repeats and self-loops, float weights."""
    rng = derive_rng(21, "setup-goldens-weighted")
    src = rng.integers(0, 500, size=6000)
    dst = rng.integers(0, 500, size=6000)
    weights = rng.random(6000)
    return src, dst, weights


WEIGHTED_FROM_EDGES = "4b7a9d73721a3a1ceb27271a002f6a99fdd712d4a9fe74855f11f95b4f4a4c3c"
WEIGHTED_DEDUP = "d38899b88b23d79bb4d65e4ac3ea454806f90030dc5f36bc21d6e97d067b198c"
WEIGHTED_UNDIRECTED = "e66216d7819053c3df824c6bf4805d107379027727ab49c108652fcf1a641b89"


def test_weighted_builds():
    src, dst, weights = _weighted_multigraph()
    graph = from_edges(src, dst, num_vertices=500, weights=weights)
    deduped = from_edges(src, dst, num_vertices=500, weights=weights, dedup=True)
    assert csr_digest(graph) == WEIGHTED_FROM_EDGES
    assert csr_digest(deduped) == WEIGHTED_DEDUP
    assert csr_digest(graph.undirected()) == WEIGHTED_UNDIRECTED


RMAT_STORE = "cdb8ee53293b930cf05c0b5c8c3f8f150ac9fea7924217c71ffe5599b23a2a14"
# Batch order per source, so the same bytes as the in-memory from_edges.
WEIGHTED_STORE = WEIGHTED_FROM_EDGES


def test_csr_stores(tmp_path):
    store = build_rmat_csr(11, tmp_path / "rmat", seed=6, batch_edges=5000, mmap=False)
    assert csr_digest(store) == RMAT_STORE

    src, dst, weights = _weighted_multigraph()

    def batches():
        for lo in range(0, len(src), 700):
            yield src[lo : lo + 700], dst[lo : lo + 700], weights[lo : lo + 700]

    store = build_csr_on_disk(batches, 500, tmp_path / "weighted", mmap=False)
    assert csr_digest(store) == WEIGHTED_STORE


# ----------------------------------------------------------------------
# The parallel-edge merge behind undirected(), contraction and quotients
# ----------------------------------------------------------------------
def _merge_keys(seed: int, n: int, size: int) -> np.ndarray:
    """``size`` edge keys over ``n`` vertices, with repeats."""
    return derive_rng(seed, "setup-goldens-merge").integers(0, n * n, size=size)


# (indptr, indices, merged) of each case.  Keys are built inline: the
# merge may reuse its key array.
MERGE_GOLDENS = {
    "unit": "00c5943b8534470b5610544628f0d52f40c3d2855ef9be7ae12cec8945904d09",
    "order-dependent": "d09492c4d1493f7db7a016afb2059234d676b9da16a2c0bdab8d38c13408e33d",
    "negative-zero": "4ee3eb651369686248156d50b54f54706a35808ccf75ef712f4796a6435d7443",
    "empty": "542f211f721b2e9b92d5a6ec3222f71a512a1810cd2769c902281d0aeba02063",
}


def test_merge_unit_weights():
    merged = merge_parallel_edges(_merge_keys(31, 400, 20000), np.ones(20000), 400)
    assert digest(*merged) == MERGE_GOLDENS["unit"]


def test_merge_sums_in_input_order():
    # Key 5 sums to 0.0 only in input order (1e16 + 1.0 rounds the 1.0
    # away); key 7 to 0.6000000000000001, not 0.6.
    merged = merge_parallel_edges(
        np.array([5, 7, 5, 9, 5, 7, 7, 0, 15, 0], dtype=np.int64),
        np.array([1e16, 0.1, 1.0, 3.5, -1e16, 0.2, 0.3, 1e-300, 2.0, -1e-300]),
        4,
    )
    assert digest(*merged) == MERGE_GOLDENS["order-dependent"]


def test_merge_negative_zero():
    merged = merge_parallel_edges(
        np.array([3, 1, 3, 2, 8], dtype=np.int64),
        np.array([-0.0, -0.0, -0.0, 0.0, -0.0]),
        3,
    )
    assert digest(*merged) == MERGE_GOLDENS["negative-zero"]


def test_merge_empty():
    merged = merge_parallel_edges(np.empty(0, dtype=np.int64), np.empty(0), 5)
    assert digest(*merged) == MERGE_GOLDENS["empty"]


def test_merge_counting_is_unit_weights():
    """``weights=None`` counts copies: the doubles of summing ones."""
    merged = merge_parallel_edges(_merge_keys(31, 400, 20000), None, 400)
    assert digest(*merged) == MERGE_GOLDENS["unit"]
    merged = merge_parallel_edges(np.empty(0, dtype=np.int64), None, 5)
    assert digest(*merged) == MERGE_GOLDENS["empty"]


def _merge_oracle(keys, weights, n):
    """Each distinct key's weights summed one by one in input order."""
    sums: dict[int, float] = {}
    for key, weight in zip(keys.tolist(), weights.tolist()):
        sums[key] = sums.get(key, 0.0) + weight
    distinct = sorted(sums)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount([k // n for k in distinct], minlength=n), out=indptr[1:])
    return indptr, np.array([k % n for k in distinct], dtype=np.int64), [sums[k] for k in distinct]


@st.composite
def weighted_keys(draw):
    n = draw(st.integers(1, 12))
    size = draw(st.integers(0, 60))
    keys = draw(st.lists(st.integers(0, n * n - 1), min_size=size, max_size=size))
    weights = draw(
        st.lists(
            st.sampled_from([1.0, -0.0, 0.1, 1e16, -1e16, 3.5, 1e-300]),
            min_size=size,
            max_size=size,
        )
    )
    return np.array(keys, dtype=np.int64), np.array(weights), n


@settings(max_examples=80, deadline=None)
@given(weighted_keys())
def test_merge_matches_sequential_sums(case):
    keys, weights, n = case
    indptr, indices, merged = _merge_oracle(keys, weights, n)
    observed = merge_parallel_edges(keys.copy(), weights, n)
    np.testing.assert_array_equal(observed[0], indptr)
    np.testing.assert_array_equal(observed[1], indices)
    assert np.asarray(observed[2], dtype=np.float64).tobytes() == np.array(
        merged, dtype=np.float64
    ).tobytes()


def _dedup_oracle(src, dst, n, weights):
    """``from_edges(..., dedup=True)`` as first written: a stable sort by
    source, then the first of each run of a stable sort by edge key."""
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    weights = None if weights is None else weights[order]
    if len(src):
        key = src * n + dst
        sort2 = np.argsort(key, kind="stable")
        key_sorted = key[sort2]
        keep_sorted = np.empty(len(key), dtype=bool)
        keep_sorted[0] = True
        keep_sorted[1:] = key_sorted[1:] != key_sorted[:-1]
        keep = np.zeros(len(key), dtype=bool)
        keep[sort2[keep_sorted]] = True
        src, dst = src[keep], dst[keep]
        weights = None if weights is None else weights[keep]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst, weights


@settings(max_examples=80, deadline=None)
@given(weighted_keys(), st.booleans())
def test_dedup_matches_two_stable_sorts(case, weighted):
    keys, weights, n = case
    src, dst = keys // n, keys % n
    weights = weights if weighted else None
    inputs = [a.copy() for a in (src, dst, weights) if a is not None]
    graph = from_edges(src, dst, num_vertices=n, weights=weights, dedup=True)
    # from_edges never writes to its inputs (only a private build owns arrays).
    assert all(
        np.array_equal(a, b) for a, b in zip(inputs, (src, dst, weights))
    )
    indptr, indices, kept = _dedup_oracle(src, dst, n, weights)
    np.testing.assert_array_equal(graph.indptr, indptr)
    np.testing.assert_array_equal(graph.indices, indices)
    if weighted:
        assert graph.weights.tobytes() == kept.tobytes()
    else:
        assert graph.weights is None


# ----------------------------------------------------------------------
# Offline micro-partitioning
# ----------------------------------------------------------------------
MICRO_64 = "f70e6e4755fcadf5964a7fe48174a161d27a5c3b5fe7280b277a5bbae4eb3a7d"


def test_micro_64():
    graph = generators.rmat(13, edge_factor=8, seed=8)
    artefact = MicroPartitioner(num_micro_parts=64).build(graph, seed=8)
    quotient = artefact.quotient
    assert (
        digest(
            artefact.micro.assignment,
            quotient.indptr,
            quotient.indices,
            quotient.weights,
            artefact.micro_vertex_weights,
        )
        == MICRO_64
    )


# ----------------------------------------------------------------------
# stable_argsort == np.argsort(kind="stable")
# ----------------------------------------------------------------------
@st.composite
def bounded_keys(draw):
    bound = draw(st.integers(1, 50))
    keys = draw(st.lists(st.integers(0, bound - 1), max_size=200))
    shape = draw(st.sampled_from(["as-drawn", "sorted", "reversed", "all-equal"]))
    if shape == "sorted":
        keys.sort()
    elif shape == "reversed":
        keys.sort(reverse=True)
    elif shape == "all-equal" and keys:
        keys = [keys[0]] * len(keys)
    return np.array(keys, dtype=np.int64), bound


@settings(max_examples=80, deadline=None)
@given(bounded_keys())
def test_stable_argsort_matches_numpy(case):
    keys, bound = case
    expected = np.argsort(keys, kind="stable")
    observed = stable_argsort(keys, bound)
    assert observed.dtype == np.int64
    np.testing.assert_array_equal(observed, expected)


@pytest.mark.parametrize(
    "keys",
    [[], [5], [3, 3, 3, 3], [0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 2, 1, 0, 2]],
    ids=["empty", "one", "all-equal", "sorted", "reversed", "mixed"],
)
@pytest.mark.parametrize("bound", [10, 2**62], ids=["composite", "fallback"])
def test_stable_argsort_edge_cases(keys, bound):
    keys = np.array(keys, dtype=np.int64)
    np.testing.assert_array_equal(
        stable_argsort(keys, bound), np.argsort(keys, kind="stable")
    )
