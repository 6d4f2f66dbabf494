"""Frozen outputs of the three set-up builders every run starts from.

A run's inputs are a synthetic spot market (evaluation and history
price traces), a seeded arrival trace and a graph with its offline
micro-partitioning.  These sha256 literals were captured before the
builders were vectorised, so that work can only change how long set-up
takes, never what it builds.  Each case digests raw array bytes (dtype
included), so a single flipped price bit, reordered CSR neighbour or
moved micro-partition fails it.  Two properties hold the vectorised
kernels to what they replaced on generated inputs: the spike overlay to
one ``np.linspace`` pair per spike, and ``stable_argsort`` to
``np.argsort(kind="stable")``.

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
from repro.graph.graph import from_edges, stable_argsort
from repro.graph.io import build_csr_on_disk, build_rmat_csr
from repro.load.trace import LoadTraceConfig, generate_trace
from repro.partitioning.micro import MicroPartitioner
from repro.utils.rng import derive_rng
from repro.utils.units import HOURS


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
    "quantised": LoadTraceConfig(seed=3, num_jobs=600, slack_quantum=0.05),
    "bursty": LoadTraceConfig(
        seed=17, num_jobs=800, burst_probability_per_hour=0.9, burst_rate_multiplier=6.0
    ),
}
LOAD_GOLDENS = {
    "default": "26b95c1ba498b0a0fa5b7b8df6bca7cfc93adff057e99074c014d9f73ad5afd2",
    "quantised": "d7739450b41adb2ae6516f2e1dd3c19244650c45a091d519e1e3a9714304a3c4",
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
    "random": lambda: generators.random_graph(3000, avg_degree=6, seed=5),
    "ring_of_cliques": lambda: generators.ring_of_cliques(9, 7),
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
