"""Frozen timing estimates of both performance models, the loaders and the store.

Every number the provisioner reads about a configuration's fixed phases
(``load_time``, ``save_time``, ``setup_time``, ``fixed_time``), its
speed (``exec_time``, and the capacity ratio the DP divides by) and
its progress curve
(``work_fraction_done``) is hashed here as ``float.hex`` text, so a
refactor of the timing code can only pass by producing the same floats,
operation for operation.  Families:

* the analytic :class:`PerformanceModel` of each paper profile under
  both reload modes, over every catalogue shape, plus
  ``partition_compute_time()``;
* the calibrated :class:`MechanisticPerformanceModel` of the ops smoke's
  runtime (its last-resort name and per-superstep work fractions too);
* every Fig 6 cell;
* the loaders' simulated seconds (text, binary and on-disk pricing) and
  ``DataStore().transfer_time``.

Re-freeze only with an explanation of why a simulated time moved.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cloud import default_catalog
from repro.cloud.configuration import full_grid_catalog
from repro.cloud.instance import R4_FAMILY
from repro.cloud.market import SpotMarket
from repro.core import SpotOnProvisioner
from repro.core.job import PAPER_PROFILES
from repro.core.perfmodel import (
    RELOAD_FULL,
    RELOAD_MICRO,
    PerformanceModel,
    last_resort,
)
from repro.engine import DataStore, HashLoader
from repro.engine.algorithms import PageRank
from repro.experiments import fig6_loading
from repro.graph import generators
from repro.graph.io import build_csr_on_disk
from repro.runtime import HourglassRuntime
from repro.utils.units import HOURS

PHASES = ("exec_time", "load_time", "save_time", "setup_time", "fixed_time")


def digest(values) -> str:
    text = "\n".join(float(v).hex() for v in values)
    return hashlib.sha256(text.encode()).hexdigest()


def catalog():
    shapes = {c.name: c for c in (*default_catalog(), *full_grid_catalog())}
    return [shapes[name] for name in sorted(shapes)]


def capacity(perf, config) -> float:
    """omega_c = t_exec(reference) / t_exec(c)."""
    return perf.exec_time(perf.reference) / perf.exec_time(config)


def phase_values(perf, configs):
    return [
        value
        for c in configs
        for value in (*(getattr(perf, phase)(c) for phase in PHASES), capacity(perf, c))
    ]


@pytest.fixture(scope="module")
def runtime():
    """The ``smoke ops`` engine run's runtime (calibration only)."""
    market = SpotMarket.synthetic(
        R4_FAMILY, duration=24 * HOURS, seed=2, history_duration=24 * HOURS
    )
    graph = generators.community_graph(400, num_communities=8, avg_degree=8, seed=7)
    return HourglassRuntime(
        graph,
        lambda: PageRank(iterations=8),
        market,
        default_catalog(),
        SpotOnProvisioner(),
        num_micro_parts=16,
        seed=2,
        time_scale=3000.0,
        data_scale=20_000,
    )


ANALYTIC = {
    "coloring": {
        RELOAD_MICRO: "f5e513dab206363882d4cce2abf8fba09673483122c376c0b60152efa1328230",
        RELOAD_FULL: "4f90ddd5852892a229f06cd6312bed45674a07d1a1644146c4ff1f6eae699c49",
    },
    "pagerank": {
        RELOAD_MICRO: "40acdb71fb8585a7246357f5c2c0b2862c6edc1ab8c562eab5f30b93f8b9cf2d",
        RELOAD_FULL: "16345631a08580c95be73228ec500d6e16d027bf1e5961578a9e20c313a5f97e",
    },
    "sssp": {
        RELOAD_MICRO: "251a75c99f9bc38df3cd4d9ca7f35806091bdbc084b56c25db615f6b32197b47",
        RELOAD_FULL: "2f1bfb1de843c2d36cf692c2d870a889ce53ecb56a73e08c76620faf3e108dfc",
    },
}
PARTITION_COMPUTE = "02a9fd1a9e02e3846bdfbeb21bec682ffbf8a9210fdec6863220375633fd0a05"
MECHANISTIC_LRC = "4xr4.8xlarge:on-demand"
MECHANISTIC = "b847fceec326a32d07d2313f567f988f2280233015c32f5ac8fd4b90ad1ead5d"
WORK_FRACTIONS = "bca00b5c56a44e4d21aad81c6bea3490d9bcd458a37d2bffd1434b16d5125f67"
FIG6 = "6482678f2e5a201933b4240453c01bb191d512161658897d62d6ff83acbcde92"
LOADERS = "ca3d0e35cc95dcb02e61c5526c7bc102e3798d0cbb07dfbb30202b780da33895"
TRANSFER = "e6189ab0f273303093126804dfe4d2a6cbadde8010094a090892cdd56012c57b"


@pytest.mark.parametrize("mode", [RELOAD_MICRO, RELOAD_FULL])
@pytest.mark.parametrize("name", sorted(PAPER_PROFILES))
def test_analytic_model(name, mode):
    profile = PAPER_PROFILES[name]
    factory = lambda ref: PerformanceModel(profile=profile, reference=ref, reload_mode=mode)  # noqa: E731
    lrc = last_resort(catalog(), factory)
    assert digest(phase_values(factory(lrc), catalog())) == ANALYTIC[name][mode]


def test_partition_compute_time():
    values = []
    for name in sorted(PAPER_PROFILES):
        profile = PAPER_PROFILES[name]
        perf = PerformanceModel(profile=profile, reference=default_catalog()[1])
        values.append(perf.partition_compute_time())
    assert digest(values) == PARTITION_COMPUTE


def test_mechanistic_model(runtime):
    assert runtime.lrc.name == MECHANISTIC_LRC
    assert digest(phase_values(runtime.perf, catalog())) == MECHANISTIC


def test_work_fraction_per_superstep(runtime):
    steps = range(runtime.perf.total_supersteps + 2)
    assert digest(runtime.perf.work_fraction_done(k) for k in steps) == WORK_FRACTIONS


def test_fig6_cells():
    cells = fig6_loading.run()
    assert len(cells) == 60
    assert (cells[0].dataset, cells[0].machines, cells[0].strategy) == ("orkut", 2, "stream")
    assert (cells[-1].dataset, cells[-1].machines, cells[-1].strategy) == ("twitter", 16, "micro")
    assert digest(c.seconds for c in cells) == FIG6


def test_loader_pricing(runtime, tmp_path):
    graph = runtime.graph
    mapped = build_csr_on_disk(
        lambda: [(graph.edge_sources(), graph.indices, graph.weights)],
        graph.num_vertices,
        tmp_path / "store",
    )
    values = []
    for workers in (1, 2, 4, 8, 16):
        for size in (None, (10**9, 10**7), (1_468_365_182, 41_652_230)):
            values.append(
                HashLoader().load(graph, workers, size_override=size).simulated_seconds
            )
            values.append(
                runtime.loader.load(
                    graph, workers, seed=2, size_override=size
                ).simulated_seconds
            )
        values.append(runtime.loader.load(mapped, workers, seed=2).simulated_seconds)
    assert digest(values) == LOADERS


def test_datastore_transfer_time():
    store = DataStore()
    values = [
        store.transfer_time(nbytes, machines)
        for nbytes in (0, 1, 4096, 10**6, 123_456_789, 10**10)
        for machines in (1, 2, 4, 8, 16)
    ]
    assert digest(values) == TRANSFER
