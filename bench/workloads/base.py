"""What every workload gives the runner.

A workload turns ``(seed, seconds)`` into generated inputs in
:meth:`setup`, drives the program through its public API in :meth:`run`
(the timed region) and then judges the outputs in :meth:`verify`.  Sizes
come from ``seconds`` through fixed per-second rates measured on the
2-core reference box, so the amount of work — and with it every
simulated outcome — is a pure function of the arguments, while the timed
region lasts about ``seconds`` there.
"""

from __future__ import annotations

#: The fixed experiment trace E (Granny protocol): one market for every
#: seed.  ``--seed`` redraws the tenants' side of the input — which job
#: takes which arrival slot, which template a burst request asks for,
#: the graph's edges — and never the market, because a fresh market
#: moves cost, miss rate and DP work by tens of percent, far outside any
#: bound a regression check could use.
MARKET_SEED = 42
MARKET_DAYS = 14

#: Graph every engine workload runs on (never cut to save time).
DATASET_SEED = 42
GRAPH_VERTICES = 60_000
GRAPH_COMMUNITIES = 64
GRAPH_AVG_DEGREE = 16
GRAPH_MIXING = 0.1
#: Worker counts a deployment can have (the catalogue's, plus 2).
WORKER_COUNTS = (2, 4, 8, 16)


def clustered_imbalance(graph, artefact, seed) -> float:
    """Worst max/average edge load over the worker counts, after
    clustering the micro-partitions (what the partitioner balances)."""
    from repro.partitioning.quality import edge_balance

    return max(
        edge_balance(graph, artefact.cluster(k, seed=seed)) for k in WORKER_COUNTS
    )


class Workload:
    """Base class; subclasses fill in the five hooks below."""

    name = ""
    #: set-up is repeated this many times and the median reported, where
    #: it is cheap enough; the last repeat's state is the one timed.
    setup_repeats = 1

    def __init__(self, seed: int, seconds: float, recorder):
        self.seed = seed
        self.seconds = seconds
        self.rec = recorder
        self.attempted = 0
        self.failed = 0
        #: checksums proving two runs saw the same generated load.
        self.inputs: dict = {}

    def targets(self) -> list:
        """``Instrument`` rows: the public callables a traced run wraps."""
        return []

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop whatever :meth:`setup` started (threads, loops, files)."""

    def verify(self) -> list[str]:
        """Correctness gates; returns one message per failed gate and
        sets :attr:`attempted` / :attr:`failed`."""
        raise NotImplementedError

    def results(self, wall_s: float) -> dict[str, float]:
        """The end-to-end metrics this workload exercises."""
        raise NotImplementedError

    def samples(self) -> dict[str, int]:
        """Sample count behind each reported percentile / median."""
        return {}

    def layers(self, view) -> dict[str, float]:
        """Per-layer metrics from a traced run (*view* is a
        :class:`bench.layers.TraceView`)."""
        return {}

    def layer_split(self, view) -> dict[str, dict[str, float]]:
        """Self seconds per layer for named subsets of the run's traces,
        where one table would average two regimes away."""
        return {}
