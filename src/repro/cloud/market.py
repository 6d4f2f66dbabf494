"""The spot market simulator: prices, evictions and historical stats.

:class:`SpotMarket` bundles one :class:`PriceTrace` per instance type
(the "November" evaluation trace) plus per-type historical statistics
derived from a disjoint "October" trace — eviction models and mean spot
prices — which is all the information the provisioning strategies are
allowed to see, mirroring the paper's methodology (§8.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cloud.configuration import Configuration, Market
from repro.cloud.eviction import EmpiricalEvictionModel, EvictionModel
from repro.cloud.instance import InstanceType
from repro.cloud.trace import PriceTrace
from repro.cloud.trace_gen import generate_market_traces
from repro.utils.rng import derive_rng
from repro.utils.units import HOURS


@dataclass(frozen=True)
class MarketStats:
    """Historical statistics for one instance type's spot market."""

    mean_spot_price: float
    eviction_model: EvictionModel


class SpotMarket:
    """Replayable market: evaluation traces + historical statistics.

    The bidding policy is fixed to *bid = on-demand price* (§7): an
    instance is evicted exactly when its market price exceeds its
    on-demand price, and while running it is billed at the market price.
    """

    def __init__(
        self,
        traces: dict[str, PriceTrace],
        stats: dict[str, MarketStats],
        instances: dict[str, InstanceType],
    ):
        missing = set(instances) - set(traces)
        if missing:
            raise ValueError(f"missing traces for instance types: {sorted(missing)}")
        missing_stats = set(instances) - set(stats)
        if missing_stats:
            raise ValueError(f"missing stats for instance types: {sorted(missing_stats)}")
        self.traces = traces
        self._stats = stats
        self.instances = instances

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def synthetic(
        cls,
        instances,
        duration: float = 30 * 24 * HOURS,
        seed=None,
        history_duration: float = 30 * 24 * HOURS,
    ) -> "SpotMarket":
        """Generate a fully synthetic market.

        Two disjoint trace sets are generated: a *history* (the paper's
        October) from which eviction models and mean prices are derived,
        and the *evaluation* trace (November) that the simulator replays.
        """
        history = generate_market_traces(
            instances, duration=history_duration, seed=derive_rng(seed, "history")
        )
        evaluation = generate_market_traces(
            instances, duration=duration, seed=derive_rng(seed, "evaluation")
        )
        stats = {}
        for itype in instances:
            trace = history[itype.name]
            stats[itype.name] = MarketStats(
                mean_spot_price=trace.mean_price(),
                eviction_model=EmpiricalEvictionModel.from_trace(
                    trace, bid=itype.on_demand_price
                ),
            )
        return cls(
            traces=evaluation,
            stats=stats,
            instances={itype.name: itype for itype in instances},
        )

    # ------------------------------------------------------------------
    # Observables at simulation time
    # ------------------------------------------------------------------
    @property
    def horizon(self) -> float:
        """Latest time covered by every evaluation trace."""
        return min(trace.end for trace in self.traces.values())

    @property
    def start(self) -> float:
        """Earliest covered timestamp."""
        return max(trace.start for trace in self.traces.values())

    def spot_price(self, instance_name: str, t: float) -> float:
        """Current spot price ($/machine-hour) for one SKU."""
        return self.traces[instance_name].price_at(t)

    def config_rate(self, config: Configuration, t: float) -> float:
        """Deployment price ($/hour) at time *t* on the config's market."""
        if config.market is Market.ON_DEMAND:
            return config.on_demand_rate
        return config.num_workers * self.spot_price(config.instance_type.name, t)

    def config_rates(self, catalog, t: float) -> np.ndarray:
        """Deployment prices for a whole catalogue at time *t*.

        The per-decision rate snapshot of the provisioning estimators:
        one dense array over the catalogue, ``result[i] ==
        config_rate(catalog[i], t)``.
        """
        return np.array(
            [self.config_rate(config, t) for config in catalog], dtype=np.float64
        )

    def eviction_time(self, config: Configuration, start: float) -> float | None:
        """When a deployment started at *start* would be evicted.

        On-demand deployments are never evicted.  Spot deployments are
        evicted at the first instant the market price exceeds the
        on-demand price (the bid).  None = survives to the trace horizon.
        """
        if config.market is Market.ON_DEMAND:
            return None
        trace = self.traces[config.instance_type.name]
        crossing = trace.next_crossing_above(start, config.instance_type.on_demand_price)
        return crossing

    def usable_at(self, config: Configuration, t: float) -> bool:
        """Whether the config can be provisioned at time *t*.

        A spot deployment cannot be requested while its market price
        exceeds the bid.
        """
        if config.market is Market.ON_DEMAND:
            return True
        return (
            self.spot_price(config.instance_type.name, t)
            <= config.instance_type.on_demand_price
        )

    def cost(self, config: Configuration, t0: float, t1: float) -> float:
        """Dollars billed for running *config* over ``[t0, t1]``."""
        if t1 < t0:
            raise ValueError(f"t1={t1} < t0={t0}")
        if config.market is Market.ON_DEMAND:
            return config.on_demand_rate * (t1 - t0) / HOURS
        trace = self.traces[config.instance_type.name]
        return config.num_workers * trace.integrate(t0, t1)

    # ------------------------------------------------------------------
    # Historical statistics (what provisioners may consult)
    # ------------------------------------------------------------------
    def stats_for(self, instance_name: str) -> MarketStats:
        """Historical statistics for one instance type."""
        return self._stats[instance_name]

    def eviction_model(self, config: Configuration) -> EvictionModel:
        """Eviction model of the config's instance type (spot only)."""
        if config.market is Market.ON_DEMAND:
            raise ValueError("on-demand configurations have no eviction model")
        return self._stats[config.instance_type.name].eviction_model
