"""Billing: price integration and machine-second accounting.

The lifecycle loop never talks to the market's pricing directly; it
routes every billed interval through a :class:`BillingMeter`, which owns
the cumulative bill plus the spot/on-demand machine-second split that
reports and ablations consume.  Keeping this in one object (rather than
a closure in each loop) is what lets the runtime report the same
accounting fields as the simulator.
"""

from __future__ import annotations

from repro.cloud.configuration import Configuration
from repro.cloud.market import SpotMarket


class BillingMeter:
    """Integrates market prices over billed machine time.

    Args:
        market: the replayed spot market (on-demand machines are billed
            at list price by the market itself).
    """

    def __init__(self, market: SpotMarket):
        self.market = market
        self.cost = 0.0
        self.spot_seconds = 0.0
        self.on_demand_seconds = 0.0

    def bill(self, config: Configuration, t0: float, t1: float) -> float:
        """Bill *config* for [t0, t1); returns the dollars added."""
        if t1 <= t0:
            return 0.0
        if config.is_transient:
            self.spot_seconds += (t1 - t0) * config.num_workers
        else:
            self.on_demand_seconds += (t1 - t0) * config.num_workers
        added = self.market.cost(config, t0, t1)
        self.cost += added
        return added
