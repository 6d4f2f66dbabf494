"""Trace and market analytics: the statistics behind calibration.

Summarises a price trace or a whole market the way the paper's §8.1
characterises its historical month: mean discount versus on-demand,
volatility, spike (eviction-event) rate and duration, and uptime
distribution quantiles.  Used for validating synthetic traces against
calibration targets and for reporting on imported real traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cloud.instance import InstanceType
from repro.cloud.market import SpotMarket
from repro.cloud.trace import PriceTrace
from repro.utils.table import format_table
from repro.utils.units import HOURS


@dataclass(frozen=True)
class TraceSummary:
    """Descriptive statistics of one spot-price trace vs its list price."""

    instance_name: str
    mean_price: float
    on_demand_price: float
    mean_discount: float  # 1 - mean/od
    price_volatility: float  # std of log-price, per sqrt(hour)
    spike_rate_per_day: float  # excursions above the on-demand price
    mean_spike_minutes: float
    uptime_p50_hours: float
    uptime_p90_hours: float

    def as_row(self) -> dict:
        """Flatten to a plain dict for tabular reports."""
        return {
            "instance": self.instance_name,
            "mean_$/h": round(self.mean_price, 3),
            "discount%": round(100 * self.mean_discount, 1),
            "vol": round(self.price_volatility, 3),
            "spikes/day": round(self.spike_rate_per_day, 2),
            "spike_min": round(self.mean_spike_minutes, 1),
            "uptime_p50_h": round(self.uptime_p50_hours, 1),
            "uptime_p90_h": round(self.uptime_p90_hours, 1),
        }


def summarize_trace(trace: PriceTrace, instance: InstanceType) -> TraceSummary:
    """Compute the full summary for one trace."""
    od = instance.on_demand_price
    mean_price = trace.mean_price()

    # Volatility of hourly log-prices (ignoring spike excursions so the
    # number describes the calm regime the provisioner mostly sees).
    calm = trace.prices[trace.prices <= od]
    if len(calm) >= 2:
        logs = np.log(np.maximum(calm, 1e-9))
        step_hours = max(
            np.median(np.diff(trace.times)) / HOURS, 1e-9
        )
        volatility = float(np.std(np.diff(logs)) / np.sqrt(step_hours))
    else:
        volatility = 0.0

    above = trace.prices > od
    # Count excursions (runs of consecutive above-bid segments).
    starts = np.flatnonzero(above[1:] & ~above[:-1])
    num_spikes = int(len(starts) + (1 if len(above) and above[0] else 0))
    span_days = max((trace.end - trace.start) / (24 * HOURS), 1e-9)

    spike_seconds = 0.0
    if len(trace.times) >= 2:
        durations = np.diff(trace.times)
        spike_seconds = float(durations[above[:-1]].sum())
    mean_spike_minutes = (
        spike_seconds / num_spikes / 60.0 if num_spikes else 0.0
    )

    uptimes = trace.uptime_samples(bid=od)
    p50 = float(np.quantile(uptimes, 0.5)) / HOURS if len(uptimes) else 0.0
    p90 = float(np.quantile(uptimes, 0.9)) / HOURS if len(uptimes) else 0.0

    return TraceSummary(
        instance_name=instance.name,
        mean_price=mean_price,
        on_demand_price=od,
        mean_discount=1.0 - mean_price / od,
        price_volatility=volatility,
        spike_rate_per_day=num_spikes / span_days,
        mean_spike_minutes=mean_spike_minutes,
        uptime_p50_hours=p50,
        uptime_p90_hours=p90,
    )


def summarize_market(market: SpotMarket) -> list[TraceSummary]:
    """Summaries for every instance type's evaluation trace."""
    return [
        summarize_trace(market.traces[name], market.instances[name])
        for name in sorted(market.traces)
    ]


def market_report(market: SpotMarket) -> str:
    """Human-readable market characterisation table."""
    rows = [s.as_row() for s in summarize_market(market)]
    return format_table(rows, title="Spot market characterisation")
