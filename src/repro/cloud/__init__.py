"""Cloud substrate: instances, configurations, price traces, spot market."""

from repro.cloud.analytics import (
    TraceSummary,
    market_report,
    summarize_market,
    summarize_trace,
)
from repro.cloud.configuration import (
    Configuration,
    default_catalog,
    full_grid_catalog,
    on_demand_configs,
    transient_configs,
    worker_counts,
)
from repro.cloud.eviction import (
    EmpiricalEvictionModel,
    EvictionModel,
)
from repro.cloud.instance import (
    R4_2XLARGE,
    R4_4XLARGE,
    R4_8XLARGE,
    R4_FAMILY,
    InstanceType,
    Market,
    instance_by_name,
)
from repro.cloud.market import MarketStats, SpotMarket
from repro.cloud.trace import PriceTrace
from repro.cloud.trace_gen import generate_market_traces, generate_trace
from repro.cloud.trace_io import market_from_csv, read_trace_csv, write_trace_csv

__all__ = [
    "Configuration",
    "TraceSummary",
    "market_report",
    "summarize_market",
    "summarize_trace",
    "EmpiricalEvictionModel",
    "EvictionModel",
    "InstanceType",
    "Market",
    "MarketStats",
    "PriceTrace",
    "R4_2XLARGE",
    "R4_4XLARGE",
    "R4_8XLARGE",
    "R4_FAMILY",
    "SpotMarket",
    "default_catalog",
    "full_grid_catalog",
    "generate_market_traces",
    "generate_trace",
    "market_from_csv",
    "read_trace_csv",
    "write_trace_csv",
    "instance_by_name",
    "on_demand_configs",
    "transient_configs",
    "worker_counts",
]
