"""Deployment configurations and the configuration catalogue (§5.1).

A *deployment configuration* is a set of identical machines (type +
count) purchased on one market.  The paper's evaluation uses
homogeneous deployments of r4.2xlarge/r4.4xlarge/r4.8xlarge machines
with 16, 8 and 4 workers — pairing bigger machines with smaller counts
so every shape carries the same 128 vCPUs, differing in the number of
workers the synchronous engine must coordinate (hence in speed) and in
the spot market it draws from (hence in price and eviction risk).

:func:`default_catalog` builds that paired catalogue (each shape in both
markets).  :func:`full_grid_catalog` offers the full 3-types × 3-counts
grid for wider studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from repro.cloud.instance import (
    R4_2XLARGE,
    R4_4XLARGE,
    R4_8XLARGE,
    InstanceType,
    Market,
)


@dataclass(frozen=True)
class Configuration:
    """A deployment shape on a specific market."""

    instance_type: InstanceType
    num_workers: int
    market: Market

    def __post_init__(self):
        if self.num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {self.num_workers}")

    @cached_property
    def name(self) -> str:
        """Human-readable identifier (cached: it keys hot-path dicts)."""
        return f"{self.num_workers}x{self.instance_type.name}:{self.market.value}"

    @property
    def is_transient(self) -> bool:
        """Whether the deployment uses revocable (spot) machines."""
        return self.market is Market.SPOT

    @property
    def total_vcpus(self) -> int:
        """Aggregate vCPUs across the deployment."""
        return self.num_workers * self.instance_type.vcpus

    @property
    def on_demand_rate(self) -> float:
        """Dollars/hour for the whole deployment at list price."""
        return self.num_workers * self.instance_type.on_demand_price


def default_catalog() -> list[Configuration]:
    """The paper-style catalogue: equal-vCPU shapes, both markets.

    16×r4.2xlarge, 8×r4.4xlarge and 4×r4.8xlarge (128 vCPUs each), each
    available as a spot deployment and as an on-demand deployment.
    """
    shapes = [
        (R4_2XLARGE, 16),
        (R4_4XLARGE, 8),
        (R4_8XLARGE, 4),
    ]
    return [
        Configuration(itype, count, market)
        for itype, count in shapes
        for market in (Market.SPOT, Market.ON_DEMAND)
    ]


def full_grid_catalog(
    counts: Sequence[int] = (4, 8, 16),
    types: Sequence[InstanceType] = (R4_2XLARGE, R4_4XLARGE, R4_8XLARGE),
) -> list[Configuration]:
    """Every (type, count, market) combination — 9 shapes by default."""
    return [
        Configuration(itype, count, market)
        for itype in types
        for count in counts
        for market in (Market.SPOT, Market.ON_DEMAND)
    ]
