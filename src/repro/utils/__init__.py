"""Shared utilities: deterministic RNG plumbing, unit helpers, validation."""

from repro.utils.rng import derive_rng
from repro.utils.units import (
    GiB,
    HOURS,
    MINUTES,
    MiB,
    SECONDS,
    format_duration,
    format_money,
)
from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
)

__all__ = [
    "derive_rng",
    "SECONDS",
    "MINUTES",
    "HOURS",
    "MiB",
    "GiB",
    "format_duration",
    "format_money",
    "check_fraction",
    "check_non_negative",
    "check_positive",
]
