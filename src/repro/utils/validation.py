"""Small argument-validation helpers with consistent error messages."""

from __future__ import annotations

import math


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0`` and finite; return it."""
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Require ``value >= 0`` and finite; return it."""
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be a non-negative finite number, got {value!r}")
    return value


def check_fraction(name: str, value: float) -> float:
    """Require ``0 <= value <= 1``; return it."""
    if not math.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value!r}")
    return value


def check_time_window(release_time: float, deadline: float) -> None:
    """Require a finite *release_time* and a finite *deadline* after it."""
    for name, value in (("release_time", release_time), ("deadline", deadline)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")
    if deadline <= release_time:
        raise ValueError(f"deadline ({deadline}) must be after release ({release_time})")
