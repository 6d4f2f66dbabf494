"""Unit conventions used throughout the library.

All simulated *time* is in **seconds** (floats), all *money* in **dollars**
and all *data sizes* in **bytes**.  The constants below exist so call sites
read naturally (``4 * HOURS``) instead of sprinkling magic numbers.
"""

from __future__ import annotations

SECONDS = 1.0
MINUTES = 60.0
HOURS = 3600.0

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB


def format_duration(seconds: float) -> str:
    """Human readable duration, e.g. ``format_duration(5400) == '1h30m'``."""
    if seconds < 0:
        return "-" + format_duration(-seconds)
    if seconds < MINUTES:
        return f"{seconds:.1f}s"
    if seconds < HOURS:
        whole_minutes, rem = divmod(seconds, MINUTES)
        if rem < 0.5:
            return f"{int(whole_minutes)}m"
        return f"{int(whole_minutes)}m{rem:.0f}s"
    whole_hours, rem = divmod(seconds, HOURS)
    rem_minutes = rem / MINUTES
    if rem_minutes < 0.5:
        return f"{int(whole_hours)}h"
    return f"{int(whole_hours)}h{rem_minutes:.0f}m"


def format_money(dollars: float) -> str:
    """Format a dollar amount with a sensible precision."""
    if abs(dollars) >= 100:
        return f"${dollars:,.0f}"
    return f"${dollars:,.2f}"
