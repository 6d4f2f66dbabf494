"""Synthetic spot-price trace generation.

The paper replays Amazon's us-east-1 spot traces from October 2016
(historical statistics) and November 2016 (evaluation).  Those traces
are not redistributable, so this module generates statistically similar
ones: a **mean-reverting base price** around the instance's long-run
spot discount, punctuated by **demand spikes** that push the price above
the on-demand level — the events that evict instances bid at the
on-demand price (the paper's and our bidding policy).

The generator is seeded and produces an "October" trace (fed to the
eviction/price statistics) and a disjoint "November" trace (replayed by
the simulator) from different seeds, mirroring the paper's methodology.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cloud.instance import InstanceType
from repro.cloud.trace import PriceTrace
from repro.utils.rng import derive_rng
from repro.utils.units import HOURS

#: Price steps per pass of the log-price recursion (bounds the Python
#: floats alive at once; any value gives the same prices).
_AR_CHUNK = 4096


def generate_trace(
    instance: InstanceType,
    duration: float = 30 * 24 * HOURS,
    step: float = 60.0,
    seed=None,
    start_time: float = 0.0,
) -> PriceTrace:
    """Generate a synthetic spot-price trace for one instance type.

    Args:
        instance: the SKU; its ``spot_discount``, ``spot_volatility``,
            ``mean_spike_interval`` and ``mean_spike_duration`` calibrate
            the process.
        duration: trace length in seconds (default: 30 days).
        step: price change granularity in seconds.
        seed: RNG seed; same seed -> identical trace.
        start_time: timestamp of the first segment.

    Returns:
        A :class:`PriceTrace` whose price stays below the on-demand price
        in calm periods and exceeds it during spikes.
    """
    for label, value in (("duration", duration), ("step", step), ("start_time", start_time)):
        if not math.isfinite(value):
            raise ValueError(f"{label} must be finite, got {value!r}")
    if duration <= 0 or step <= 0:
        raise ValueError("duration and step must be positive")
    rng = derive_rng(seed, "trace", instance.name)
    n = max(2, int(duration / step))
    times = start_time + step * np.arange(n)

    # Mean-reverting log-price around the long-run discounted level: an
    # AR(1) recursion, so it runs over Python floats (the same IEEE
    # operations, in the same order, as indexing NumPy scalars, minus
    # their per-element overhead), a chunk at a time so that only
    # _AR_CHUNK float objects are alive at once.
    mean_log = float(np.log(instance.mean_spot_price))
    reversion = step / (6 * HOURS)  # pull back over ~6 hours
    vol = instance.spot_volatility * np.sqrt(step / HOURS)
    log_price = np.empty(n)
    x = log_price[0] = float(mean_log + instance.spot_volatility * rng.standard_normal())
    shocks = vol * rng.standard_normal(n - 1)
    for lo in range(0, n - 1, _AR_CHUNK):
        path = []
        for shock in shocks[lo : lo + _AR_CHUNK].tolist():
            x = x + reversion * (mean_log - x) + shock
            path.append(x)
        log_price[lo + 1 : lo + 1 + len(path)] = path
    prices = np.exp(log_price)
    # Calm-period prices never exceed 90 % of on-demand: evictions come
    # from spikes, not diffusion noise (matches observed market shape).
    prices = np.minimum(prices, 0.9 * instance.on_demand_price)

    # Overlay demand spikes: Poisson arrivals, exponential durations,
    # spike peak 1.1x-2.5x the on-demand price.
    starts, widths, peaks = [], [], []
    t = 0.0
    while True:
        t += rng.exponential(instance.mean_spike_interval)
        if t >= duration:
            break
        spike_len = max(step, rng.exponential(instance.mean_spike_duration))
        peak = instance.on_demand_price * rng.uniform(1.1, 2.5)
        i0 = int(t / step)
        width = min(n, int((t + spike_len) / step) + 1) - i0
        if width <= 0:
            continue
        starts.append(i0)
        widths.append(width)
        peaks.append(peak)
        t += spike_len
    if starts:
        _overlay_spikes(prices, starts, widths, peaks, 1.02 * instance.on_demand_price)

    return PriceTrace(times=times, prices=prices, instance_name=instance.name)


def _overlay_spikes(prices, starts, widths, peaks, floor: float) -> None:
    """Raise ``prices[start:start + width]`` to each spike's profile, in place.

    A spike ramps to its peak over its first third, then decays; the
    whole spike stays above the on-demand price (it is the eviction).
    Its profile is ``np.linspace(floor, peak, rise)`` followed by
    ``np.linspace(peak, floor, width - rise + 1)[1:]``; every spike's is
    computed in one pass with linspace's own arithmetic, sample ``i`` of
    a ramp being ``i * ((stop - start) / div) + start`` and its last
    sample exactly ``stop``, so the prices are those of one linspace pair
    per spike.  Overlapping spikes combine by ``max``, in any order.
    """
    widths = np.array(widths)
    spike = np.repeat(np.arange(len(widths)), widths)
    offset = np.arange(len(spike)) - np.repeat(np.cumsum(widths) - widths, widths)
    width = widths[spike]
    rise = np.maximum(1, width // 3)
    peak = np.array(peaks)[spike]
    up = offset < rise
    # Sample index and interval count within the ramp the offset lies on.
    i = np.where(up, offset, offset - rise + 1)
    div = np.where(up, rise - 1, width - rise)
    start = np.where(up, floor, peak)
    stop = np.where(up, peak, floor)
    values = i * ((stop - start) / np.maximum(div, 1)) + start
    last = (i == div) & (div > 0)
    values[last] = stop[last]
    np.maximum.at(prices, np.repeat(starts, widths) + offset, values)


def generate_market_traces(
    instances,
    duration: float = 30 * 24 * HOURS,
    step: float = 60.0,
    seed=None,
    start_time: float = 0.0,
) -> dict[str, PriceTrace]:
    """Generate one trace per instance type, with independent streams."""
    return {
        itype.name: generate_trace(
            itype, duration=duration, step=step, seed=derive_rng(seed, itype.name),
            start_time=start_time,
        )
        for itype in instances
    }
