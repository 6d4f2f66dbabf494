"""Seeded arrival-trace generation for the load harness.

The workload model is the production shape the ROADMAP asks for:

* **Poisson arrivals** thinned against a time-varying rate —
  a diurnal sinusoid (quiet nights, busy afternoons) times a burst
  process (short windows where the offered rate multiplies, the
  "everyone reruns their analysis after the data lands" spikes).
* **Mixed tenants and jobs** — every arrival is one tenant submitting
  one time-constrained graph job: an application from the paper's
  profile set, a graph-size scale factor, a slack fraction and a
  recurrence period, drawn from the config's mixes and from
  :data:`PERIODS_S`.

Generation is fully deterministic: every draw comes from one
:func:`repro.utils.rng.derive_rng` stream keyed off the config seed, so
the same :class:`LoadTraceConfig` always produces a bit-identical
:class:`ArrivalTrace` (pinned by :meth:`ArrivalTrace.checksum`), across
processes and platforms.  Traces are written as JSONL (a config header,
then one line per job) so a generated workload can be archived.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.core.job import PAPER_PROFILES
from repro.utils.rng import derive_rng
from repro.utils.units import HOURS

#: Default application mix (name -> weight); names must exist in
#: :data:`repro.core.job.PAPER_PROFILES`.  SSSP-heavy, like the paper's
#: motivation: short recurring analyses dominate arrival counts.
DEFAULT_APP_MIX = (("sssp", 0.5), ("pagerank", 0.35), ("coloring", 0.15))

#: Relative amplitude of the 24 h rate sinusoid: the offered rate swings
#: +-60 % around the mean.
DIURNAL_AMPLITUDE = 0.6

#: Length of one burst window, seconds.
BURST_DURATION_S = 900.0

#: Recurrence periods jobs are tagged with (they drive the
#: recurring-tenant phase of the harness).
PERIODS_S = (2 * HOURS, 4 * HOURS, 6 * HOURS)


@dataclass(frozen=True)
class LoadTraceConfig:
    """Knobs of the workload generator (all defaults are benchmark-sane).

    The diurnal amplitude, the burst-window length and the recurrence
    periods are the module constants :data:`DIURNAL_AMPLITUDE`,
    :data:`BURST_DURATION_S` and :data:`PERIODS_S`.

    Attributes:
        seed: master seed; the trace is a pure function of this config.
        num_jobs: arrivals to generate.
        num_tenants: distinct tenant identities jobs are attributed to.
        arrivals_per_hour: mean offered rate before modulation.
        burst_rate_multiplier: rate multiplier inside a burst window.
        burst_probability_per_hour: chance each wall-clock hour contains
            one burst window.
        app_mix: ``(profile name, weight)`` pairs.
        scales: graph-size scale factors applied to the profile's
            execution time (mixed dataset sizes).
        slack_range: uniform range of the per-job slack fraction.
    """

    seed: int = 42
    num_jobs: int = 1000
    num_tenants: int = 20
    arrivals_per_hour: float = 120.0
    burst_rate_multiplier: float = 4.0
    burst_probability_per_hour: float = 0.15
    app_mix: tuple[tuple[str, float], ...] = DEFAULT_APP_MIX
    scales: tuple[float, ...] = (0.25, 0.5, 1.0)
    slack_range: tuple[float, float] = (0.1, 1.0)

    def __post_init__(self):
        if self.num_jobs < 1:
            raise ValueError("num_jobs must be >= 1")
        if self.num_tenants < 1:
            raise ValueError("num_tenants must be >= 1")
        # Chained comparisons below are written so that NaN fails them.
        if not 0.0 < self.arrivals_per_hour < math.inf:
            raise ValueError("arrivals_per_hour must be positive and finite")
        if not 1.0 <= self.burst_rate_multiplier < math.inf:
            raise ValueError("burst_rate_multiplier must be finite and >= 1")
        if not 0.0 <= self.burst_probability_per_hour <= 1.0:
            raise ValueError("burst_probability_per_hour must be in [0, 1]")
        unknown = [name for name, _ in self.app_mix if name not in PAPER_PROFILES]
        if unknown:
            raise ValueError(f"unknown profiles in app_mix: {unknown}")
        if not self.app_mix or not all(0.0 < w < math.inf for _, w in self.app_mix):
            raise ValueError("app_mix needs positive, finite weights")
        if not self.scales or not all(0.0 < v < math.inf for v in self.scales):
            raise ValueError("scales needs one or more positive, finite values")
        lo, hi = self.slack_range
        if not 0.0 <= lo <= hi < math.inf:
            raise ValueError("slack_range must satisfy 0 <= lo <= hi < inf")


@dataclass(frozen=True)
class TraceJob:
    """One arrival: a tenant submitting one time-constrained job.

    Attributes:
        job_id: position in the trace (0-based, arrival order).
        tenant: tenant identity (``tenant-07``).
        arrival_s: arrival time, seconds from the trace origin.
        app: application profile name (``sssp`` / ``pagerank`` / ...).
        scale: execution-time scale factor (graph-size proxy).
        slack_fraction: deadline slack as a fraction of execution time.
        period_s: the job's recurrence period tag.
    """

    job_id: int
    tenant: str
    arrival_s: float
    app: str
    scale: float
    slack_fraction: float
    period_s: float


@dataclass(frozen=True)
class ArrivalTrace:
    """A generated workload: the config that produced it plus its jobs."""

    config: LoadTraceConfig
    jobs: tuple[TraceJob, ...]

    @property
    def span_s(self) -> float:
        """Seconds from the trace origin to the last arrival."""
        return self.jobs[-1].arrival_s if self.jobs else 0.0

    def checksum(self) -> str:
        """SHA-256 over the canonical JSON encoding (bit-identity pin).

        A job's fields are flat immutable values, so its ``vars`` encode
        to the same bytes as ``asdict`` without the recursive deep copy.
        """
        payload = json.dumps(
            [vars(job) for job in self.jobs], sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    # ------------------------------------------------------------------
    # JSONL (the archival trace format)
    # ------------------------------------------------------------------
    def to_jsonl(self, path) -> None:
        """Write one header line (the config) then one line per job."""
        lines = [json.dumps({"trace_config": asdict(self.config)}, sort_keys=True)]
        lines.extend(json.dumps(asdict(job), sort_keys=True) for job in self.jobs)
        Path(path).write_text("\n".join(lines) + "\n")


def _burst_window(config: LoadTraceConfig, hour: int) -> tuple[float, float] | None:
    """The ``[start, end)`` burst window that begins in *hour*, if any.

    Burst placement is derived per wall-clock hour from the seed, so the
    burst schedule is a deterministic property of the config that does
    not depend on how many arrivals the thinning loop samples.
    """
    rng = derive_rng(config.seed, "burst", hour)
    if rng.uniform() >= config.burst_probability_per_hour:
        return None
    start = hour * HOURS + rng.uniform(0.0, HOURS)
    return start, start + BURST_DURATION_S


def _in_burst(config: LoadTraceConfig, t: float, windows: dict) -> bool:
    """Whether *t* falls inside a burst window.

    *windows* memoises :func:`_burst_window` by hour for one caller (a
    window may start in the previous hour and run into this one).
    """
    hour = int(t // HOURS)
    for h in (hour, hour - 1):
        if h < 0:
            continue
        if h not in windows:
            windows[h] = _burst_window(config, h)
        window = windows[h]
        if window is not None and window[0] <= t < window[1]:
            return True
    return False


def offered_rate(config: LoadTraceConfig, t: float, windows: dict) -> float:
    """Instantaneous arrival rate (jobs/second) at trace time *t*.

    *windows* is the caller's per-hour burst-window memo (start with
    ``{}``); a caller that asks for many instants passes one dict to all
    of them.
    """
    base = config.arrivals_per_hour / HOURS
    diurnal = 1.0 + DIURNAL_AMPLITUDE * math.sin(2.0 * math.pi * t / (24 * HOURS))
    rate = base * diurnal
    if _in_burst(config, t, windows):
        rate *= config.burst_rate_multiplier
    return rate


def generate_trace(config: LoadTraceConfig) -> ArrivalTrace:
    """Sample the arrival trace (deterministic in *config*).

    Arrivals come from Poisson thinning: candidate points at the peak
    rate, kept with probability ``rate(t) / peak``.  Job attributes are
    drawn from one sequential stream, so the whole trace is a pure
    function of the config.
    """
    rng = derive_rng(config.seed, "arrivals")
    peak = (
        config.arrivals_per_hour
        / HOURS
        * (1.0 + DIURNAL_AMPLITUDE)
        * config.burst_rate_multiplier
    )
    names = [name for name, _ in config.app_mix]
    total_w = sum(w for _, w in config.app_mix)
    weights = [w / total_w for _, w in config.app_mix]
    windows: dict = {}  # per call: each hour's burst window is drawn once
    jobs: list[TraceJob] = []
    t = 0.0
    while len(jobs) < config.num_jobs:
        t += rng.exponential(1.0 / peak)
        if rng.uniform() * peak > offered_rate(config, t, windows):
            continue
        lo, hi = config.slack_range
        slack = float(rng.uniform(lo, hi))
        jobs.append(
            TraceJob(
                job_id=len(jobs),
                tenant=f"tenant-{int(rng.integers(config.num_tenants)):02d}",
                arrival_s=t,
                app=names[int(rng.choice(len(names), p=weights))],
                scale=float(config.scales[int(rng.integers(len(config.scales)))]),
                slack_fraction=slack,
                period_s=float(PERIODS_S[int(rng.integers(len(PERIODS_S)))]),
            )
        )
    return ArrivalTrace(config=config, jobs=tuple(jobs))
