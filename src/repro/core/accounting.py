"""Cost accounting: break a simulated run's bill into phases.

Turns a :class:`~repro.exec.events.RunResult`'s event timeline (from
either the analytic simulator or the engine-backed runtime — both emit
the unified lifecycle events)
into a per-phase, per-configuration cost breakdown — where did the
dollars go: productive computation, setup (boot + load), checkpoints, or
work doomed by evictions.  Useful for understanding *why* a strategy is
cheap or expensive (e.g. the fast-reload ablation shifts dollars out of
the "setup" and "doomed" buckets).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exec.events import RunResult


@dataclass(frozen=True)
class PhaseCosts:
    """Dollars spent per phase of one run."""

    productive: float
    setup: float
    doomed: float
    total: float

    def fraction(self, phase: str) -> float:
        """Share of the total bill spent in *phase*."""
        if self.total <= 0:
            return 0.0
        value = getattr(self, phase)
        return value / self.total


@dataclass(frozen=True)
class CostBreakdown:
    """Full decomposition of a simulated run's cost."""

    phases: PhaseCosts
    by_config: dict
    evictions: int
    deployments: int


def breakdown(
    result: RunResult, setup_seconds: dict | None = None
) -> CostBreakdown:
    """Decompose *result*'s bill using its event timeline.

    Requires the simulation to have been run with ``record_events=True``.
    Costs between consecutive events are attributed to the configuration
    active in that span; spans ending in an eviction without persisted
    progress are "doomed"; spans starting at a deploy carry a setup
    portion (pro-rated by ``setup_seconds`` when provided — see
    :func:`setup_table` — otherwise folded into productive/doomed).
    """
    events = result.events
    if not events:
        raise ValueError("result has no events; run with record_events=True")
    setup_seconds = setup_seconds or {}
    productive = setup = doomed = 0.0
    by_config: dict = {}
    prev = events[0]
    for event in events[1:]:
        span_cost = event.cost_so_far - prev.cost_so_far
        span_time = event.t - prev.t
        config = prev.config
        by_config[config] = by_config.get(config, 0.0) + span_cost
        setup_part = 0.0
        if prev.kind == "deploy" and span_time > 0 and config in setup_seconds:
            setup_part = span_cost * min(1.0, setup_seconds[config] / span_time)
        rest = span_cost - setup_part
        setup += setup_part
        if event.kind == "eviction" and event.work_left >= prev.work_left - 1e-12:
            doomed += rest
        elif event.work_left < prev.work_left - 1e-12 or event.kind == "finish":
            productive += rest
        else:
            doomed += rest
        prev = event
    phases = PhaseCosts(
        productive=productive,
        setup=setup,
        doomed=doomed,
        total=result.cost,
    )
    return CostBreakdown(
        phases=phases,
        by_config=by_config,
        evictions=result.evictions,
        deployments=result.deployments,
    )


def setup_table(perf, catalog) -> dict:
    """Per-configuration setup seconds, keyed by configuration name.

    Convenience companion for :func:`breakdown`: pass the result as
    ``setup_seconds`` to have deploy spans split into setup vs compute.
    """
    return {config.name: perf.setup_time(config) for config in catalog}


def format_breakdown(bd: CostBreakdown) -> str:
    """Small human-readable report of a breakdown."""
    lines = [
        f"total ${bd.phases.total:.2f} over {bd.deployments} deployments, "
        f"{bd.evictions} evictions",
        f"  productive ${bd.phases.productive:.2f} "
        f"({bd.phases.fraction('productive'):.0%})",
        f"  setup      ${bd.phases.setup:.2f} ({bd.phases.fraction('setup'):.0%})",
        f"  doomed     ${bd.phases.doomed:.2f} ({bd.phases.fraction('doomed'):.0%})",
    ]
    for config, cost in sorted(bd.by_config.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {config:<30} ${cost:.2f}")
    return "\n".join(lines)
