"""Declarative SLOs with multi-window burn rates, on the simulated clock.

Hourglass's objective *is* an SLO: finish by the deadline at minimum
cost.  This module watches that promise over a load run's own records
(:mod:`repro.obs.window`):

* **ratio** objectives — bad records over all records of one kind
  (deadline-miss rate over runs, admission-reject rate over jobs), with
  an error budget ``target``;
* **quantile** objectives — a percentile of planned jobs' plan latency
  under a threshold.

A *burn rate* is ``observe(frame, t, w) / target``: how fast the budget
is being spent.  A :class:`BurnRateRule` fires only when the burn
exceeds its factor over **both** a long and a short window — the long
window proves the problem is sustained, the short one that it is still
happening (the SRE multi-window pattern, at the workbook's 1 h / 6 h
horizons because the clock is the simulated one).  Which rules fire at
``t`` is a pure function of the records and ``t`` (:func:`statuses`),
so the alert sequence over a run's ticks is too.
:class:`SloMonitor` is that function advanced by the log's clock: at
each tick it publishes ``slo_burn_rate`` and counts transitions in
``slo_alerts_total``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.obs.metrics import MetricsRegistry
from repro.obs.window import Frame

#: Default rule pairs: the fast-burn rule pages on an acute problem, the
#: slow-burn rule tickets a simmering one.
DEFAULT_RULES = (
    ("page", 3600.0, 300.0, 6.0),
    ("ticket", 21600.0, 3600.0, 2.0),
)


@dataclass(frozen=True)
class BurnRateRule:
    """One multi-window burn-rate alerting rule.

    Attributes:
        severity: label for the alert this rule raises.
        long_window_s / short_window_s: both windows must burn above
            *factor* for the rule to fire.
        factor: budget-consumption multiple that trips the rule (1.0 =
            exactly on budget).
    """

    severity: str
    long_window_s: float
    short_window_s: float
    factor: float

    def __post_init__(self):
        if self.short_window_s >= self.long_window_s:
            raise ValueError("short window must be shorter than the long window")
        if self.factor <= 0:
            raise ValueError("factor must be positive")


@dataclass(frozen=True)
class SloObjective:
    """One declarative objective over a run's records.

    Attributes:
        name: stable identifier (``deadline_miss_rate``).
        kind: ``"ratio"`` | ``"quantile"``.
        target: the objective bound — max acceptable bad/total ratio, or
            quantile value.  Burn rate is ``observed / target``.
        source: the record kind observed (``"job"`` or ``"run"``).
        bad: the outcome a ratio objective counts against its budget.
        outcome: the outcome whose values a quantile objective reads.
        q: the percentile of quantile objectives, in [0, 100].
        rules: burn-rate rules (default :data:`DEFAULT_RULES`); the
            objective is observed over every window they name.
        description: one-line human explanation.
    """

    name: str
    kind: str
    target: float
    source: str
    bad: str = ""
    outcome: str = ""
    q: float = 99.0
    rules: tuple = tuple(
        BurnRateRule(sev, lw, sw, f) for sev, lw, sw, f in DEFAULT_RULES
    )
    description: str = ""

    def __post_init__(self):
        if self.kind not in ("ratio", "quantile"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if self.target <= 0:
            raise ValueError("target must be positive")
        if self.kind == "ratio" and not self.bad:
            raise ValueError("ratio objectives need a bad outcome")

    @property
    def windows(self) -> tuple[float, ...]:
        """Every window the rules read, ascending."""
        return tuple(
            sorted({w for r in self.rules for w in (r.long_window_s, r.short_window_s)})
        )

    def observe(self, frame: Frame, t: float, window_s: float) -> float:
        """The objective's measured value over ``[t - window_s, t)``."""
        if self.kind == "ratio":
            return frame.ratio(t, window_s, self.source, self.bad)
        return frame.quantile(t, window_s, self.q, self.source, self.outcome or None)


@dataclass(frozen=True)
class SloAlert:
    """One burn-rate rule transition (fired or resolved)."""

    objective: str
    severity: str
    firing: bool
    long_window_s: float
    short_window_s: float
    long_burn: float
    short_burn: float
    factor: float
    t: float


@dataclass
class SloStatus:
    """One objective's full evaluation at one instant."""

    objective: SloObjective
    windows: dict[float, float] = field(default_factory=dict)
    burn_rates: dict[float, float] = field(default_factory=dict)
    firing: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        obj = self.objective
        return {
            "name": obj.name,
            "kind": obj.kind,
            "target": obj.target,
            "description": obj.description,
            "windows": {str(w): v for w, v in sorted(self.windows.items())},
            "burn_rate": {str(w): b for w, b in sorted(self.burn_rates.items())},
            "firing": list(self.firing),
        }


def statuses(objectives, frame: Frame, t: float) -> tuple[SloStatus, ...]:
    """Every objective's observations, burn rates and firing rules at *t*."""
    out = []
    for objective in objectives:
        observed = {w: objective.observe(frame, t, w) for w in objective.windows}
        burns = {w: v / objective.target for w, v in observed.items()}
        firing = tuple(
            rule.severity
            for rule in objective.rules
            if burns[rule.long_window_s] > rule.factor
            and burns[rule.short_window_s] > rule.factor
        )
        out.append(SloStatus(objective, observed, burns, firing))
    return tuple(out)


def _firing(current) -> set[tuple[str, str]]:
    return {(s.objective.name, severity) for s in current for severity in s.firing}


def _transitions(previous, current, t: float) -> list[SloAlert]:
    """The alerts between two consecutive evaluations."""
    was = _firing(previous)
    out = []
    for status in current:
        for rule in status.objective.rules:
            now = rule.severity in status.firing
            if now != ((status.objective.name, rule.severity) in was):
                out.append(
                    SloAlert(
                        objective=status.objective.name,
                        severity=rule.severity,
                        firing=now,
                        long_window_s=rule.long_window_s,
                        short_window_s=rule.short_window_s,
                        long_burn=status.burn_rates[rule.long_window_s],
                        short_burn=status.burn_rates[rule.short_window_s],
                        factor=rule.factor,
                        t=t,
                    )
                )
    return out


class SloMonitor:
    """:func:`statuses` advanced by a record log's clock; emits alerts.

    Args:
        log: the :class:`~repro.obs.window.RecordLog` observed; the
            monitor evaluates at each of its ``tick_s`` ticks.
        objectives: the :class:`SloObjective` set (see
            :func:`default_slos` for the stock three).
        metrics: registry for ``slo_burn_rate`` / ``slo_alerts_total``
            (default: a registry of its own).
    """

    def __init__(self, log, objectives, metrics=None):
        self.objectives = tuple(objectives)
        names = [o.name for o in self.objectives]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate objective names: {names}")
        self.log = log
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._t: float | None = None
        self._statuses: tuple[SloStatus, ...] = ()
        self._alerts: list[SloAlert] = []
        self._evaluations = 0
        log.every(log.tick_s, self.evaluate)

    def evaluate(self, t: float) -> tuple[SloStatus, ...]:
        """Evaluate at tick *t*; rule transitions become :class:`SloAlert`s."""
        current = statuses(self.objectives, self.log.frame(), t)
        with self._lock:
            transitions = _transitions(self._statuses, current, t)
            self._t = t
            self._statuses = current
            self._evaluations += 1
            self._alerts.extend(transitions)
        burn_gauge = self.metrics.gauge(
            "slo_burn_rate", "Error-budget burn multiple per objective/window"
        )
        for status in current:
            for window, burn in status.burn_rates.items():
                burn_gauge.set(burn, slo=status.objective.name, window=f"{window:g}s")
        for alert in transitions:
            self.metrics.counter(
                "slo_alerts_total", "Burn-rate rule transitions by objective"
            ).inc(1, slo=alert.objective, severity=alert.severity, firing=alert.firing)
        return current

    def alerts(self) -> tuple[SloAlert, ...]:
        """Every rule transition observed so far, in order."""
        with self._lock:
            return tuple(self._alerts)

    def as_dict(self) -> dict:
        """The payload ``slo.json`` holds: the latest tick's fold."""
        with self._lock:
            return {
                "t": self._t,
                "evaluations": self._evaluations,
                "alerts": len(self._alerts),
                "firing": sorted(f"{name}:{sev}" for name, sev in _firing(self._statuses)),
                "objectives": [status.as_dict() for status in self._statuses],
            }


def default_slos(
    miss_rate_target: float = 0.05,
    plan_p99_target_s: float = 0.5,
    reject_rate_target: float = 0.05,
) -> tuple[SloObjective, ...]:
    """The stock objectives over a load run's records.

    The deadline-miss objective reads every one-shot run whatever the
    strategy, so a run served by Hourglass's DP or by a baseline such as
    SpotOn's greedy cheapest-now choice (``--strategy spoton``) exposes
    its miss burn rate the same way.  ``plan_latency_p99`` is windowed by
    simulated decision time but carries wall-clock latencies, so it is
    the one objective that can differ between two runs of a seed.
    """
    return (
        SloObjective(
            name="deadline_miss_rate",
            kind="ratio",
            target=miss_rate_target,
            source="run",
            bad="missed",
            description="Executed one-shot runs finishing past their deadline",
        ),
        SloObjective(
            name="plan_latency_p99",
            kind="quantile",
            target=plan_p99_target_s,
            source="job",
            outcome="planned",
            q=99.0,
            description="99th-percentile wall-clock planning latency (s)",
        ),
        SloObjective(
            name="admission_reject_rate",
            kind="ratio",
            target=reject_rate_target,
            source="job",
            bad="rejected_overload",
            description="Offered jobs shed by admission control",
        ),
    )
