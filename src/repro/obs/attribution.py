"""Per-tenant cost attribution: who spent what, live.

The write-side instrumentation already measures everything a bill needs
— :class:`~repro.exec.billing.BillingMeter` integrates the market price
over every machine-second and the lifecycle returns that bill, with
its evictions, as one :class:`~repro.exec.events.RunResult` —
but none of it is keyed by *tenant*.  :class:`CostLedger` is the join: a
thread-safe table of :class:`TenantUsage` rows (dollars, spot/on-demand/
idle machine-seconds, deadline compliance, service time) queryable at
any instant while a load run is in flight, in the spirit of the Granny
provider/user cost split the load report prints at the end.

There is one way in: the load harness records each executed run against
its trace tenant (:meth:`CostLedger.record_run`) with the idle and
service seconds it already computed for its report, so a million-job
trace is attributed without threading tenant identity through the shared
simulators and without counting any run twice.

When built with a metrics registry the ledger also mirrors itself as
``tenant_*`` series, so per-tenant spend is scrapeable and windowable
like every other metric.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class TenantUsage:
    """One tenant's accumulated usage (immutable snapshot row).

    Attributes:
        tenant: tenant identity the row is keyed by.
        runs / missed: executed runs and deadline misses among them.
        dollars: total billed spend.
        spot_seconds / on_demand_seconds: billed machine-seconds per
            market segment.
        idle_seconds: billed machine-seconds beyond ideal compute
            (the Granny provider-cost share this tenant caused).
        service_time_s: arrival-to-finish seconds summed over runs.
        evictions: evictions suffered across the runs.
    """

    tenant: str
    runs: int = 0
    missed: int = 0
    dollars: float = 0.0
    spot_seconds: float = 0.0
    on_demand_seconds: float = 0.0
    idle_seconds: float = 0.0
    service_time_s: float = 0.0
    evictions: int = 0

    @property
    def slo_compliance(self) -> float:
        """Fraction of executed runs that met their deadline (1.0 idle)."""
        return 1.0 - (self.missed / self.runs) if self.runs else 1.0

    def as_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "runs": self.runs,
            "missed": self.missed,
            "slo_compliance": round(self.slo_compliance, 6),
            "dollars": round(self.dollars, 6),
            "spot_seconds": round(self.spot_seconds, 3),
            "on_demand_seconds": round(self.on_demand_seconds, 3),
            "idle_seconds": round(self.idle_seconds, 3),
            "service_time_s": round(self.service_time_s, 3),
            "evictions": self.evictions,
        }


class CostLedger:
    """Thread-safe per-tenant usage accumulator.

    Args:
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            when given, spend and outcomes are mirrored as
            ``tenant_cost_dollars_total``, ``tenant_machine_seconds_total``
            (labelled by market segment), ``tenant_idle_machine_seconds_total``
            and ``tenant_runs_total`` (labelled by outcome) series.
    """

    def __init__(self, metrics=None):
        self.metrics = metrics
        self._lock = threading.Lock()
        self._rows: dict[str, TenantUsage] = {}

    def record_run(self, tenant: str, result, idle_s: float, service_s: float) -> None:
        """Attribute one completed run to *tenant*.

        *result* is the run's :class:`~repro.exec.events.RunResult`,
        whose cost and machine-second split the meter produced;
        *idle_s* (billed machine-seconds beyond ideal compute) and
        *service_s* (arrival-to-finish seconds) are the numbers the
        harness computed for its own report.
        """
        missed = bool(result.missed_deadline)
        with self._lock:
            usage = self._rows.get(tenant) or TenantUsage(tenant=tenant)
            self._rows[tenant] = replace(
                usage,
                runs=usage.runs + 1,
                missed=usage.missed + missed,
                dollars=usage.dollars + result.cost,
                spot_seconds=usage.spot_seconds + result.spot_seconds,
                on_demand_seconds=usage.on_demand_seconds + result.on_demand_seconds,
                idle_seconds=usage.idle_seconds + idle_s,
                service_time_s=usage.service_time_s + service_s,
                evictions=usage.evictions + result.evictions,
            )
        if self.metrics is None:
            return
        self.metrics.counter(
            "tenant_cost_dollars_total", "Billed dollars per tenant"
        ).inc(result.cost, tenant=tenant)
        machine = self.metrics.counter(
            "tenant_machine_seconds_total",
            "Billed machine-seconds per tenant and market segment",
        )
        machine.inc(result.spot_seconds, tenant=tenant, segment="spot")
        if result.on_demand_seconds:
            machine.inc(result.on_demand_seconds, tenant=tenant, segment="on_demand")
        self.metrics.counter(
            "tenant_runs_total", "Executed runs per tenant by outcome"
        ).inc(1, tenant=tenant, outcome="missed" if missed else "met")
        if idle_s:
            self.metrics.counter(
                "tenant_idle_machine_seconds_total",
                "Billed machine-seconds beyond ideal compute per tenant",
            ).inc(idle_s, tenant=tenant)

    # ------------------------------------------------------------------
    # Querying (any thread, any time)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, TenantUsage]:
        """Immutable tenant -> usage view of this instant."""
        with self._lock:
            return dict(self._rows)

    def totals(self) -> TenantUsage:
        """Every tenant folded into one row (tenant ``"*"``)."""
        total = TenantUsage(tenant="*")
        for usage in self.snapshot().values():
            total = replace(
                total,
                runs=total.runs + usage.runs,
                missed=total.missed + usage.missed,
                dollars=total.dollars + usage.dollars,
                spot_seconds=total.spot_seconds + usage.spot_seconds,
                on_demand_seconds=total.on_demand_seconds + usage.on_demand_seconds,
                idle_seconds=total.idle_seconds + usage.idle_seconds,
                service_time_s=total.service_time_s + usage.service_time_s,
                evictions=total.evictions + usage.evictions,
            )
        return total

    def as_dict(self) -> dict:
        """The per-tenant payload ``tenants.json`` holds (rows sorted by spend)."""
        rows = sorted(
            self.snapshot().values(), key=lambda u: (-u.dollars, u.tenant)
        )
        return {
            "tenants": [usage.as_dict() for usage in rows],
            "totals": self.totals().as_dict(),
        }
