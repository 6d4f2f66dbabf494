"""Load-run reporting: Granny-style costs, rendering.

The report separates two kinds of numbers:

* **Simulated outcomes** — admission counts, deadline misses, skipped
  windows, machine-seconds and dollars.  These are deterministic in the
  trace seed (the market and every decision are), and
  :meth:`LoadReport.fingerprint` pins exactly this subset, so two runs
  of the same seed must produce identical fingerprints.
* **Wall-clock measurements** — plan-latency and queue-wait
  percentiles.  Real time on the machine that ran the harness; never
  part of the fingerprint.

The three Granny-style costs follow the makespan-experiment framing
(provider cost, user cost, service time):

* ``provider_idle_machine_s`` — billed machine-seconds in excess of the
  job's ideal compute (``work x t_exec(lrc) x lrc workers``): boot,
  loading, checkpoints, work redone after evictions — capacity the
  provider had committed that produced no new progress.
* ``user_cost_dollars`` — the bill across all executed runs.
* ``service_time_s`` — arrival-to-finish *simulated* seconds summed
  over runs (what a user staring at the job experiences, queueing
  included).

The latency percentiles are :func:`repro.obs.window.percentile` over the
run's plan records, the same rule every live window uses.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

from repro.utils.table import format_table


@dataclass(frozen=True)
class LoadReport:
    """Everything one load-harness run measured."""

    # Workload identity
    seed: int
    num_jobs: int
    num_tenants: int
    trace_checksum: str
    trace_span_s: float

    # Admission / planning outcomes (deterministic)
    offered: int
    admitted: int
    planned: int
    rejected_overload: int
    rejected_invalid: int
    deadline_lost: int
    queued: int
    queue_peak: int

    # Service cache behaviour (deterministic on the windowed path; see
    # FRONTEND_ORDER_FIELDS for the frontend)
    cache_hit_rate: float
    snapshot_hit_rate: float

    # Plan-latency percentiles (wall clock, ms)
    plan_p50_ms: float
    plan_p95_ms: float
    plan_p99_ms: float
    queue_wait_p50_ms: float
    queue_wait_p95_ms: float
    queue_wait_p99_ms: float

    # One-shot execution outcomes (deterministic)
    executed: int
    missed: int
    miss_rate: float

    # Recurring-tenant outcomes (deterministic)
    recurring_tenants: int
    recurring_runs: int
    recurring_missed: int
    recurring_skipped: int
    recurring_miss_rate: float
    recurring_skipped_rate: float
    recurring_violation_rate: float

    # Granny-style costs (deterministic)
    provider_idle_machine_s: float
    user_cost_dollars: float
    service_time_s: float

    # Frontend / planner-pool behaviour (wall-clock-dependent: how many
    # requests coalesced and how the pool scaled depend on real-time
    # interleaving, so none of these join the fingerprint).
    frontend: bool = False
    coalesce_hits: int = 0
    pool_size_peak: int = 0
    pool_size_low: int = 0
    pool_scale_ups: int = 0
    pool_scale_downs: int = 0
    dispatch_batches: int = 0
    dispatch_batch_max: int = 0

    #: Fields excluded from :meth:`fingerprint` on top of the ``*_ms``
    #: wall-clock percentiles: everything measuring the serving layer's
    #: real-time behaviour rather than a simulated outcome.
    WALL_CLOCK_FIELDS = frozenset(
        {
            "coalesce_hits",
            "pool_size_peak",
            "pool_size_low",
            "pool_scale_ups",
            "pool_scale_downs",
            "dispatch_batches",
            "dispatch_batch_max",
        }
    )

    #: Fields excluded from :meth:`fingerprint` in frontend mode only.
    #: The frontend's planner threads reach the shared estimator memo in
    #: an order the OS scheduler picks, and a memo bucket keeps the
    #: states of its first visitor, so the count of hits and misses
    #: (and of rate-snapshot reuses) moves with thread timing even when
    #: every decision is the same.  On the windowed path one thread
    #: plans in arrival order and both rates stay in the fingerprint.
    FRONTEND_ORDER_FIELDS = frozenset({"cache_hit_rate", "snapshot_hit_rate"})

    def fingerprint(self) -> str:
        """SHA-256 over the deterministic (simulated) fields only.

        Wall-clock percentiles (``*_ms``), the serving-layer fields in
        :data:`WALL_CLOCK_FIELDS` and, in frontend mode, the memo rates
        in :data:`FRONTEND_ORDER_FIELDS` are excluded; two runs of one
        seed must produce identical fingerprints.  (Frontend-mode
        simulated outcomes are reproducible unless backpressure overflow
        — a real-time effect — sheds different jobs.)
        """
        excluded = self.WALL_CLOCK_FIELDS
        if self.frontend:
            excluded = excluded | self.FRONTEND_ORDER_FIELDS
        payload = {
            k: v
            for k, v in asdict(self).items()
            if not k.endswith("_ms") and k not in excluded
        }
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Aligned text tables, one section per concern."""
        pct = lambda x: f"{100.0 * x:.1f}%"  # noqa: E731
        sections = [
            format_table(
                [
                    {
                        "jobs": self.num_jobs,
                        "tenants": self.num_tenants,
                        "seed": self.seed,
                        "span_h": round(self.trace_span_s / 3600.0, 2),
                        "trace_sha256": self.trace_checksum[:12],
                        "fingerprint": self.fingerprint()[:12],
                    }
                ],
                title="Load harness — workload",
            ),
            format_table(
                [
                    {
                        "offered": self.offered,
                        "admitted": self.admitted,
                        "planned": self.planned,
                        "rej_overload": self.rejected_overload,
                        "rej_invalid": self.rejected_invalid,
                        "deadline_lost": self.deadline_lost,
                        "queued": self.queued,
                        "queue_peak": self.queue_peak,
                    }
                ],
                title="Admission + batch planning",
            ),
            format_table(
                [
                    {
                        "plan_p50_ms": round(self.plan_p50_ms, 3),
                        "plan_p95_ms": round(self.plan_p95_ms, 3),
                        "plan_p99_ms": round(self.plan_p99_ms, 3),
                        "qwait_p50_ms": round(self.queue_wait_p50_ms, 3),
                        "qwait_p95_ms": round(self.queue_wait_p95_ms, 3),
                        "qwait_p99_ms": round(self.queue_wait_p99_ms, 3),
                        "cache_hits": pct(self.cache_hit_rate),
                        "snapshot_hits": pct(self.snapshot_hit_rate),
                    }
                ],
                title="Plan latency (wall clock) + service caches",
            ),
            format_table(
                [
                    {
                        "executed": self.executed,
                        "missed": self.missed,
                        "miss_rate": pct(self.miss_rate),
                    }
                ],
                title="One-shot executions",
            ),
            format_table(
                [
                    {
                        "tenants": self.recurring_tenants,
                        "runs": self.recurring_runs,
                        "missed": self.recurring_missed,
                        "skipped": self.recurring_skipped,
                        "miss_rate": pct(self.recurring_miss_rate),
                        "skipped_rate": pct(self.recurring_skipped_rate),
                        "violation_rate": pct(self.recurring_violation_rate),
                    }
                ],
                title="Recurring tenants (interleaved)",
            ),
            format_table(
                [
                    {
                        "coalesce_hits": self.coalesce_hits,
                        "pool_peak": self.pool_size_peak,
                        "pool_low": self.pool_size_low,
                        "scale_ups": self.pool_scale_ups,
                        "scale_downs": self.pool_scale_downs,
                        "batches": self.dispatch_batches,
                        "batch_max": self.dispatch_batch_max,
                    }
                ],
                title="Frontend + planner pool",
            )
            if self.frontend
            else None,
            format_table(
                [
                    {
                        "provider_idle_machine_s": round(self.provider_idle_machine_s, 1),
                        "user_cost_$": round(self.user_cost_dollars, 2),
                        "service_time_s": round(self.service_time_s, 1),
                        "mean_service_time_s": round(
                            self.service_time_s / self.executed, 1
                        )
                        if self.executed
                        else 0.0,
                    }
                ],
                title="Granny-style costs (provider / user / service time)",
            ),
        ]
        return "\n\n".join(section for section in sections if section is not None)


# ----------------------------------------------------------------------
# Live-operations sections (rendered by the CLI *outside* the report, so
# the report fingerprint never depends on what --watch observes)
# ----------------------------------------------------------------------
def format_slo_section(slo_payload: dict) -> str:
    """The SLO monitor's payload as a report table (one row per objective)."""
    rows = []
    for obj in slo_payload.get("objectives", []):
        burns = obj.get("burn_rate", {})
        worst = max(burns.values()) if burns else 0.0
        rows.append(
            {
                "objective": obj["name"],
                "kind": obj["kind"],
                "target": obj["target"],
                "worst_burn": round(worst, 3),
                "firing": ",".join(obj.get("firing", [])) or "-",
            }
        )
    if not rows:
        rows = [{"objective": "-", "kind": "-", "target": 0,
                 "worst_burn": 0.0, "firing": "-"}]
    title = (
        f"SLO monitor ({slo_payload.get('evaluations', 0)} evaluations, "
        f"{slo_payload.get('alerts', 0)} alert transitions)"
    )
    return format_table(rows, title=title)


def format_tenant_section(tenant_payload: dict, top: int = 8) -> str:
    """The cost ledger's payload as a report table (top spenders first)."""
    pct = lambda x: f"{100.0 * x:.1f}%"  # noqa: E731
    rows = [
        {
            "tenant": usage["tenant"],
            "runs": usage["runs"],
            "dollars": round(usage["dollars"], 2),
            "machine_s": round(
                usage["spot_seconds"] + usage["on_demand_seconds"], 1
            ),
            "idle_s": round(usage["idle_seconds"], 1),
            "compliance": pct(usage["slo_compliance"]),
        }
        for usage in tenant_payload.get("tenants", [])[:top]
    ]
    totals = tenant_payload.get("totals")
    if totals:
        rows.append(
            {
                "tenant": "TOTAL",
                "runs": totals["runs"],
                "dollars": round(totals["dollars"], 2),
                "machine_s": round(
                    totals["spot_seconds"] + totals["on_demand_seconds"], 1
                ),
                "idle_s": round(totals["idle_seconds"], 1),
                "compliance": pct(totals["slo_compliance"]),
            }
        )
    if not rows:
        rows = [{"tenant": "-", "runs": 0, "dollars": 0.0,
                 "machine_s": 0.0, "idle_s": 0.0, "compliance": "-"}]
    shown = len(tenant_payload.get("tenants", []))
    title = f"Per-tenant cost attribution (top {min(top, shown)} of {shown})"
    return format_table(rows, title=title)
