"""TracingObserver: lifecycle phases as spans on the simulated timeline.

A plug-in on the lifecycle hook bus (the run's own counts are on its
:class:`~repro.exec.events.RunResult`).  This observer emits the
cross-layer trace: one ``run`` root span per
execution (carrying the job/tenant correlation attributes), ``setup``
and ``checkpoint`` child spans, ``decision``/``eviction``/``finish``
instant events — all stamped with *simulated* time — and labeled series
into the metrics registry (deployments, evictions, checkpoint seconds,
eviction inter-arrivals, decision latency).

While the run span is open it is *activated* on the tracer's context,
so planning-service ``plan`` spans and engine ``superstep`` spans
emitted anywhere below the run inherit its trace id: that trace id is
the correlation ID that makes every superstep attributable to the plan
requests of the same execution.

This class deliberately does not inherit from
:class:`~repro.exec.observers.LifecycleObserver` (it would invert the
``exec -> obs`` dependency).  It defines only observation hooks: the
lifecycle treats the adjustment hooks it lacks as the identity, so
tracing never perturbs a run.
"""

from __future__ import annotations

from repro.obs.state import get_metrics, get_tracer


class TracingObserver:
    """Emit lifecycle spans/metrics for every run of one executor.

    Args:
        tracer: explicit tracer (default: the process tracer, resolved
            at each run start so enabling tracing mid-session works).
        metrics: explicit registry (default: the process registry).
        job_id: base job identifier; run *k* is ``"<job_id>#<k>"``.
        tenant: tenant label for spans and metric series.
        strategy: strategy label for spans and metric series.
    """

    def __init__(
        self,
        tracer=None,
        metrics=None,
        job_id: str = "job",
        tenant: str = "-",
        strategy: str = "-",
    ):
        self.tracer = tracer
        self.metrics = metrics
        self.job_id = job_id
        self.tenant = tenant
        self.strategy = strategy
        self._runs = 0
        self._tr = None
        self._mx = None
        self._run_span = None
        self._last_eviction: float | None = None

    # ------------------------------------------------------------------
    # Observation hooks
    # ------------------------------------------------------------------
    def on_run_start(self, t: float) -> None:
        """Open (and activate) this run's root span."""
        self._tr = self.tracer if self.tracer is not None else get_tracer()
        self._mx = self.metrics if self.metrics is not None else get_metrics()
        if self._run_span is not None:  # previous run died mid-flight
            self._run_span.set(aborted=True).end(t)
            self._run_span = None
        self._runs += 1
        self._last_eviction = None
        if not self._tr.enabled:
            return
        self._run_span = self._tr.span(
            "run",
            t=t,
            job_id=f"{self.job_id}#{self._runs}",
            tenant=self.tenant,
            strategy=self.strategy,
        ).activate()
        self._mx.counter("runs_started_total", "Executions begun").inc(
            1, tenant=self.tenant, strategy=self.strategy
        )

    def _off(self) -> bool:
        return self._tr is None or not self._tr.enabled

    def on_decision(self, t: float, telemetry) -> None:
        """Record the decision instant plus its real planning latency."""
        if self._off():
            return
        self._tr.event(
            "decision",
            t=t,
            latency_s=telemetry.latency_s,
            warm=telemetry.estimator_reused,
            memo_hits=telemetry.memo_hits,
            memo_misses=telemetry.memo_misses,
            snapshot_reused=telemetry.snapshot_reused,
        )
        self._mx.histogram(
            "decision_latency_seconds",
            "Wall-clock planning latency per lifecycle decision",
        ).observe(telemetry.latency_s, tenant=self.tenant, strategy=self.strategy)

    def on_deploy(self, t: float, config, setup_seconds: float) -> None:
        """Record the deployment's setup phase as a span."""
        if self._off():
            return
        self._tr.record_span(
            "setup", t, t + setup_seconds, config=config.name
        )
        self._mx.counter("deployments_total", "Deployments started").inc(
            1, tenant=self.tenant, config=config.name
        )
        self._mx.histogram(
            "setup_seconds", "Simulated boot+load seconds per deployment"
        ).observe(setup_seconds, tenant=self.tenant, config=config.name)

    def on_eviction(self, t: float, config) -> None:
        """Record the eviction instant and its inter-arrival gap."""
        if self._off():
            return
        self._tr.event("eviction", t=t, config=config.name)
        self._mx.counter("evictions_total", "Evictions suffered").inc(
            1, tenant=self.tenant, config=config.name
        )
        if self._last_eviction is not None:
            self._mx.histogram(
                "eviction_interarrival_seconds",
                "Simulated seconds between consecutive evictions of a run",
            ).observe(t - self._last_eviction, tenant=self.tenant)
        self._last_eviction = t

    def on_checkpoint(self, t: float, config, seconds: float, persisted: bool) -> None:
        """Record the checkpoint write as a span ending at *t*."""
        if self._off():
            return
        self._tr.record_span(
            "checkpoint",
            t - seconds,
            t,
            config=config.name,
            persisted=persisted,
        )
        self._mx.counter("checkpoints_total", "Checkpoint writes").inc(
            1, tenant=self.tenant, persisted=persisted
        )
        self._mx.histogram(
            "checkpoint_seconds", "Simulated seconds per checkpoint write"
        ).observe(seconds, tenant=self.tenant, config=config.name)

    def on_forced_handover(self, t: float, config) -> None:
        """Record the forced decision point."""
        if not self._off():
            self._tr.event("forced-handover", t=t, config=config.name)

    def on_rescale(self, t: float, config, decision) -> None:
        """Record a mid-run rescale decision."""
        if self._off():
            return
        self._tr.event(
            "rescale",
            t=t,
            config=config.name,
            target=decision.target.name,
            reason=decision.reason,
        )
        self._mx.counter("rescales_total", "Mid-run rescale decisions").inc(
            1, tenant=self.tenant, reason=decision.reason
        )

    def on_bill(self, t: float, config, seconds: float, dollars: float) -> None:
        """Record one billed interval (live spend)."""
        if self._off():
            return
        self._mx.counter(
            "billed_dollars_total", "Dollars billed across runs"
        ).inc(dollars, tenant=self.tenant, config=config.name)
        self._mx.counter(
            "billed_machine_seconds_total",
            "Machine-seconds billed across runs",
        ).inc(seconds * config.num_workers, tenant=self.tenant,
              segment="spot" if config.is_transient else "on_demand")

    def on_finish(self, t: float, result) -> None:
        """Close the run span with the headline outcome attributes."""
        if self._off():
            return
        self._tr.event("finish", t=t)
        if self._run_span is not None:
            self._run_span.set(
                cost=result.cost,
                makespan=result.makespan,
                evictions=result.evictions,
                deployments=result.deployments,
                checkpoints=result.checkpoints,
                supersteps=result.supersteps,
                missed_deadline=result.missed_deadline,
            ).end(t)
            self._run_span = None
        self._mx.histogram(
            "run_makespan_seconds", "Simulated makespan per execution"
        ).observe(result.makespan, tenant=self.tenant, strategy=self.strategy)
        self._mx.histogram(
            "run_cost_dollars", "Dollars billed per execution"
        ).observe(result.cost, tenant=self.tenant, strategy=self.strategy)
