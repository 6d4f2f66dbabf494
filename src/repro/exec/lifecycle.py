"""The shared execution-lifecycle core (the paper's Fig 2 loop).

One decision-point event loop serves every execution front-end: the
trace-driven analytic simulator (§8.1), the engine-backed end-to-end
runtime (§7), and any future work model.  The loop advances between
*decision points* — job start, each completed checkpoint, each eviction
— asking the provisioner for a configuration at every one.
Deployments pay boot + load before doing useful work; transient
deployments checkpoint on their Daly interval; evictions lose all
progress since the last persisted checkpoint; billing integrates the
market price over every machine-second used (via the
:class:`~repro.exec.billing.BillingMeter`).

What differs between front-ends — how work advances, what a checkpoint
contains, what an eviction destroys — lives behind the
:class:`~repro.exec.workmodel.WorkModel` interface.  Fault injection
hangs off :class:`~repro.exec.observers.LifecycleObserver` hooks rather
than loop edits; with no observers registered the loop is bit-identical
to the historical per-front-end implementations.  The run's record is
the result's ``events``.
"""

from __future__ import annotations

import math

from repro.cloud.market import SpotMarket
from repro.core.ckpt_policy import daly_interval
from repro.core.provisioner import Provisioner, ProvisioningContext
from repro.core.slack import SlackModel
from repro.exec.billing import BillingMeter
from repro.exec.errors import ExecutionError, HorizonError, StepBudgetError
from repro.exec.events import LifecycleEvent, RunResult
from repro.exec.observers import CheckpointWritePlan
from repro.exec.workmodel import WorkModel

#: Decision-loop iteration cap — a runaway-strategy backstop.
MAX_STEPS = 100_000


class ExecutionLifecycle:
    """Runs one job to completion over the spot market.

    Args:
        market: the replayed spot market.
        catalog: candidate configurations.
        provisioner: the strategy under test.
        work_model: progress semantics (analytic, calibrated, engine).
        lrc: the last-resort (on-demand) configuration anchoring the
            slack model.
        record_events: keep the full event timeline (memory vs detail).
        ckpt_interval_scale: multiplier on the Daly checkpoint interval
            (ablations sweep it; 1.0 = the paper's optimum).
        observers: :class:`LifecycleObserver` plug-ins, applied in
            order.
    """

    def __init__(
        self,
        market: SpotMarket,
        catalog,
        provisioner: Provisioner,
        work_model: WorkModel,
        lrc,
        record_events: bool = True,
        ckpt_interval_scale: float = 1.0,
        observers=(),
    ):
        if ckpt_interval_scale <= 0:
            raise ValueError("ckpt_interval_scale must be positive")
        self.market = market
        self.catalog = tuple(catalog)
        self.provisioner = provisioner
        self.work_model = work_model
        self.lrc = lrc
        self.record_events = record_events
        self.ckpt_interval_scale = ckpt_interval_scale
        self.observers = tuple(observers)

    # ------------------------------------------------------------------
    def run(self, release_time: float, deadline: float) -> RunResult:
        """Execute the job between *release_time* and *deadline*."""
        model = self.work_model
        slack_model = SlackModel(perf=model.perf, lrc=self.lrc, deadline=deadline)
        self.provisioner.reset()
        model.start()
        meter = BillingMeter(self.market)

        t = release_time
        config = None
        machine_start = 0.0
        eviction_at: float | None = None
        evictions = deployments = checkpoints = 0
        checkpoint_index = 0
        events: list[LifecycleEvent] = []

        def record(kind: str, at: float) -> None:
            if self.record_events:
                events.append(
                    LifecycleEvent(
                        t=at,
                        kind=kind,
                        config=config.name if config else "-",
                        work_left=model.work_left(),
                        cost_so_far=meter.cost,
                        superstep=model.superstep,
                    )
                )

        def make_ctx() -> ProvisioningContext:
            return ProvisioningContext(
                t=t,
                work_left=model.reported_work_left(),
                current_config=config,
                current_uptime=(t - machine_start) if config else 0.0,
                slack_model=slack_model,
                market=self.market,
                catalog=self.catalog,
            )

        self._dispatch("on_run_start", t)

        for _ in range(MAX_STEPS):
            if model.finished():
                break
            self._check_horizon(t)
            choice = self.provisioner.select(make_ctx())

            if config is None or choice != config:
                # (Re)deploy: pay boot + load before any useful work.
                config = choice
                machine_start = t
                deployments += 1
                eviction_at = self.market.eviction_time(config, t)
                setup = model.perf.setup_time(config)
                eviction_at = self._dispatch(
                    "adjust_eviction_time", t, config, eviction_at, adjust=True
                )
                setup = self._dispatch(
                    "adjust_setup_time", t, config, setup, adjust=True
                )
                record("deploy", t)
                if eviction_at is not None and eviction_at < t + setup:
                    meter.bill(config, t, eviction_at)
                    t = eviction_at
                    evictions += 1
                    model.on_deploy_evicted()
                    record("eviction", t)
                    config = None
                    continue
                meter.bill(config, t, t + setup)
                t += setup
                model.on_deployed(config, t)

            # One execution segment on the current configuration: run
            # until the Daly checkpoint is due, the strategy's segment
            # limit lands, or the job completes.
            save_time = model.perf.save_time(config)
            if config.is_transient:
                mttf = self.market.eviction_model(config).mttf
                budget = daly_interval(save_time, mttf) * self.ckpt_interval_scale
            else:
                budget = math.inf
            limit = self.provisioner.segment_limit(make_ctx())
            if limit < budget:
                budget = max(0.0, limit)
            plan = model.run_segment(config, budget)
            if plan.handover and config.is_transient:
                # The strategy left no useful time on this deployment;
                # force a fresh decision (normally the last resort).
                record("forced-lrc", t)
                config = None
                continue

            segment_start = t
            if plan.finishing:
                # The final output write is not a checkpoint; datastore
                # fault injection never targets it.
                write = CheckpointWritePlan(seconds=save_time)
            else:
                write = self._dispatch(
                    "plan_checkpoint_write", t, config, save_time, checkpoint_index
                ) or CheckpointWritePlan(seconds=save_time)
                checkpoint_index += 1
            save_end = segment_start + plan.elapsed + write.seconds
            self._check_horizon(save_end)
            if (
                config.is_transient
                and eviction_at is not None
                and eviction_at < save_end
            ):
                # Evicted before the state persisted: progress since the
                # last persisted checkpoint is lost and we pay for the
                # doomed run — unless the model salvages some (§9
                # eviction warnings).
                model.on_evicted(config, segment_start, eviction_at)
                meter.bill(config, segment_start, eviction_at)
                t = eviction_at
                evictions += 1
                record("eviction", t)
                if model.finished():
                    record("finish", t)
                    break
                config = None
                continue

            # Segment completed and its save finished (checkpoint, a
            # failed-but-retried write, or the final output write).
            meter.bill(config, segment_start, save_end)
            t = save_end
            model.commit(config, plan, write.success)
            if plan.finishing:
                record("finish", t)
                break
            if write.success:
                checkpoints += 1
                record("checkpoint", t)
            else:
                record("checkpoint-failed", t)
        else:
            raise StepBudgetError("execution exceeded the step budget")

        if not model.finished():
            raise ExecutionError("job did not finish (internal error)")
        return RunResult(
            cost=meter.cost,
            release_time=release_time,
            finish_time=t,
            deadline=deadline,
            evictions=evictions,
            deployments=deployments,
            checkpoints=checkpoints,
            spot_seconds=meter.spot_seconds,
            on_demand_seconds=meter.on_demand_seconds,
            events=tuple(events),
            provisioner_name=self.provisioner.name,
            values=model.final_values(),
            supersteps=model.superstep,
        )

    # ------------------------------------------------------------------
    def _dispatch(self, hook: str, *args, adjust: bool = False):
        """Call *hook* on every observer that defines it, in order.

        A hook an observer lacks is skipped: a no-op for ``on_run_start``,
        the identity for an adjustment.  With *adjust* the last argument
        is a value each observer may replace, and the final value is
        returned.  Otherwise the first non-None return ends the dispatch
        and is returned (the checkpoint-write plan rule; ``on_run_start``
        returns None).

        A hook that raises surfaces as an :class:`ExecutionError` naming
        the observer, never as a half-run whose billing/progress state
        silently diverged from its events; an ``ExecutionError`` raised
        by the hook passes through unchanged.
        """
        for observer in self.observers:
            fn = getattr(observer, hook, None)
            if fn is None:
                continue
            try:
                out = fn(*args)
            except ExecutionError:
                raise
            except Exception as exc:
                raise ExecutionError(
                    f"lifecycle observer {type(observer).__name__}.{hook} raised "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            if adjust:
                args = (*args[:-1], out)
            elif out is not None:
                return out
        return args[-1] if adjust else None

    def _check_horizon(self, t: float) -> None:
        if t >= self.market.horizon:
            raise HorizonError(
                f"execution time {t} reached the trace horizon "
                f"{self.market.horizon}; use a longer trace or an earlier start"
            )
