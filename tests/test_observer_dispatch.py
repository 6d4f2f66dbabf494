"""Multi-observer dispatch semantics of the execution lifecycle.

The lifecycle loop promises three things about its observer bus
(:mod:`repro.exec.observers`):

* hooks fire in **registration order**, for observation *and*
  adjustment hooks alike;
* for ``plan_checkpoint_write`` the **first observer returning a plan
  wins** — later observers are not even consulted for that write;
* an observer that **raises** surfaces as a clear
  :class:`~repro.exec.errors.ExecutionError` naming the observer and
  hook, never as a half-finished run with a confusing traceback —
  while an ``ExecutionError`` raised by the observer itself passes
  through unchanged;
* an observer need not subclass ``LifecycleObserver``: a hook it does
  not define is a **no-op** (observation) or the **identity**
  (adjustment).
"""

from __future__ import annotations

import pytest

from repro.cloud import default_catalog
from repro.core import (
    PAGERANK_PROFILE,
    ExecutionSimulator,
    PerformanceModel,
    job_with_slack,
    last_resort,
)
from repro.core.provisioner import Provisioner
from repro.exec import (
    CheckpointWritePlan,
    ExecutionError,
    LifecycleObserver,
)


class PinnedProvisioner(Provisioner):
    """Always deploys one fixed configuration (test scaffolding)."""

    name = "pinned"

    def __init__(self, config):
        self.config = config

    def select(self, ctx):
        """Pick the configuration to run next (always the pinned one)."""
        return self.config


class RecordingObserver(LifecycleObserver):
    """Appends ``(tag, hook)`` to a shared log on every hook call."""

    def __init__(self, tag: str, log: list):
        self.tag = tag
        self.log = log

    def _mark(self, hook: str) -> None:
        self.log.append((self.tag, hook))

    def on_run_start(self, t):
        self._mark("on_run_start")

    def on_deploy(self, t, config, setup_seconds):
        self._mark("on_deploy")

    def on_eviction(self, t, config):
        self._mark("on_eviction")

    def on_checkpoint(self, t, config, seconds, persisted):
        self._mark("on_checkpoint")

    def on_finish(self, t, result):
        self._mark("on_finish")

    def adjust_setup_time(self, t, config, setup_seconds):
        self._mark("adjust_setup_time")
        return setup_seconds

    def adjust_eviction_time(self, t, config, eviction_at):
        self._mark("adjust_eviction_time")
        return eviction_at

    def plan_checkpoint_write(self, t, config, save_seconds, index):
        self._mark("plan_checkpoint_write")
        return None


class PlanningObserver(LifecycleObserver):
    """Claims every checkpoint write with a fixed plan."""

    def __init__(self, tag: str, log: list, seconds: float):
        self.tag = tag
        self.log = log
        self.seconds = seconds

    def plan_checkpoint_write(self, t, config, save_seconds, index):
        self.log.append((self.tag, "plan_checkpoint_write"))
        return CheckpointWritePlan(seconds=self.seconds)


class RaisingObserver(LifecycleObserver):
    """Raises *exc* from the *hook* named at construction."""

    def __init__(self, hook: str, exc: Exception):
        def boom(*args, **kwargs):
            raise exc

        # Instance attribute shadows the base class's no-op method.
        setattr(self, hook, boom)


@pytest.fixture(scope="module")
def catalog():
    return tuple(default_catalog())


@pytest.fixture(scope="module")
def pinned_config(catalog):
    return [c for c in catalog if c.is_transient][0]


def run_pinned(market, catalog, config, observers):
    """One simulated run on a pinned transient configuration."""
    lrc = last_resort(
        catalog,
        lambda ref: PerformanceModel(profile=PAGERANK_PROFILE, reference=ref),
    )
    perf = PerformanceModel(profile=PAGERANK_PROFILE, reference=lrc)
    sim = ExecutionSimulator(
        market,
        perf,
        catalog,
        PinnedProvisioner(config),
        observers=observers,
    )
    job = job_with_slack(PAGERANK_PROFILE, 0.0, 0.5, perf.fixed_time(lrc))
    return sim.run(job)


class TestRegistrationOrder:
    def test_hooks_fire_in_registration_order(
        self, small_market, catalog, pinned_config
    ):
        log: list = []
        first = RecordingObserver("first", log)
        second = RecordingObserver("second", log)
        run_pinned(small_market, catalog, pinned_config, (first, second))

        hooks_seen = {hook for _tag, hook in log}
        assert {"on_run_start", "on_deploy", "on_checkpoint", "on_finish"} <= hooks_seen
        # Per hook invocation the pair arrives as first-then-second, so
        # the log is an exact alternation: even slots "first", odd
        # slots "second", with matching hook names.
        assert len(log) % 2 == 0
        for (tag_a, hook_a), (tag_b, hook_b) in zip(log[0::2], log[1::2]):
            assert (tag_a, tag_b) == ("first", "second")
            assert hook_a == hook_b

    def test_adjustment_hooks_also_ordered(
        self, small_market, catalog, pinned_config
    ):
        log: list = []
        run_pinned(
            small_market,
            catalog,
            pinned_config,
            (RecordingObserver("first", log), RecordingObserver("second", log)),
        )
        adjustments = [entry for entry in log if entry[1].startswith("adjust_")]
        assert adjustments  # pinned transient config always deploys
        assert adjustments[0][0] == "first"


class TestFirstPlanWins:
    def test_later_observers_not_consulted(
        self, small_market, catalog, pinned_config
    ):
        log: list = []
        winner = PlanningObserver("winner", log, seconds=123.0)
        shadowed = RecordingObserver("shadowed", log)
        run_pinned(small_market, catalog, pinned_config, (winner, shadowed))

        wins = [e for e in log if e == ("winner", "plan_checkpoint_write")]
        assert wins  # the pinned run checkpoints at least once
        assert ("shadowed", "plan_checkpoint_write") not in log
        # The shadowed observer still sees every *observation* hook.
        assert ("shadowed", "on_checkpoint") in log

    def test_plan_seconds_take_effect(self, small_market, catalog, pinned_config):
        log: list = []
        baseline = run_pinned(
            small_market,
            catalog,
            pinned_config,
            (PlanningObserver("p", log, seconds=0.0),),
        )
        slowed = run_pinned(
            small_market,
            catalog,
            pinned_config,
            (PlanningObserver("p", log, seconds=600.0),),
        )
        assert slowed.finish_time > baseline.finish_time

    def test_none_falls_through_to_clean_write(
        self, small_market, catalog, pinned_config
    ):
        log: list = []
        passthrough = run_pinned(
            small_market, catalog, pinned_config, (RecordingObserver("r", log),)
        )
        unobserved = run_pinned(small_market, catalog, pinned_config, ())
        assert passthrough == unobserved


class TestRaisingObservers:
    @pytest.mark.parametrize(
        "hook", ["on_deploy", "on_checkpoint", "adjust_setup_time"]
    )
    def test_exception_wrapped_with_observer_and_hook(
        self, small_market, catalog, pinned_config, hook
    ):
        observer = RaisingObserver(hook, RuntimeError("boom"))
        with pytest.raises(
            ExecutionError,
            match=rf"lifecycle observer RaisingObserver\.{hook} "
            rf"raised RuntimeError: boom",
        ):
            run_pinned(small_market, catalog, pinned_config, (observer,))

    def test_execution_error_passes_through_unwrapped(
        self, small_market, catalog, pinned_config
    ):
        class DeadlineAbort(ExecutionError):
            pass

        observer = RaisingObserver("on_checkpoint", DeadlineAbort("abort run"))
        with pytest.raises(DeadlineAbort, match="abort run"):
            run_pinned(small_market, catalog, pinned_config, (observer,))

    def test_cause_preserved_for_wrapped_exception(
        self, small_market, catalog, pinned_config
    ):
        original = ValueError("bad telemetry")
        observer = RaisingObserver("on_deploy", original)
        with pytest.raises(ExecutionError) as excinfo:
            run_pinned(small_market, catalog, pinned_config, (observer,))
        assert excinfo.value.__cause__ is original


class TestPartialObservers:
    """Duck-typed observers that define only the hooks they need."""

    def test_finish_only_observer_leaves_run_bit_identical(
        self, small_market, catalog, pinned_config
    ):
        class FinishOnly:
            def __init__(self):
                self.results = []

            def on_finish(self, t, result):
                self.results.append(result)

        observer = FinishOnly()
        observed = run_pinned(small_market, catalog, pinned_config, (observer,))
        unobserved = run_pinned(small_market, catalog, pinned_config, ())
        assert observed == unobserved
        assert observer.results == [observed]

    def test_setup_only_observer_perturbation_takes_effect(
        self, small_market, catalog, pinned_config
    ):
        class SlowSetup:
            def adjust_setup_time(self, t, config, setup_seconds):
                return setup_seconds + 600.0

        clean = run_pinned(small_market, catalog, pinned_config, ())
        slowed = run_pinned(small_market, catalog, pinned_config, (SlowSetup(),))
        assert slowed.deployments == clean.deployments == 1
        assert slowed.finish_time == pytest.approx(clean.finish_time + 600.0)
