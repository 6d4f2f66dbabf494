"""Slack accounting (§5.1, Fig 3): the paper's central quantities.

All functions are pure and implement the paper's formulae verbatim:

* ``slack(t) = horizon(t) - t_lrc_fixed - w(t) * t_lrc_exec``
* ``useful(c, t) = min(w * t_exec(c), slack(t) - t_switch(c), t_ckpt(c))``

The paper's ``expected_progress(c, t) = omega_c * useful(c, t) / t_lrc_exec``
is ``useful(c, t) / t_exec(c)``; the DP's success branch applies it.

where ``t_switch`` is the full ``t_fixed(c)`` when configuration ``c``
must be (re)deployed and just ``t_save(c)`` when ``c`` is already
running (the two cases the paper folds together to unclutter notation —
"the implementation accurately considers both cases"; so does ours).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.cloud.configuration import Configuration
from repro.core.ckpt_policy import daly_interval
from repro.core.perfmodel import PerformanceModel


@dataclass(frozen=True)
class SlackModel:
    """Binds a performance model to a last-resort config and deadline."""

    perf: PerformanceModel
    lrc: Configuration
    deadline: float

    # perf and lrc are frozen, so the last resort's timings are constants
    # of the instance: computed on first use, then three float operations
    # per slack() instead of a walk through the performance model.
    @cached_property
    def lrc_exec_time(self) -> float:
        """t_exec of the last-resort configuration."""
        return self.perf.exec_time(self.lrc)

    @cached_property
    def lrc_fixed_time(self) -> float:
        """t_fixed of the last-resort configuration."""
        return self.perf.fixed_time(self.lrc)

    def horizon(self, t: float) -> float:
        """Wall-clock time remaining until the deadline."""
        return self.deadline - t

    def slack(self, t: float, work_left: float) -> float:
        """Time available beyond a last-resort finish started now."""
        return (
            self.horizon(t)
            - self.lrc_fixed_time
            - work_left * self.lrc_exec_time
        )

    def switch_cost(self, config: Configuration, already_running: bool) -> float:
        """Slack consumed by committing to *config* for one interval."""
        if already_running:
            return self.perf.save_time(config)
        return self.perf.fixed_time(config)

    # ------------------------------------------------------------------
    # Slack-space primitives: everything the expected-cost recursion
    # needs depends on time only through the slack, so these take the
    # slack value directly (the t-based wrappers below convert).
    # ------------------------------------------------------------------
    def useful_from_slack(
        self,
        config: Configuration,
        slack: float,
        work_left: float,
        mttf: float | None = None,
        already_running: bool = False,
    ) -> float:
        """Length of the next useful computation interval on *config*.

        The minimum of: time to finish the job, slack remaining after
        reserving the switch costs, and the checkpoint interval (only
        for transient configs, where ``mttf`` must be provided).
        """
        bounds = [
            work_left * self.perf.exec_time(config),
            slack - self.switch_cost(config, already_running),
        ]
        if config.is_transient:
            if mttf is None:
                raise ValueError("mttf required for transient configurations")
            bounds.append(daly_interval(self.perf.save_time(config), mttf))
        return min(bounds)

    def feasible_from_slack(
        self,
        config: Configuration,
        slack: float,
        work_left: float,
        already_running: bool = False,
    ) -> bool:
        """Can *config* run a non-empty interval without risking the deadline?

        On-demand configurations are feasible when they can still finish
        before the deadline (running the job there to completion needs no
        further slack); transient configurations additionally need
        positive slack left after their switch cost.
        """
        if not config.is_transient:
            switch = self.switch_cost(config, already_running)
            # finish-by-deadline in slack terms:
            #   slack + lrc_fixed + w*lrc_exec >= switch + w*exec(config)
            return (
                slack
                + self.lrc_fixed_time
                + work_left * self.lrc_exec_time
                - switch
                - work_left * self.perf.exec_time(config)
                >= -1e-9
            )
        return slack - self.switch_cost(config, already_running) > 0.0

    # ------------------------------------------------------------------
    # Time-based wrappers
    # ------------------------------------------------------------------
    def useful(
        self,
        config: Configuration,
        t: float,
        work_left: float,
        mttf: float | None = None,
        already_running: bool = False,
    ) -> float:
        """Time-based wrapper of :meth:`useful_from_slack`."""
        return self.useful_from_slack(
            config, self.slack(t, work_left), work_left, mttf, already_running
        )

    def feasible(
        self,
        config: Configuration,
        t: float,
        work_left: float,
        already_running: bool = False,
    ) -> bool:
        """Time-based wrapper of :meth:`feasible_from_slack`."""
        return self.feasible_from_slack(
            config, self.slack(t, work_left), work_left, already_running
        )
