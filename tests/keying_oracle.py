"""Reference oracle for the planning service's keying: the fingerprint loop.

Relocated verbatim from ``repro.service.planning.PlanningService`` when
keying was made cheap (the last-resort constants cached on the
``SlackModel``, one identity-checked memo of ``(admitted catalogue,
estimator key)`` per session object in place of the per-model timing
fingerprint memo).  The production ``_keyed`` / ``request_key`` must
return ``==`` keys on every request, which
``tests/test_keying_equivalence.py`` asserts on generated requests — the
way ``tests/refine_oracle.py`` holds the batched refinement to its loop.
Never use it outside tests: it admits the catalogue and re-validates the
grids on every call.

:class:`KeyingOracle` wraps a live service and reads its configuration
(``admit``, ``resolved_grids``, ``warning``, ...) through attribute
delegation, and the service's module constants where it used to read
the removed constructor arguments, so the method bodies below otherwise
keep their original text.
"""

from __future__ import annotations

from repro.cloud.configuration import Configuration
from repro.core.expected_cost import check_dp_parameters
from repro.core.slack import SlackModel
from repro.service.planning import SNAPSHOT_CAPACITY, PlanError, PlanRequest


class KeyingOracle:
    """The original keying path over *service*'s configuration."""

    def __init__(self, service):
        self._service = service
        # perf-fingerprint memo: (id(perf), lrc name, catalog names) ->
        # (perf ref, timings, lrc_exec, lrc_fixed).  GIL-atomic dict ops;
        # a rare duplicate recompute is deterministic and harmless.
        self._fingerprints: dict[tuple, tuple] = {}

    def __getattr__(self, name):
        return getattr(self._service, name)

    def _catalog_key(self, catalog: tuple[Configuration, ...]) -> tuple:
        return tuple(c.name for c in catalog)

    def _estimator_key(
        self,
        catalog: tuple[Configuration, ...],
        slack_model: SlackModel,
        grids: tuple[float, float],
    ) -> tuple:
        """(catalog fingerprint, performance fingerprint, grid resolution).

        The fingerprint hashes the *values* the DP depends on — per-
        config timings, the last-resort anchor, the warning lead — not
        object identity, so distinct jobs with equal catalogues and
        performance models resolve to the same warm estimator.  The
        deadline is deliberately absent: the DP lives in slack space.
        """
        names = self._catalog_key(catalog)
        perf = slack_model.perf
        lrc = slack_model.lrc
        # Computing the timing fingerprint walks the whole catalogue
        # through the performance model — the hottest part of keying, so
        # it is memoised per (model identity, lrc, catalogue).  The
        # cached strong reference keeps the model alive, so its id()
        # cannot be recycled onto a different model while cached; a hit
        # is verified by identity before trust.
        fp_key = (id(perf), lrc.name, names)
        cached = self._fingerprints.get(fp_key)
        if cached is None or cached[0] is not perf:
            timings = tuple(
                (
                    perf.exec_time(c),
                    perf.save_time(c),
                    perf.setup_time(c),
                    perf.fixed_time(c),
                )
                for c in catalog
            )
            cached = (perf, timings, perf.exec_time(lrc), perf.fixed_time(lrc))
            if len(self._fingerprints) >= 4 * SNAPSHOT_CAPACITY:
                self._fingerprints.clear()
            self._fingerprints[fp_key] = cached
        return (
            names,
            cached[1],
            lrc.name,
            cached[2],
            cached[3],
            self.warning.lead_seconds,
            grids,
        )

    def _keyed(
        self, request: PlanRequest
    ) -> tuple[tuple[Configuration, ...], tuple[float, float], tuple]:
        """Admit *request* and resolve ``(catalog, grids, estimator key)``.

        The one keying path of the service.

        Raises:
            PlanError: the catalogue fails admission, or a grid is
                unusable.
        """
        catalog = self.admit(request.catalog)
        grids = self.resolved_grids(
            request.slack_model,
            request.t,
            request.work_left,
            request.slack_grid,
            request.work_grid,
        )
        try:
            check_dp_parameters(*grids)
        except ValueError as exc:
            raise PlanError(str(exc)) from None
        return catalog, grids, self._estimator_key(catalog, request.slack_model, grids)

    def request_key(self, request: PlanRequest) -> tuple | None:
        """Hashable decision identity of *request*, or None for baselines.

        Two hourglass requests with equal keys are guaranteed to produce
        bit-identical :class:`Decision`\\ s when planned back-to-back on
        this service, so an in-flight result can be shared between them
        (the frontend's coalescing rule).  The guarantee comes from the
        estimator's own memoisation: the DP memoises root states on
        ``(config, slack-cell, work-cell, running, depth)`` buckets, so
        any two requests agreeing on the estimator key, decision time
        (exact — it selects the rate snapshot and spot usability), slack
        cell, exact ``work_left`` (echoed verbatim in the decision),
        current configuration and uptime read identical costs and pick
        identical argmins.  Baseline strategies keep no memo and may
        depend on the exact deadline, so they return None (never
        coalesced — they are microseconds anyway).

        Raises:
            PlanError: the request fails admission (same rule
                :meth:`plan` applies).
        """
        if request.strategy != "hourglass":
            self.admit(request.catalog)
            return None
        _catalog, grids, key = self._keyed(request)
        slack = request.slack_model.slack(request.t, request.work_left)
        current = (
            request.current_config.name if request.current_config is not None else None
        )
        return (
            key,
            request.t,
            int(slack / grids[0]),
            request.work_left,
            current,
            request.current_uptime,
        )
