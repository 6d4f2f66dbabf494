"""Lifecycle-facing strategy objects resolved by the planning service.

The service is the strategy registry for the decision path: the
simulator and experiment harnesses ask
``service.provisioner("hourglass")`` (or any baseline key) instead of
constructing provisioner classes directly.  ``hourglass`` resolves to a
:class:`~repro.core.provisioner.HourglassProvisioner` bound to the
service, so every ``select()`` plans from its shared caches; the
baselines are stateless (or cheaply per-job-stateful) and resolve to
fresh instances of their :mod:`repro.core.baselines` classes.
"""

from __future__ import annotations

from typing import Callable

from repro.core.baselines import (
    DeadlineProtected,
    HourglassNaiveProvisioner,
    OnDemandProvisioner,
    ProteusProvisioner,
    SpotOnProvisioner,
)
from repro.core.provisioner import HourglassProvisioner, Provisioner

#: Strategy key -> factory(service): the one strategy registry.  Figure
#: grids, ablations, the load harness and the examples all resolve
#: strategies by these names, through ``PlanningService.provisioner``.
SERVICE_STRATEGIES: dict[str, Callable[..., Provisioner]] = {
    "hourglass": HourglassProvisioner,
    "proteus": lambda service: ProteusProvisioner(),
    "spoton": lambda service: SpotOnProvisioner(),
    "proteus+dp": lambda service: DeadlineProtected(ProteusProvisioner()),
    "spoton+dp": lambda service: DeadlineProtected(SpotOnProvisioner()),
    "hourglass-naive": lambda service: HourglassNaiveProvisioner(),
    "on-demand": lambda service: OnDemandProvisioner(),
}
