"""Eviction-warning extension (paper §9, "Model Evolution").

Some providers (e.g. EC2's two-minute notice) warn before revoking spot
instances.  The paper sketches how Hourglass's model extends: if the
warning arrives early enough to complete a checkpoint, an eviction no
longer loses the work since the last checkpoint — only the redeploy
time.  This module provides:

* :class:`WarningPolicy` — the warning contract (lead seconds) and the
  decision of whether a save fits inside it;
* an expected-cost hook used by
  :class:`~repro.core.expected_cost.ApproximateCostEstimator` when
  constructed with a warning policy, implementing the §9 refinement of
  ``costT_fail``.

The execution simulator honours the same policy: on eviction, if the
warning lead covers ``t_save``, the progress accumulated in the current
interval up to the warning instant is checkpointed and survives.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_non_negative


@dataclass(frozen=True)
class WarningPolicy:
    """Provider eviction-warning contract.

    Attributes:
        lead_seconds: how long before the revocation the warning fires
            (0 = no warning, the paper's base model).
    """

    lead_seconds: float = 0.0

    def __post_init__(self):
        check_non_negative("lead_seconds", self.lead_seconds)

    @property
    def enabled(self) -> bool:
        """Whether a warning is configured at all."""
        return self.lead_seconds > 0.0

    def can_save(self, save_time: float) -> bool:
        """Does a checkpoint of ``save_time`` seconds fit in the lead?"""
        return self.enabled and save_time <= self.lead_seconds


#: EC2's spot interruption notice.
EC2_TWO_MINUTE_WARNING = WarningPolicy(lead_seconds=120.0)
NO_WARNING = WarningPolicy(lead_seconds=0.0)
