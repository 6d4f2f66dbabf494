"""Checkpoint-interval policy (§5.1): Daly's first-order optimum.

Hourglass, like Flint, sizes the checkpoint interval per configuration
from Daly's formula: ``t_ckpt = sqrt(2 * t_save * MTTF)``, trading the
checkpoint overhead against the expected recomputation loss.
"""

from __future__ import annotations

import math

from repro.utils.validation import check_non_negative, check_positive


def daly_interval(save_time: float, mttf: float) -> float:
    """Optimal interval between checkpoint *starts*.

    Args:
        save_time: seconds to write one checkpoint (t_save).
        mttf: mean time to failure of the deployment, seconds.

    Returns:
        The optimal useful-computation span between checkpoints.  With a
        zero save time the formula degenerates to 0; we floor the result
        at ``save_time`` (checkpointing more often than the checkpoint
        cost itself is never useful).
    """
    check_non_negative("save_time", save_time)
    check_positive("mttf", mttf)
    interval = math.sqrt(2.0 * save_time * mttf)
    return max(interval, save_time)
