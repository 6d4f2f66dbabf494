"""Shared error hierarchy for the execution-lifecycle core.

Both execution front-ends — the analytic :class:`ExecutionSimulator`
and the engine-backed :class:`HourglassRuntime` — drive the same
lifecycle loop, so they raise the same errors: :class:`ExecutionError`
for any non-progress condition, with :class:`HorizonError` and
:class:`StepBudgetError` narrowing the two recoverable-by-caller cases
(trace too short; runaway decision loop).
"""

from __future__ import annotations


class ExecutionError(RuntimeError):
    """Raised when an execution cannot make progress."""


class HorizonError(ExecutionError):
    """The run reached the end of the market trace before finishing."""


class StepBudgetError(ExecutionError):
    """The decision loop exceeded its step budget (runaway strategy)."""
