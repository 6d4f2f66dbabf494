"""Hourglass core: slack-aware provisioning, expected cost, simulation."""

from repro.core.accounting import (
    CostBreakdown,
    PhaseCosts,
    breakdown,
    format_breakdown,
    setup_table,
)
from repro.core.baselines import (
    DeadlineProtected,
    HourglassNaiveProvisioner,
    OnDemandProvisioner,
    ProteusProvisioner,
    SpotOnProvisioner,
)
from repro.core.ckpt_policy import daly_interval
from repro.core.expected_cost import (
    ApproximateCostEstimator,
    Decision,
    DecisionBudgetExceeded,
    ExactCostEstimator,
)
from repro.core.job import (
    COLORING_PROFILE,
    PAGERANK_PROFILE,
    PAPER_PROFILES,
    SSSP_PROFILE,
    ApplicationProfile,
    JobSpec,
    job_with_slack,
)
from repro.core.perfmodel import (
    RELOAD_FULL,
    RELOAD_MICRO,
    PerformanceModel,
    last_resort,
)
from repro.core.phases import ACCOUNT_RAW, ACCOUNT_TIME, Phase, PhaseModel
from repro.core.provisioner import (
    HourglassProvisioner,
    Provisioner,
    ProvisioningContext,
)
from repro.core.recurring import (
    InterleavedRecurringDriver,
    RecurringJobSpec,
    RecurringOutcome,
)
from repro.core.simulator import ExecutionSimulator, on_demand_baseline_cost
from repro.core.slack import SlackModel
from repro.core.warning import (
    EC2_TWO_MINUTE_WARNING,
    NO_WARNING,
    WarningPolicy,
)

__all__ = [
    "ApplicationProfile",
    "CostBreakdown",
    "PhaseCosts",
    "breakdown",
    "format_breakdown",
    "setup_table",
    "EC2_TWO_MINUTE_WARNING",
    "NO_WARNING",
    "WarningPolicy",
    "ACCOUNT_RAW",
    "ACCOUNT_TIME",
    "Phase",
    "PhaseModel",
    "ApproximateCostEstimator",
    "COLORING_PROFILE",
    "Decision",
    "DecisionBudgetExceeded",
    "DeadlineProtected",
    "ExactCostEstimator",
    "ExecutionSimulator",
    "HourglassNaiveProvisioner",
    "HourglassProvisioner",
    "JobSpec",
    "OnDemandProvisioner",
    "PAGERANK_PROFILE",
    "PAPER_PROFILES",
    "PerformanceModel",
    "Provisioner",
    "ProvisioningContext",
    "ProteusProvisioner",
    "RELOAD_FULL",
    "RELOAD_MICRO",
    "InterleavedRecurringDriver",
    "RecurringJobSpec",
    "RecurringOutcome",
    "SSSP_PROFILE",
    "SlackModel",
    "SpotOnProvisioner",
    "daly_interval",
    "job_with_slack",
    "last_resort",
    "on_demand_baseline_cost",
]
