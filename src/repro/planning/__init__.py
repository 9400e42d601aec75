"""Fleet capacity planning: vectorized analytic scoring (Tier A) with
event-kernel replay verification of the finalists (Tier B).

See ``docs/planning.md`` for the surrogate math and the admissibility
argument behind the pruning bounds.
"""

from repro.planning.grid import (
    KindSpec,
    MAX_PLANS,
    PlanGrid,
    parse_devices,
)
from repro.planning.planner import (
    DeviceKind,
    PlanOptions,
    ProvisioningPlan,
    plan_capacity,
    resolve_kinds,
)
from repro.planning.replay import ReplayJob
from repro.planning.scorer import (
    AnalyticPlanScorer,
    ArrivalProfile,
    PRUNE_REASONS,
    PlanScores,
    TAIL_QUANTILE,
)

__all__ = [
    "AnalyticPlanScorer",
    "ArrivalProfile",
    "DeviceKind",
    "KindSpec",
    "MAX_PLANS",
    "PRUNE_REASONS",
    "PlanGrid",
    "PlanOptions",
    "PlanScores",
    "ProvisioningPlan",
    "ReplayJob",
    "TAIL_QUANTILE",
    "parse_devices",
    "plan_capacity",
    "resolve_kinds",
]
