"""Workflow schedules: plan IR + streaming / Direct-Hop / Work-Sharing / BOE."""

from repro.schedule.boe import boe_plan
from repro.schedule.direct_hop import direct_hop_plan
from repro.schedule.plan import (
    ApplyEdges,
    CopyState,
    DeleteEdges,
    EvalFull,
    MarkSnapshot,
    Plan,
    Step,
)
from repro.schedule.streaming import streaming_plan
from repro.schedule.work_sharing import work_sharing_plan

__all__ = [
    "ApplyEdges",
    "CopyState",
    "DeleteEdges",
    "EvalFull",
    "MarkSnapshot",
    "Plan",
    "Step",
    "boe_plan",
    "direct_hop_plan",
    "streaming_plan",
    "work_sharing_plan",
]

WORKFLOWS = {
    "streaming": streaming_plan,
    "direct-hop": direct_hop_plan,
    "work-sharing": work_sharing_plan,
    "boe": boe_plan,
}


def plan_for(workflow: str, unified) -> Plan:
    """Build the plan for a workflow by name."""
    try:
        factory = WORKFLOWS[workflow]
    except KeyError:
        raise KeyError(
            f"unknown workflow {workflow!r}; choose from {sorted(WORKFLOWS)}"
        ) from None
    return factory(unified)
