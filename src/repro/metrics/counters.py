"""Workflow activity counters used by the motivation and evaluation plots.

These aggregate the plan structure (Fig. 3: applied-edge counts) and the
execution traces (Figs. 16-18: normalized edge reads, vertex reads and
writes) without involving the timing model, so they are exact properties of
the workflows themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algorithms.base import Algorithm
from repro.engines.executor import PlanExecutor
from repro.evolving.snapshots import EvolvingScenario
from repro.schedule import plan_for

__all__ = ["WorkflowActivity", "workflow_activity", "applied_edge_counts"]


@dataclass(frozen=True)
class WorkflowActivity:
    """Trace-level activity of one workflow run."""

    workflow: str
    edge_reads: int
    vertex_reads: int
    vertex_writes: int
    events: int
    rounds: int


def workflow_activity(
    scenario: EvolvingScenario, algorithm: Algorithm, workflow: str
) -> WorkflowActivity:
    """Run a workflow functionally and aggregate its trace counters."""
    plan = plan_for(workflow, scenario.unified)
    result = PlanExecutor(scenario, algorithm, record_traces=True).run(plan)
    collector = result.collector
    return WorkflowActivity(
        workflow=workflow,
        edge_reads=collector.total("edges_fetched"),
        vertex_reads=collector.total("vertex_reads"),
        vertex_writes=collector.total("vertex_writes"),
        events=collector.total("events_generated"),
        rounds=sum(e.n_rounds for e in collector.executions),
    )


def applied_edge_counts(scenario: EvolvingScenario) -> dict[str, int]:
    """Fig. 3: edges applied per workflow (streaming counts deletions too)."""
    unified = scenario.unified
    out: dict[str, int] = {}
    for name in ("streaming", "direct-hop", "work-sharing", "boe"):
        plan = plan_for(name, unified)
        out[name] = plan.applied_edge_total() + plan.deleted_edge_total()
    return out
