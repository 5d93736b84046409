"""Software and GPU baseline cost models (paper Fig. 14).

The paper compares MEGA against CommonGraph Work-Sharing implemented on
KickStarter and RisGraph (60-core Xeon), software BOE on RisGraph, and
Work-Sharing on Subway (an NVIDIA K80).  Running those systems is out of
scope for a Python reproduction, so each baseline is modelled as the same
*workflow* executed by our functional engines (identical algorithmic work —
events, edges, rounds) costed with a per-event service time that folds in
each platform's measured character:

* ``ns_per_event`` — aggregate per-event cost across all cores/SMs,
  calibrated so that the MEGA-vs-baseline geomean speedups land in the
  paper's reported bands (51x KickStarter, 29x RisGraph, 16x software BOE,
  12x Subway).  The *variation* across graphs and algorithms is emergent
  from the real event counts; only the platform constant is calibrated.
* software engines process scalar events (no row-wide version SIMD), so
  the models consume the per-version counters of the traces; software BOE
  additionally pays a locality penalty because concurrent snapshots on
  different cores do not share fetches (§5.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algorithms.base import Algorithm
from repro.engines.executor import PlanExecutor
from repro.evolving.snapshots import EvolvingScenario
from repro.schedule import plan_for

__all__ = ["SoftwareSystem", "BaselineReport", "SOFTWARE_SYSTEMS", "run_baseline"]


@dataclass(frozen=True)
class SoftwareSystem:
    """A modelled software/GPU platform running a CommonGraph workflow."""

    name: str
    workflow: str
    #: effective nanoseconds per event, all cores combined
    ns_per_event: float
    #: True: cost scalar per-(vertex, version) events (a sequential-ish
    #: framework executes every version's update).  False: cost the
    #: union-granular events — software BOE runs the per-snapshot updates
    #: of one batch on different cores, so wall time follows the largest
    #: (i.e. union) stream while ns_per_event carries the locality penalty
    #: of cores not sharing fetches.
    scalar: bool = True
    description: str = ""


SOFTWARE_SYSTEMS: dict[str, SoftwareSystem] = {
    s.name: s
    for s in (
        SoftwareSystem(
            "kickstarter-ws",
            "work-sharing",
            ns_per_event=19.5,
            description="CommonGraph WS on KickStarter, 60-core Xeon",
        ),
        SoftwareSystem(
            "risgraph-ws",
            "work-sharing",
            ns_per_event=11.1,
            description="CommonGraph WS on RisGraph, 60-core Xeon",
        ),
        SoftwareSystem(
            "risgraph-boe",
            "boe",
            ns_per_event=12.7,
            scalar=False,
            description=(
                "software BOE on RisGraph: concurrent snapshots on "
                "different cores, no shared fetches"
            ),
        ),
        SoftwareSystem(
            "subway-ws",
            "work-sharing",
            ns_per_event=4.7,
            description="CommonGraph WS on Subway, NVIDIA K80",
        ),
    )
}


@dataclass
class BaselineReport:
    """Modelled execution of one software baseline."""

    system: str
    workflow: str
    events: int
    update_time_ms: float
    total_time_ms: float


def run_baseline(
    scenario: EvolvingScenario,
    algorithm: Algorithm,
    system: SoftwareSystem | str,
) -> BaselineReport:
    """Execute the baseline's workflow and cost it with its platform model."""
    if isinstance(system, str):
        system = SOFTWARE_SYSTEMS[system]
    plan = plan_for(system.workflow, scenario.unified)
    result = PlanExecutor(scenario, algorithm, record_traces=True).run(plan)

    update_events = 0
    eval_events = 0
    for e in result.collector.executions:
        if system.scalar:
            work = sum(
                r.version_events_generated + r.version_events_popped
                for r in e.rounds
            )
        else:
            work = sum(
                r.events_generated + r.events_popped for r in e.rounds
            )
        if e.phase == "full":
            eval_events += work
        else:
            update_events += work

    update_ms = update_events * system.ns_per_event / 1e6
    total_ms = (update_events + eval_events) * system.ns_per_event / 1e6
    return BaselineReport(
        system=system.name,
        workflow=system.workflow,
        events=update_events,
        update_time_ms=update_ms,
        total_time_ms=total_ms,
    )
