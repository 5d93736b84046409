"""Detect-and-recover: validation-driven repair by recomputation from G_c.

The recovery path is the paper's premise turned into a mechanism: because
every snapshot is common graph + addition batches (CommonGraph, ASPLOS'23),
any snapshot whose values are corrupted or lost can be re-derived cheaply —
evaluate once on ``G_c``, then incrementally apply the snapshot's extra
edges.  Detection reuses the existing validation machinery (an independent
from-scratch reference per snapshot); repair never trusts the corrupted
state, only the shared structural record.

Three layers can be repaired this way:

* **snapshot values** — :func:`recompute_snapshot_from_common`;
* **event-level state** — :func:`eventlevel_recompute_from_common` replays
  the per-event datapath from ``G_c``;
* **version-table composition** — :func:`rebuild_version_table` re-derives
  the batch bookkeeping from the immutable plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.accel.eventsim import EventLevelSimulator
from repro.accel.version_table import BatchStatus, VersionTable
from repro.algorithms.base import Algorithm
from repro.engines.executor import PlanExecutor, WorkflowResult
from repro.engines.validation import evaluate_reference
from repro.evolving.batches import BatchId
from repro.evolving.snapshots import EvolvingScenario
from repro.resilience.budget import Budget
from repro.schedule.plan import (
    ApplyEdges,
    CopyState,
    DeleteEdges,
    EvalFull,
    MarkSnapshot,
    Plan,
)

__all__ = [
    "RecoveryReport",
    "SnapshotRepair",
    "detect_and_recover",
    "eventlevel_recompute_from_common",
    "expected_state_batches",
    "rebuild_version_table",
    "recompute_snapshot_from_common",
    "record_version_table",
    "verify_version_table",
]


def recompute_snapshot_from_common(
    scenario: EvolvingScenario,
    algorithm: Algorithm,
    snapshot: int,
    budget: Budget | None = None,
) -> np.ndarray:
    """Re-derive one snapshot's values from the common graph.

    Runs a minimal two-step plan — full evaluation on ``G_c``, then one
    incremental application of the snapshot's extra edges (every snapshot
    is a superset of the common graph, so the delta is additions only).
    Must run *outside* any active fault-injection context.
    """
    u = scenario.unified
    extra = np.flatnonzero(u.presence_mask(snapshot) & ~u.common_mask)
    plan = Plan(
        name=f"recover-G{snapshot}", n_states=1, initial_graph="common"
    )
    plan.steps.append(EvalFull(0, label="recover-eval-Gc"))
    if extra.size:
        plan.steps.append(ApplyEdges((0,), extra, label="recover-apply"))
    plan.steps.append(MarkSnapshot(0, snapshot))
    result = PlanExecutor(scenario, algorithm, budget=budget).run(plan)
    return result.snapshot_values[snapshot]


def eventlevel_recompute_from_common(
    algorithm: Algorithm,
    unified,
    snapshot: int,
    source: int,
    budget: Budget | None = None,
) -> np.ndarray:
    """Event-granular recovery: replay the datapath from ``G_c``.

    A fresh :class:`EventLevelSimulator` converges on the common graph,
    then the batch reader seeds the snapshot's extra edges and the queue
    drains again — the per-event analogue of the plan-level recovery.
    """
    sim = EventLevelSimulator(algorithm, unified)
    sim.set_graph(0, unified.common_mask.copy())
    sim.set_source(source)
    sim.run(budget=budget)
    extra = np.flatnonzero(
        unified.presence_mask(snapshot) & ~unified.common_mask
    )
    if extra.size:
        sim.seed_batch(extra, versions=[0])
        sim.run(budget=budget)
    return sim.values[0].copy()


# -- version-table integrity ---------------------------------------------------


def expected_state_batches(plan: Plan) -> dict[int, set[BatchId]]:
    """Replay a plan structurally: which batches land in each state."""
    comp: dict[int, set[BatchId]] = {s: set() for s in range(plan.n_states)}
    for step in plan.steps:
        if isinstance(step, CopyState):
            comp[step.dst] = set(comp[step.src])
        elif isinstance(step, ApplyEdges):
            for t in step.targets:
                comp[t].update(step.batches)
        elif isinstance(step, DeleteEdges):
            comp[step.state].update(step.batches)
    return comp


def record_version_table(plan: Plan) -> VersionTable | None:
    """Book a plan's batch compositions in a hardware version table.

    Every copy, apply and delete step the executor ran, in order, with
    one ``version-table.corrupt-entry`` opportunity per finished batch
    (see :meth:`VersionTable.record_segment`); None when the plan
    carries no batch ids.  Executor states are physically separate value rows, so
    every entry is peeled up front (no chain aliasing): the table tracks
    *which batches each state's values include*, the composition record
    :func:`verify_version_table` cross-checks against the plan.
    """
    if plan.n_states < 1 or not any(
        getattr(s, "batches", ()) for s in plan.steps
    ):
        return None
    table = VersionTable(plan.n_states)
    for entry in table.entries:
        table.peel(entry.snapshot)
    table.record_segment([
        s for s in plan.steps
        if isinstance(s, (CopyState, ApplyEdges, DeleteEdges))
    ])
    for entry in table.entries:
        table.mark_complete(entry.snapshot)
    return table


def verify_version_table(plan: Plan, table: VersionTable | None) -> list[int]:
    """States whose recorded composition disagrees with the plan."""
    if table is None:
        return []
    expected = expected_state_batches(plan)
    return [
        s
        for s in range(min(plan.n_states, table.n_snapshots))
        if table.composition(s) != expected[s]
    ]


def rebuild_version_table(plan: Plan) -> VersionTable:
    """Re-derive the version table from the plan alone (the shared,
    immutable record) — recovery for corrupted composition entries."""
    table = VersionTable(max(plan.n_states, 1))
    for entry in table.entries:
        table.peel(entry.snapshot)
    for state, batches in expected_state_batches(plan).items():
        table.entries[state].applied = set(batches)
    for step in plan.steps:
        for b in getattr(step, "batches", ()):
            table.batch_status[b] = BatchStatus.COMPLETE
    for entry in table.entries:
        table.mark_complete(entry.snapshot)
    return table


# -- the combined detect-and-recover pass -------------------------------------


@dataclass
class SnapshotRepair:
    """One corrupted snapshot and the outcome of its recomputation."""

    snapshot: int
    corrupted_vertices: int
    recovered: bool


@dataclass
class RecoveryReport:
    """What a detect-and-recover pass found and fixed."""

    plan_name: str
    repairs: list[SnapshotRepair] = field(default_factory=list)
    table_corrupt_states: list[int] = field(default_factory=list)
    table_rebuilt: bool = False

    @property
    def corrupted_snapshots(self) -> list[int]:
        return [r.snapshot for r in self.repairs]

    @property
    def detected(self) -> bool:
        return bool(self.repairs) or bool(self.table_corrupt_states)

    @property
    def ok(self) -> bool:
        """Everything detected was also repaired."""
        values_ok = all(r.recovered for r in self.repairs)
        table_ok = not self.table_corrupt_states or self.table_rebuilt
        return values_ok and table_ok


def detect_and_recover(
    scenario: EvolvingScenario,
    algorithm: Algorithm,
    result: WorkflowResult,
    plan: Plan | None = None,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    budget: Budget | None = None,
    version_table: VersionTable | None = None,
) -> RecoveryReport:
    """Validate a workflow result and repair what validation rejects.

    Detection is the existing validation machinery — an independent
    from-scratch reference per snapshot.  Every rejected snapshot is
    recomputed from the common graph (in place, in ``result``) and
    re-checked.  With ``plan`` and its ``version_table``
    (:func:`record_version_table`) given, the table's composition is
    cross-checked too and rebuilt from the plan on mismatch.
    """
    report = RecoveryReport(result.plan_name)
    for k in sorted(result.snapshot_values):
        expected = evaluate_reference(scenario, algorithm, k)
        got = result.values(k)
        close = np.isclose(got, expected, rtol=rtol, atol=atol, equal_nan=True)
        if close.all():
            continue
        repaired = recompute_snapshot_from_common(
            scenario, algorithm, k, budget=budget
        )
        ok = bool(
            np.allclose(repaired, expected, rtol=rtol, atol=atol, equal_nan=True)
        )
        result.snapshot_values[k] = repaired
        report.repairs.append(
            SnapshotRepair(k, int((~close).sum()), ok)
        )
    if plan is not None and version_table is not None:
        bad = verify_version_table(plan, version_table)
        if bad:
            report.table_corrupt_states = bad
            report.table_rebuilt = not verify_version_table(
                plan, rebuild_version_table(plan)
            )
    return report
