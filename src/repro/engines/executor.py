"""Plan executor: runs any workflow plan on the DAIC engine.

The executor is the software realization of every workflow in the paper —
given a :class:`~repro.schedule.plan.Plan` it maintains the per-state value
arrays and graph-membership masks, drives the multi-version engine, and
returns the final query values of every snapshot.  On request
(``record_traces``) the same execution produces the round traces the
accelerator timing models replay; a caller that only wants values skips
them.

Each maximal run of ``CopyState``, ``ApplyEdges`` and ``DeleteEdges``
steps is a *segment*: the executor does batch delivery per step,
collects the steps into a :class:`~repro.engines.daic.StepTable` and
hands the table to the engine, which runs it on the compiled tier as
one kernel call (the kernel reads and writes the state rows in place,
runs each deletion's KickStarter repair, and writes each step's round
traces itself).  ``EvalFull`` and ``MarkSnapshot`` end a segment.  So a
streaming plan costs one call per snapshot, a Direct-Hop plan one call
per hop chain and a BOE plan one call for its whole schedule.  A plan
with a ``key`` (the multi-query BOE plan) has its tables built once per
union and reused by every later plan with that key.

An ``EvalFull`` step runs on the engine's value-only worklist kernel
(:meth:`~repro.engines.daic.MultiVersionEngine.evaluate_values`) when
the run records no trace, tracks no parents (its plan deletes nothing)
and its budget caps no rounds and no events: the worklist has no rounds
to record, repair from or cap.  So the service's plans (a wall-clock
budget) take it; the simulators, metrics and software baselines (they
record), the fault campaign and every round-capped caller keep the
round kernel, as does a step the worklist refuses.  The executor keeps
no composition record: the fault campaign, its one reader, books the
plan into a version table itself
(:func:`repro.resilience.recovery.record_version_table`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.base import Algorithm
from repro.engines.daic import MultiVersionEngine, StepTable
from repro.engines.deletion import DeletionStats
from repro.engines.trace import TraceCollector
from repro.evolving.snapshots import EvolvingScenario
from repro.resilience import faults
from repro.resilience.budget import Budget
from repro.schedule.plan import (
    ApplyEdges,
    CopyState,
    DeleteEdges,
    EvalFull,
    MarkSnapshot,
    Plan,
)

__all__ = ["PlanExecutor", "WorkflowResult"]


@dataclass
class WorkflowResult:
    """Final values per snapshot plus the collected execution traces
    (``collector`` is None unless the executor recorded them)."""

    plan_name: str
    snapshot_values: dict[int, np.ndarray]
    collector: TraceCollector | None
    deletion_stats: list[DeletionStats] = field(default_factory=list)

    def values(self, snapshot: int) -> np.ndarray:
        return self.snapshot_values[snapshot]


class PlanExecutor:
    """Executes workflow plans over an evolving scenario.

    Traces are opt-in: only callers that read ``result.collector`` (the
    accelerator models, the reuse/counter metrics, the software
    baselines) pass ``record_traces=True``; ``record_touched_edges``
    implies it.
    """

    def __init__(
        self,
        scenario: EvolvingScenario,
        algorithm: Algorithm,
        record_touched_edges: bool = False,
        edges_per_block: int = 8,
        budget: Budget | None = None,
        record_traces: bool = False,
    ) -> None:
        self.scenario = scenario
        self.algorithm = algorithm
        self.unified = scenario.unified
        self.record_touched_edges = record_touched_edges
        self.record_traces = record_traces or record_touched_edges
        self.edges_per_block = edges_per_block
        self.budget = budget

    def run(self, plan: Plan) -> WorkflowResult:
        unified = self.unified
        n = unified.n_vertices
        m = unified.n_union_edges
        needs_deletion = any(isinstance(s, DeleteEdges) for s in plan.steps)

        collector = (
            TraceCollector(m, self.record_touched_edges, n_vertices=n)
            if self.record_traces
            else None
        )
        engine = MultiVersionEngine(
            self.algorithm,
            unified,
            collector=collector,
            edges_per_block=self.edges_per_block,
            track_parents=needs_deletion,
            budget=self.budget,
        )

        n_states = max(plan.n_states, 1)
        values = np.full(
            (n_states, n), self.algorithm.identity, dtype=np.float64
        )
        presence = np.zeros((n_states, m), dtype=bool)
        initial_mask = (
            unified.common_mask
            if plan.initial_graph == "common"
            else unified.presence_mask(0)
        )

        # a run that reads values only evaluates its full steps on the
        # worklist kernel: it writes no trace, keeps no parents and caps
        # no rounds or events (a wall clock it meters)
        budget = self.budget
        value_only = collector is None and not needs_deletion and (
            budget is None
            or budget.max_rounds is None and budget.max_events is None
        )
        result = WorkflowResult(plan.name, {}, collector)
        source = self.scenario.source
        for item in self._schedule(plan):
            if isinstance(item, StepTable):
                result.deletion_stats += engine.run_segment(
                    values, presence, item
                )
                continue
            step = plan.steps[item]
            if isinstance(step, EvalFull):
                presence[step.state] = initial_mask
                root = source if step.source is None else step.source
                row = (
                    engine.evaluate_values(presence[step.state], root)
                    if value_only else None
                )
                if row is None:
                    row = engine.evaluate_full(
                        presence[step.state],
                        root,
                        phase="full",
                        tag=step.label,
                        parent_row=step.state if needs_deletion else None,
                    )
                values[step.state] = row
            elif isinstance(step, MarkSnapshot):
                snap = values[step.state].copy()
                fire = faults.maybe_fire("executor.bitflip-value")
                if fire is not None:
                    self._bitflip(snap, fire, step.snapshot)
                result.snapshot_values[step.snapshot] = snap
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown plan step {step!r}")
        return result

    def _schedule(self, plan: Plan) -> list:
        """The plan as the executor runs it: each segment as one
        :class:`StepTable`, every other step as its index in
        ``plan.steps``.  A keyed plan's is built once per union and
        source and shared, unless the fault that acts on batch delivery
        is armed."""
        if plan.key is None or faults.armed("schedule.truncate-batch"):
            return self._segments(plan.steps)
        return self.unified.memo(
            ("schedule", plan.key, self.scenario.source),
            lambda: self._segments(plan.steps),
        )

    def _segments(self, steps: list) -> list:
        source = self.scenario.source
        schedule: list = []
        segment = StepTable(source)
        for i, step in enumerate(steps):
            if isinstance(step, CopyState):
                segment.copy(step.src, step.dst)
            elif isinstance(step, ApplyEdges):
                segment.apply(step.targets, self._delivered(step), step.label)
            elif isinstance(step, DeleteEdges):
                segment.delete(step.state, step.edge_idx, step.label)
            else:
                if len(segment):
                    schedule.append(segment)
                    segment = StepTable(source)
                schedule.append(i)
        if len(segment):
            schedule.append(segment)
        return schedule

    @staticmethod
    def _bitflip(snap: np.ndarray, fire: faults.Fire, snapshot: int) -> None:
        """Flip a high-mantissa bit of one (preferably finite) value."""
        finite = np.flatnonzero(np.isfinite(snap) & (snap != 0.0))
        pool = finite if finite.size else np.arange(snap.shape[0])
        vertex = int(pool[int(fire.rng.integers(pool.size))])
        bits = snap.view(np.uint64)
        bits[vertex] ^= np.uint64(1) << np.uint64(51)
        fire.note(snapshot=snapshot, vertex=vertex, bit=51,
                  value=float(snap[vertex]))

    @staticmethod
    def _delivered(step: ApplyEdges) -> np.ndarray:
        """The edges a batch delivery hands the engine: all of them,
        unless the ``schedule.truncate-batch`` fault drops a tail."""
        edge_idx = step.edge_idx
        if edge_idx.size > 1:
            fire = faults.maybe_fire("schedule.truncate-batch")
            if fire is not None:
                # batch delivery loses its tail: the plan is intact, but
                # this application sees only a prefix of the edges
                keep = int(fire.rng.integers(1, edge_idx.size))
                fire.note(step=step.label, batch_size=int(edge_idx.size),
                          dropped=int(edge_idx.size - keep))
                edge_idx = edge_idx[:keep]
        return edge_idx
