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
with a ``key`` (the BOE plan) has its tables built once per union and
source and reused by every later plan with that key.

A plan shaped as the BOE plan is (evaluations on the common graph, one
segment of copies and applies, marks) runs as one call of the engine's
value-only worklist kernel
(:meth:`~repro.engines.daic.MultiVersionEngine.run_worklist`), with no
per-step dispatch or presence matrix, where its run reads values only:
it records no trace, and its budget caps no rounds and no events (the
worklist has no rounds to record or cap).
:meth:`PlanExecutor.summarize` is the same call for a caller that wants
only each snapshot's summary (the service's plans): the kernel also
writes the summaries, and no marked row is copied out.  Every other
plan runs whole on the round kernel: another shape (streaming,
Direct-Hop, Work-Sharing, a plan that deletes), a traced run (the
simulators, metrics and software baselines), a round-capped one, the
numpy tier, and a plan the worklist refused.

The executor keeps no composition record: the fault campaign, its one
reader, books the plan into a version table itself
(:func:`repro.resilience.recovery.record_version_table`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.base import Algorithm
from repro.engines.daic import MultiVersionEngine, StepTable, WorklistRun
from repro.engines.deletion import DeletionStats
from repro.engines.trace import TraceCollector
from repro.evolving.snapshots import EvolvingScenario
from repro.perf.backend import OPS, STEP_APPLY, STEP_COPY, get_backend
from repro.resilience import faults
from repro.resilience.budget import Budget, BudgetClock
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
        #: the budget's clock once :meth:`summarize` started it: a plan
        #: the worklist refused reruns in :meth:`run` on the same clock
        self._clock: BudgetClock | None = None
        #: the last plan the worklist kernel refused, which :meth:`run`
        #: then keeps on the round loop rather than refusing it again
        self._refused: Plan | None = None

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
            clock=self._clock,
        )

        result = WorkflowResult(plan.name, {}, collector)
        shape = None if needs_deletion else self._shape(plan)
        if shape is not None:
            run = self._call(engine, plan, shape, summaries=False)
            if run is not None:
                for k, row in enumerate(shape[3]):
                    result.snapshot_values[k] = run.values[row].copy()
                return result

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
                values[step.state] = engine.evaluate_full(
                    presence[step.state],
                    source if step.source is None else step.source,
                    phase="full",
                    tag=step.label,
                    parent_row=step.state if needs_deletion else None,
                )
            elif isinstance(step, MarkSnapshot):
                snap = values[step.state].copy()
                fire = faults.maybe_fire("executor.bitflip-value")
                if fire is not None:
                    self._bitflip(snap, fire, step.snapshot)
                result.snapshot_values[step.snapshot] = snap
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown plan step {step!r}")
        return result

    def summarize(self, plan: Plan) -> WorklistRun | None:
        """A value-only plan run as one worklist kernel call, its snapshots
        summarised by the kernel; None where that path does not take the
        plan, whose caller then runs :meth:`run` and summarises the
        values itself.  The run's ``reached`` and ``checksum`` hold
        snapshots ``0..k-1`` in order."""
        shape = self._shape(plan)
        if shape is None:
            return None
        if self.budget is not None:
            self._clock = self.budget.start()
        engine = MultiVersionEngine(
            self.algorithm, self.unified, budget=self.budget,
            clock=self._clock,
        )
        return self._call(engine, plan, shape, summaries=True)

    def _shape(self, plan: Plan) -> tuple | None:
        """What a plan's one worklist call runs from (:meth:`_one_call`),
        or None where the one-call path does not take the plan.

        It takes a plan the kernel has not refused, of an executor the
        kernel runs for (:meth:`_worklist_runs`), shaped as the BOE plan
        is: its ``EvalFull`` steps on the common
        graph, one segment of ``CopyState`` and ``ApplyEdges`` steps, then
        its ``MarkSnapshot`` steps.  No fault on batch delivery or on the
        marked values may be armed: both act on the steps this path does
        not run one by one.
        """
        if not self._worklist_runs() or plan.initial_graph != "common" or (
            plan is self._refused
        ) or faults.armed("schedule.truncate-batch") or faults.armed(
            "executor.bitflip-value"
        ):
            return None
        shape = (
            self._one_call(plan) if plan.key is None
            else self.unified.memo(
                ("one-call", plan.key, self.scenario.source),
                lambda: self._one_call(plan),
            )
        )
        return shape or None

    def _call(
        self, engine: MultiVersionEngine, plan: Plan, shape: tuple,
        summaries: bool,
    ) -> WorklistRun | None:
        """Run ``plan`` from its :meth:`_shape` as one worklist kernel
        call (with ``summaries``, the marked rows' too); None, and the
        plan remembered as refused, where the kernel refuses it."""
        eval_steps, table, edge_tag, marks = shape
        source = self.scenario.source
        evals = np.array(
            [
                (step.state, source if step.source is None else step.source)
                for step in (plan.steps[i] for i in eval_steps)
            ],
            dtype=np.int64,
        ).reshape(-1, 2)
        run = engine.run_worklist(
            max(plan.n_states, 1), evals, edge_tag, table,
            marks if summaries else None,
        )
        if run is None:
            self._refused = plan
        return run

    def _worklist_runs(self) -> bool:
        """Can the worklist kernel run this executor's plans?  It runs on
        the compiled tier, for an algorithm with a ``kernel_op``, and has
        no rounds: it records no trace, and a wall clock is all it can be
        metered by, so the budget caps no rounds and no events."""
        budget = self.budget
        return (
            not self.record_traces
            and (budget is None or (
                budget.max_rounds is None and budget.max_events is None
            ))
            and get_backend().worklist_eval is not None
            and getattr(self.algorithm, "kernel_op", None) in OPS
        )

    def _one_call(self, plan: Plan) -> tuple | bool:
        """What a plan's one worklist call runs from: the indices of its
        ``EvalFull`` steps, its one segment (None without one), each union
        edge's tag (``_kernels.c``: -1 the common graph, -2 no row, ``s``
        the rows holding the segment's step ``s``) and the rows of
        snapshots ``0..k-1``.  False for a plan of another shape, and for
        one whose rows this cannot tell apart: two evaluations of one row,
        an edge two of its batches add, a batch applied to a row that
        neither an evaluation nor a copy of one set up, or a snapshot left
        unmarked."""
        evals: list[int] = []
        table = None
        marks: dict[int, int] = {}
        for item in self._schedule(plan):
            if isinstance(item, StepTable):
                if table is not None or marks or any(
                    k != STEP_COPY and k != STEP_APPLY for k in item.kinds
                ):
                    return False
                table = item
                continue
            step = plan.steps[item]
            if isinstance(step, EvalFull) and table is None and not marks:
                evals.append(item)
            elif isinstance(step, MarkSnapshot):
                marks[step.snapshot] = step.state
            else:
                return False
        if sorted(marks) != list(range(len(marks))):
            return False
        tags = np.where(self.unified.common_mask, np.int32(-1), np.int32(-2))
        ready = {plan.steps[i].state for i in evals}
        if len(ready) != len(evals):
            return False
        if table is not None:
            for s, (kind, rows, seeds) in enumerate(
                zip(table.kinds, table.rows, table.seeds)
            ):
                if kind == STEP_COPY:
                    if rows[0] in ready:
                        ready.add(rows[1])
                    else:
                        ready.discard(rows[1])
                    continue
                if not ready.issuperset(rows):
                    return False
                held = tags[seeds]
                if np.any(held >= 0):
                    return False
                # an edge of the common graph is in every row already
                tags[seeds] = np.where(held == -1, np.int32(-1), np.int32(s))
        rows = np.array([marks[k] for k in range(len(marks))], dtype=np.int64)
        return tuple(evals), table, _read_only(tags), _read_only(rows)

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


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr``, frozen: it is memoised on the union and shared by every
    later plan."""
    arr.flags.writeable = False
    return arr
