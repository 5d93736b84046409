"""Unit tests for the plan executor's state mechanics."""

import numpy as np

from repro.algorithms import SSSP, get_algorithm
from repro.engines import PlanExecutor
from repro.evolving.batches import BatchId, BatchKind
from repro.schedule.plan import (
    ApplyEdges,
    CopyState,
    DeleteEdges,
    EvalFull,
    MarkSnapshot,
    Plan,
)


def manual_plan(unified, steps, n_states, initial="common"):
    plan = Plan(name="manual", n_states=n_states, initial_graph=initial)
    plan.steps.extend(steps)
    return plan


def test_copy_state_duplicates_values_and_membership(tiny_scenario):
    u = tiny_scenario.unified
    plan = manual_plan(
        u,
        [
            EvalFull(0),
            CopyState(0, 1),
            MarkSnapshot(0, 0),
        ],
        n_states=2,
    )
    executor = PlanExecutor(tiny_scenario, SSSP())
    result = executor.run(plan)
    assert 0 in result.snapshot_values


def test_multi_target_apply_writes_back_all_targets(tiny_scenario):
    u = tiny_scenario.unified
    batch = BatchId(BatchKind.ADDITION, 0)
    idx = u.batch_edges(batch)
    plan = manual_plan(
        u,
        [
            EvalFull(0),
            CopyState(0, 1),
            CopyState(0, 2),
            ApplyEdges((1, 2), idx, (batch,)),
            MarkSnapshot(1, 0),
            MarkSnapshot(2, 1),
        ],
        n_states=3,
    )
    result = PlanExecutor(tiny_scenario, SSSP()).run(plan)
    # both targets got identical updates (identical inputs)
    assert np.allclose(
        result.values(0), result.values(1), equal_nan=True
    )


def test_single_and_multi_target_agree(tiny_scenario):
    """Applying a batch via a multi-target step equals two single steps."""
    u = tiny_scenario.unified
    algo = get_algorithm("sswp")
    batch = BatchId(BatchKind.ADDITION, 0)
    idx = u.batch_edges(batch)

    multi = manual_plan(
        u,
        [
            EvalFull(0), CopyState(0, 1), CopyState(0, 2),
            ApplyEdges((1, 2), idx, (batch,)),
            MarkSnapshot(1, 0), MarkSnapshot(2, 1),
        ],
        n_states=3,
    )
    single = manual_plan(
        u,
        [
            EvalFull(0), CopyState(0, 1), CopyState(0, 2),
            ApplyEdges((1,), idx, (batch,)),
            ApplyEdges((2,), idx, (batch,)),
            MarkSnapshot(1, 0), MarkSnapshot(2, 1),
        ],
        n_states=3,
    )
    a = PlanExecutor(tiny_scenario, algo).run(multi)
    b = PlanExecutor(tiny_scenario, algo).run(single)
    for k in (0, 1):
        assert np.allclose(a.values(k), b.values(k), equal_nan=True)


def test_eval_full_custom_source(tiny_scenario):
    u = tiny_scenario.unified
    other = (tiny_scenario.source + 7) % tiny_scenario.n_vertices
    plan = manual_plan(
        u, [EvalFull(0, source=other), MarkSnapshot(0, 0)], n_states=1
    )
    result = PlanExecutor(tiny_scenario, SSSP()).run(plan)
    assert result.values(0)[other] == 0.0


def test_initial_graph_snapshot0(tiny_scenario):
    u = tiny_scenario.unified
    plan = manual_plan(
        u, [EvalFull(0), MarkSnapshot(0, 0)], n_states=1, initial="snapshot0"
    )
    algo = SSSP()
    result = PlanExecutor(tiny_scenario, algo).run(plan)
    from repro.engines.validation import evaluate_reference

    assert np.allclose(
        result.values(0),
        evaluate_reference(tiny_scenario, algo, 0),
        equal_nan=True,
    )


def test_deletion_steps_track_parent_rows(tiny_scenario):
    """Streaming-style plan: parents copied across CopyState, repair works
    on the copied state."""
    u = tiny_scenario.unified
    dele = BatchId(BatchKind.DELETION, 0)
    idx = u.batch_edges(dele)
    plan = manual_plan(
        u,
        [
            EvalFull(0),
            CopyState(0, 1),
            DeleteEdges(1, idx, (dele,)),
            MarkSnapshot(1, 1),
        ],
        n_states=2,
        initial="snapshot0",
    )
    algo = SSSP()
    result = PlanExecutor(tiny_scenario, algo).run(plan)
    from repro.engines.validation import evaluate_reference

    # state 1 = snapshot 0 minus Δ-_0 = snapshot 1 minus Δ+_0; verify by
    # building the expected membership directly
    from repro.engines import MultiVersionEngine

    mask = u.presence_mask(0).copy()
    mask[idx] = False
    expected = MultiVersionEngine(algo, u).evaluate_full(
        mask, tiny_scenario.source
    )
    assert np.allclose(result.values(1), expected, equal_nan=True)
    assert len(result.deletion_stats) == 1


def test_executions_align_with_work_steps(tiny_scenario):
    from repro.schedule import boe_plan

    plan = boe_plan(tiny_scenario.unified)
    result = PlanExecutor(tiny_scenario, SSSP(), record_traces=True).run(plan)
    work = [
        s
        for s in plan.steps
        if isinstance(s, (EvalFull, ApplyEdges, DeleteEdges))
    ]
    assert len(result.collector.executions) == len(work)
    for step, execution in zip(work, result.collector.executions):
        if isinstance(step, ApplyEdges):
            assert execution.targets == step.targets


def test_empty_batch_application_is_noop(tiny_scenario):
    """Zero-edge batches (possible at tiny scales / zero add fractions)
    execute cleanly and change nothing."""
    u = tiny_scenario.unified
    algo = SSSP()
    plan = manual_plan(
        u,
        [
            EvalFull(0),
            ApplyEdges((0,), np.empty(0, dtype=np.int64), ()),
            MarkSnapshot(0, 0),
        ],
        n_states=1,
        initial="snapshot0",
    )
    result = PlanExecutor(tiny_scenario, algo).run(plan)
    from repro.engines.validation import evaluate_reference

    assert np.allclose(
        result.values(0),
        evaluate_reference(tiny_scenario, algo, 0),
        equal_nan=True,
    )


def test_deletions_only_scenario_runs_all_workflows():
    """add_fraction=0 produces empty addition batches everywhere; every
    workflow must handle them."""
    from repro.engines.validation import validate_workflow
    from repro.evolving import synthesize_scenario
    from repro.graph.generators import rmat_edges
    from repro.schedule import WORKFLOWS, plan_for

    pool = rmat_edges(48, 360, seed=5)
    scenario = synthesize_scenario(
        pool, n_snapshots=4, batch_pct=0.05, add_fraction=0.0, seed=2
    )
    algo = get_algorithm("sswp")
    for wf in sorted(WORKFLOWS):
        result = PlanExecutor(scenario, algo).run(plan_for(wf, scenario.unified))
        validate_workflow(scenario, algo, result)


def test_segment_booking_matches_per_batch_booking(tiny_scenario):
    """The executor books a segment's batches in one version-table call:
    the compositions, the fault opportunities and what each injected
    ``version-table.corrupt-entry`` fault did are those of booking every
    batch with begin_batch/finish_batch, for every workflow and where
    the fault lands."""
    from repro.accel.version_table import VersionTable
    from repro.resilience import faults
    from repro.schedule import WORKFLOWS

    def booked(plan, per_batch, skip):
        table = VersionTable(plan.n_states)
        for entry in table.entries:
            table.peel(entry.snapshot)
        fault_plan = faults.FaultPlan(
            ["version-table.corrupt-entry"], seed=7, skip=skip
        )
        moved = [
            s for s in plan.steps
            if isinstance(s, (CopyState, ApplyEdges, DeleteEdges))
        ]
        with faults.inject(fault_plan):
            if not per_batch:
                table.record_segment(moved)
            for step in moved if per_batch else ():
                if isinstance(step, CopyState):
                    table.entries[step.dst].applied = set(
                        table.entries[step.src].applied
                    )
                    continue
                targets = list(
                    step.targets if isinstance(step, ApplyEdges)
                    else (step.state,)
                )
                for b in step.batches:
                    table.begin_batch(b, targets)
                for b in step.batches:
                    table.finish_batch(b, targets)
        return (
            [table.composition(k) for k in range(plan.n_states)],
            fault_plan._opportunities,
            [(r.point, r.detail) for r in fault_plan.fired],
        )

    for name, make_plan in sorted(WORKFLOWS.items()):
        plan = make_plan(tiny_scenario.unified)
        for skip in (0, 3, 10_000):
            ref = booked(plan, True, skip)
            assert booked(plan, False, skip) == ref, (name, skip)
            assert ref[2] or skip == 10_000, name
