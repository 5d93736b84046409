"""Tests for workflow plan generation (schedule IR)."""

import numpy as np
import pytest

from repro.evolving.batches import BatchKind
from repro.schedule import (
    ApplyEdges,
    CopyState,
    DeleteEdges,
    EvalFull,
    MarkSnapshot,
    boe_plan,
    direct_hop_plan,
    plan_for,
    streaming_plan,
    work_sharing_plan,
)

ALL_PLANS = [streaming_plan, direct_hop_plan, work_sharing_plan, boe_plan]


@pytest.mark.parametrize("factory", ALL_PLANS)
def test_every_plan_marks_every_snapshot(small_scenario, factory):
    plan = factory(small_scenario.unified)
    assert sorted(plan.snapshots_marked()) == list(
        range(small_scenario.n_snapshots)
    )


@pytest.mark.parametrize("factory", ALL_PLANS)
def test_states_within_bounds(small_scenario, factory):
    plan = factory(small_scenario.unified)
    for step in plan.steps:
        if isinstance(step, EvalFull):
            assert 0 <= step.state < plan.n_states
        elif isinstance(step, CopyState):
            assert 0 <= step.src < plan.n_states
            assert 0 <= step.dst < plan.n_states
        elif isinstance(step, ApplyEdges):
            assert all(0 <= t < plan.n_states for t in step.targets)


def test_plan_for_lookup(small_scenario):
    assert plan_for("boe", small_scenario.unified).name == "boe"
    with pytest.raises(KeyError):
        plan_for("bogus", small_scenario.unified)


def test_boe_simulations_build_one_schedule(small_pool, monkeypatch):
    """Recorded BOE and BOE+BP simulations of the five algorithms on one
    scenario build the BOE steps once and the executor's step tables
    once per (union, source); the plan from the scenario's source and
    the one-source plan share one step list."""
    from collections import Counter

    from repro.accel.mega import MegaSimulator
    from repro.algorithms import all_algorithms
    from repro.engines.executor import PlanExecutor
    from repro.evolving import synthesize_scenario
    from repro.schedule import boe

    scenario = synthesize_scenario(small_pool, n_snapshots=6, seed=3)
    steps, tables = Counter(), Counter()
    shared_steps, segments = boe._shared_steps, PlanExecutor._segments

    def count_steps(unified, q_count):
        steps[id(unified), q_count] += 1
        return shared_steps(unified, q_count)

    def count_tables(executor, plan_steps):
        tables[id(executor.unified), executor.scenario.source] += 1
        return segments(executor, plan_steps)

    monkeypatch.setattr(boe, "_shared_steps", count_steps)
    monkeypatch.setattr(PlanExecutor, "_segments", count_tables)
    for algorithm in all_algorithms():
        for pipeline in (False, True):
            MegaSimulator("boe", pipeline=pipeline).run(scenario, algorithm)
    assert list(tables.values()) == [1]
    unified = scenario.unified
    one, named = boe_plan(unified), boe_plan(unified, [scenario.source])
    assert len(one.steps) == len(named.steps)
    assert all(a is b for a, b in zip(one.steps[1:], named.steps[1:]))
    assert one.key == named.key == ("boe", 1)
    assert list(steps.values()) == [1]


def test_streaming_plan_structure(small_scenario):
    plan = streaming_plan(small_scenario.unified)
    n = small_scenario.n_snapshots
    assert plan.initial_graph == "snapshot0"
    adds = [s for s in plan.steps if isinstance(s, ApplyEdges)]
    dels = [s for s in plan.steps if isinstance(s, DeleteEdges)]
    assert len(adds) == len(dels) == n - 1
    assert plan.n_states == 1


def test_only_streaming_deletes(small_scenario):
    for factory in (direct_hop_plan, work_sharing_plan, boe_plan):
        plan = factory(small_scenario.unified)
        assert not any(isinstance(s, DeleteEdges) for s in plan.steps)


def test_direct_hop_edge_multiplier(small_scenario):
    """Fig. 3: Direct-Hop applies ~N/2 times the edges streaming does."""
    u = small_scenario.unified
    n = u.n_snapshots
    dh = direct_hop_plan(u).applied_edge_total()
    st_plan = streaming_plan(u)
    streaming_total = st_plan.applied_edge_total() + st_plan.deleted_edge_total()
    ratio = dh / streaming_total
    assert 0.3 * n <= ratio <= 0.7 * n


def test_work_sharing_edge_multiplier(small_scenario):
    """Fig. 3: Work-Sharing applies ~2x the edges streaming does."""
    u = small_scenario.unified
    ws = work_sharing_plan(u).applied_edge_total()
    st_plan = streaming_plan(u)
    streaming_total = st_plan.applied_edge_total() + st_plan.deleted_edge_total()
    assert 1.5 <= ws / streaming_total <= 3.5


def test_boe_shares_deletion_chain(small_scenario):
    """BOE applies each deletion batch exactly once (shared chain)."""
    plan = boe_plan(small_scenario.unified)
    del_steps = [
        s
        for s in plan.steps
        if isinstance(s, ApplyEdges)
        and s.batches
        and s.batches[0].kind is BatchKind.DELETION
    ]
    n = small_scenario.n_snapshots
    assert len(del_steps) == n - 1
    assert all(len(s.targets) == 1 for s in del_steps)


def test_boe_addition_targets_grow(small_scenario):
    """Stage i applies Δ+_i to snapshots i+1..N-1 simultaneously."""
    plan = boe_plan(small_scenario.unified)
    n = small_scenario.n_snapshots
    add_steps = [
        s
        for s in plan.steps
        if isinstance(s, ApplyEdges)
        and s.batches
        and s.batches[0].kind is BatchKind.ADDITION
    ]
    assert len(add_steps) == n - 1
    for s in add_steps:
        j = s.batches[0].step
        assert s.targets == tuple(range(j + 1, n))


def test_boe_stage_order_is_descending(small_scenario):
    plan = boe_plan(small_scenario.unified)
    stages = [s.stage for s in plan.steps if isinstance(s, ApplyEdges)]
    # pairs of (add, del) per stage, descending
    assert stages == sorted(stages, reverse=True) or all(
        stages[i] >= stages[i + 1] for i in range(len(stages) - 1)
    )


def test_boe_two_snapshot_window():
    from repro.graph.generators import rmat_edges
    from repro.evolving import synthesize_scenario

    pool = rmat_edges(32, 256, seed=0)
    s = synthesize_scenario(pool, n_snapshots=2, batch_pct=0.05, seed=1)
    plan = boe_plan(s.unified)
    assert sorted(plan.snapshots_marked()) == [0, 1]


def test_work_sharing_copies_follow_tree(small_scenario):
    plan = work_sharing_plan(small_scenario.unified)
    copies = [s for s in plan.steps if isinstance(s, CopyState)]
    # a bisection tree over N leaves has 2N-2 tree edges
    n = small_scenario.n_snapshots
    assert len(copies) == 2 * n - 2


def test_applied_edges_reconstruct_snapshots(small_scenario):
    """Replaying any plan's masks reproduces exact snapshot membership."""
    u = small_scenario.unified
    for factory in (direct_hop_plan, work_sharing_plan, boe_plan):
        plan = factory(u)
        masks = {}
        init = u.common_mask
        for step in plan.steps:
            if isinstance(step, EvalFull):
                masks[step.state] = init.copy()
            elif isinstance(step, CopyState):
                masks[step.dst] = masks[step.src].copy()
            elif isinstance(step, ApplyEdges):
                for t in step.targets:
                    masks[t][step.edge_idx] = True
            elif isinstance(step, MarkSnapshot):
                expected = u.presence_mask(step.snapshot)
                assert np.array_equal(masks[step.state], expected), (
                    plan.name,
                    step.snapshot,
                )


def test_plans_handle_single_snapshot_window():
    """Every workflow degenerates gracefully on a one-snapshot (static)
    window: evaluate and mark, no batches."""
    from repro.accel.graphpulse import static_scenario
    from repro.graph.csr import CSRGraph
    from repro.graph.generators import rmat_edges

    g = CSRGraph.from_edges(rmat_edges(32, 128, seed=1))
    scenario = static_scenario(g)
    for factory in ALL_PLANS:
        plan = factory(scenario.unified)
        assert plan.snapshots_marked() == [0]
        assert plan.applied_edge_total() == 0
        assert plan.deleted_edge_total() == 0
