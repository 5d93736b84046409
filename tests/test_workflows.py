"""Integration tests: every workflow produces ground-truth snapshot values.

This is the reproduction's core correctness gate — the paper's §5.1
validation ("we validated the final results of MEGA executions against
those of the software baselines"), strengthened to an exact comparison with
independent from-scratch evaluation on every snapshot.
"""

import numpy as np
import pytest

from repro.algorithms import get_algorithm
from repro.engines import PlanExecutor
from repro.engines.validation import evaluate_reference, validate_workflow
from repro.evolving import synthesize_scenario
from repro.graph.generators import rmat_edges, uniform_edges
from repro.schedule import (
    boe_plan,
    direct_hop_plan,
    streaming_plan,
    work_sharing_plan,
)

ALL_PLANS = [streaming_plan, direct_hop_plan, work_sharing_plan, boe_plan]


@pytest.mark.parametrize("factory", ALL_PLANS, ids=lambda f: f.__name__)
def test_workflow_matches_ground_truth(small_scenario, algorithm, factory):
    executor = PlanExecutor(small_scenario, algorithm)
    result = executor.run(factory(small_scenario.unified))
    validate_workflow(small_scenario, algorithm, result)


@pytest.mark.parametrize("factory", ALL_PLANS, ids=lambda f: f.__name__)
def test_workflow_on_uniform_graph(factory):
    pool = uniform_edges(96, 768, seed=21)
    scenario = synthesize_scenario(pool, n_snapshots=5, batch_pct=0.04, seed=8)
    algo = get_algorithm("sswp")
    result = PlanExecutor(scenario, algo).run(factory(scenario.unified))
    validate_workflow(scenario, algo, result)


@pytest.mark.parametrize("factory", ALL_PLANS, ids=lambda f: f.__name__)
def test_workflow_imbalanced_batches(factory):
    pool = rmat_edges(128, 1024, seed=13)
    scenario = synthesize_scenario(
        pool, n_snapshots=6, batch_pct=0.03, imbalance=4.0, seed=17
    )
    algo = get_algorithm("sssp")
    result = PlanExecutor(scenario, algo).run(factory(scenario.unified))
    validate_workflow(scenario, algo, result)


def test_all_workflows_agree(tiny_scenario, algorithm):
    """Cross-check: all four workflows produce identical snapshot values."""
    results = [
        PlanExecutor(tiny_scenario, algorithm).run(f(tiny_scenario.unified))
        for f in ALL_PLANS
    ]
    for k in range(tiny_scenario.n_snapshots):
        base = results[0].values(k)
        for r in results[1:]:
            assert np.allclose(base, r.values(k), equal_nan=True)


def test_boe_fetches_fewer_edges_than_direct_hop(small_scenario):
    """Fig. 16 shape: BOE's shared fetches beat Direct-Hop's repetition."""
    algo = get_algorithm("sssp")
    dh = PlanExecutor(small_scenario, algo, record_traces=True).run(
        direct_hop_plan(small_scenario.unified)
    )
    boe = PlanExecutor(small_scenario, algo, record_traces=True).run(
        boe_plan(small_scenario.unified)
    )
    assert boe.collector.total("edges_fetched") < dh.collector.total(
        "edges_fetched"
    )


def test_streaming_collects_deletion_stats(small_scenario):
    algo = get_algorithm("sssp")
    result = PlanExecutor(small_scenario, algo).run(
        streaming_plan(small_scenario.unified)
    )
    assert len(result.deletion_stats) == small_scenario.n_snapshots - 1


def test_validation_detects_corruption(tiny_scenario):
    algo = get_algorithm("sssp")
    result = PlanExecutor(tiny_scenario, algo).run(
        boe_plan(tiny_scenario.unified)
    )
    result.snapshot_values[1][0] += 1.0
    with pytest.raises(AssertionError):
        validate_workflow(tiny_scenario, algo, result)


def test_validation_detects_missing_snapshot(tiny_scenario):
    algo = get_algorithm("sssp")
    result = PlanExecutor(tiny_scenario, algo).run(
        boe_plan(tiny_scenario.unified)
    )
    del result.snapshot_values[2]
    with pytest.raises(AssertionError):
        validate_workflow(tiny_scenario, algo, result)


def test_reference_evaluation_is_deterministic(tiny_scenario):
    algo = get_algorithm("viterbi")
    a = evaluate_reference(tiny_scenario, algo, 1)
    b = evaluate_reference(tiny_scenario, algo, 1)
    assert np.array_equal(a, b)


def test_touched_edges_recorded_when_enabled(small_scenario):
    algo = get_algorithm("bfs")
    executor = PlanExecutor(small_scenario, algo, record_touched_edges=True)
    result = executor.run(boe_plan(small_scenario.unified))
    for e in result.collector.executions:
        assert e.touched_edges is not None
        assert e.touched_edges.shape == (small_scenario.unified.n_union_edges,)
    # the common-graph evaluation touches at least the common edges it used
    assert result.collector.executions[0].touched_edges.any()
