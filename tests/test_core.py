"""Tests for the high-level engine facade and the multi-query extension."""

import numpy as np
import pytest

from repro.algorithms import get_algorithm
from repro.core import EvolvingGraphEngine, evaluate_multi_query, multi_query_boe_plan
from repro.engines import PlanExecutor
from repro.engines.validation import evaluate_reference
from repro.schedule.plan import ApplyEdges


@pytest.fixture(scope="module")
def engine(request):
    from repro.workloads import load_scenario

    return EvolvingGraphEngine(
        load_scenario("PK", "tiny", n_snapshots=6), "sssp"
    )


def test_engine_accepts_algorithm_name_or_instance(engine):
    assert engine.algorithm.name == "SSSP"
    e2 = EvolvingGraphEngine(engine.scenario, get_algorithm("bfs"))
    assert e2.algorithm.name == "BFS"


def test_evaluate_validates(engine):
    result = engine.evaluate("boe", validate=True)
    assert len(result.snapshot_values) == engine.scenario.n_snapshots


def test_evaluate_rejects_unknown_workflow(engine):
    with pytest.raises(KeyError):
        engine.evaluate("bogus")


def test_evaluate_window(engine):
    result = engine.evaluate_window(1, 3, validate=True)
    expected = evaluate_reference(engine.scenario, engine.algorithm, 2)
    assert np.allclose(result.values(1), expected, equal_nan=True)


def test_reuse_profile_asymmetry(engine):
    profile = engine.reuse_profile()
    assert profile["across_snapshots"] > profile["same_snapshot"]


def test_compare_accelerators(engine):
    reports = engine.compare_accelerators()
    assert set(reports) == {
        "jetstream", "direct-hop", "work-sharing", "boe", "boe+bp",
    }
    assert reports["boe+bp"].speedup_over(reports["jetstream"]) > 1.0


def test_simulate_mega_validate(engine):
    report = engine.simulate_mega("boe", pipeline=False, validate=True)
    assert report.cycles > 0


# -- multi-query -----------------------------------------------------------------


def test_multi_query_matches_independent_queries(engine):
    scenario, algo = engine.scenario, engine.algorithm
    degrees = np.diff(scenario.common_graph().indptr)
    sources = [int(i) for i in np.argsort(degrees)[-3:]]
    mq = evaluate_multi_query(scenario, algo, sources)
    for q, source in enumerate(sources):
        for k in range(scenario.n_snapshots):
            single = type(scenario)(
                scenario.unified, source=source, name="single"
            )
            expected = evaluate_reference(single, algo, k)
            assert np.allclose(
                mq.values(q, k), expected, equal_nan=True
            ), (q, k)


def test_multi_query_shares_fetches(engine):
    """Batch fetch traffic grows far sublinearly with the query count:
    the batch edges are fetched once per step for all queries, and only
    the propagation frontiers' (small) divergence adds fetches."""
    scenario, algo = engine.scenario, engine.algorithm

    def traced(sources):
        return PlanExecutor(scenario, algo, record_traces=True).run(
            multi_query_boe_plan(scenario.unified, sources)
        )

    one = traced([scenario.source])
    three = traced([scenario.source, 1, 2])

    def batch_fetches(result):
        return sum(
            e.edges_fetched
            for e in result.collector.executions
            if e.phase == "add"
        )

    assert batch_fetches(three) < 2 * batch_fetches(one)
    # the per-batch seeding round is shared exactly: one fetch per edge
    first_add = next(
        e for e in three.collector.executions if e.phase == "add"
    )
    seed = first_add.rounds[0]
    assert seed.edges_fetched <= seed.version_events_generated


def test_multi_query_plan_structure(engine):
    u = engine.scenario.unified
    plan = multi_query_boe_plan(u, [0, 5])
    n = u.n_snapshots
    assert plan.n_states == 2 * n
    adds = [
        s
        for s in plan.steps
        if isinstance(s, ApplyEdges) and s.batches[0].kind.value == "add"
    ]
    # stage i targets (n-1-i) snapshots for each of the two queries
    for s in adds:
        i = s.batches[0].step
        assert len(s.targets) == 2 * (n - 1 - i)


def test_multi_query_requires_sources(engine):
    with pytest.raises(ValueError):
        multi_query_boe_plan(engine.scenario.unified, [])


def test_multi_query_result_bounds(engine):
    mq = evaluate_multi_query(engine.scenario, engine.algorithm, [0])
    with pytest.raises(IndexError):
        mq.values(1, 0)


def test_simulate_multi_query(engine):
    from repro.core.multi_query import simulate_multi_query

    report, mq = simulate_multi_query(
        engine.scenario, engine.algorithm, [engine.scenario.source, 1]
    )
    assert report.update_cycles > 0
    assert mq.values(0, 0) is not None
    # correctness of the simulated run, query 0 == scenario source
    expected = evaluate_reference(engine.scenario, engine.algorithm, 0)
    assert np.allclose(mq.values(0, 0), expected, equal_nan=True)
