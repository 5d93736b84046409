"""The value-only worklist kernel against the round loop.

``MultiVersionEngine.run_worklist`` evaluates one graph from scratch
(one row, told by a tag row, and no steps) with a FIFO worklist that
relaxes in place and has no rounds, and ``PlanExecutor.summarize`` runs a whole serve plan — its common-graph
evaluations, its batch applies on version-masked worklists and its
summaries — as one call of the same kernel.  Their answers must equal
the round loop's (``evaluate_full``, which ``evaluate_reference`` runs,
and ``summarize`` over the round loop's values) bit for bit, they must
hand a NaN candidate and a run past its pop ceiling back to the round
loop, and a plan with a round or event cap, a trace, a deletion or a
shape other than BOE's must never take them.  Compiled tier only: the
numpy tier has no worklist kernel.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import all_algorithms, get_algorithm
from repro.core.multi_query import (
    evaluate_multi_query,
    summarize,
    summarize_multi_query,
)
from repro.engines import MultiVersionEngine, PlanExecutor
from repro.engines.validation import evaluate_reference
from repro.evolving.snapshots import EvolvingScenario
from repro.evolving.unified_csr import UnifiedCSR
from repro.graph.csr import CSRGraph
from repro.perf.backend import available_backends, reset_backend, resolve_backend
from repro.resilience.budget import Budget
from repro.schedule import WORKFLOWS, boe_plan
from repro.workloads import load_scenario
from repro.workloads.datasets import DATASETS

COMPILED = [name for name in available_backends() if name != "numpy"]

pytestmark = pytest.mark.skipif(
    not COMPILED, reason="no compiled kernel tier available"
)


@pytest.fixture(autouse=True)
def _compiled_tier():
    if COMPILED:
        resolve_backend(COMPILED[0])
    yield
    reset_backend()


def _static(n_vertices: int, edges: list) -> UnifiedCSR:
    """A one-snapshot union over ``edges`` ``(src, dst, wt)``."""
    g = CSRGraph.from_tuples(n_vertices, edges)
    none = np.full(g.n_edges, -1, dtype=np.int32)
    return UnifiedCSR(g, none, none.copy(), 1)


def _evaluate(
    engine: MultiVersionEngine, presence: np.ndarray, source: int
) -> np.ndarray | None:
    """From-scratch values on the graph ``presence`` through the worklist
    kernel, or None where it does not run: one row, no steps, and the
    tag row -1 (the base graph) on present edges, -2 (no row) elsewhere."""
    tags = np.where(presence, np.int32(-1), np.int32(-2))
    run = engine.run_worklist(1, np.array([[0, source]], dtype=np.int64), tags)
    return None if run is None else run.values[0]


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize("graph", sorted(DATASETS))
def test_every_snapshot_matches_the_round_loop(graph):
    """All five algorithms, ten sources, every snapshot's presence row
    and the common graph's, on each Table-2 proxy at ``small``."""
    scenario = load_scenario(graph, "small")
    unified = scenario.unified
    rows = [unified.presence_mask(k) for k in range(scenario.n_snapshots)]
    rows.append(unified.common_mask)
    degree = np.diff(unified.graph.indptr)
    sources = np.argsort(-degree, kind="stable")[:5].tolist()
    sources += np.linspace(0, unified.n_vertices - 1, 5).astype(int).tolist()
    for algorithm in all_algorithms():
        engine = MultiVersionEngine(algorithm, unified)
        for source in sources:
            for k, presence in enumerate(rows):
                got = _evaluate(engine, presence, source)
                assert got is not None, (algorithm.name, source, k)
                want = engine.evaluate_full(presence, source)
                assert _same(got, want), (graph, algorithm.name, source, k)
    # the reference's own entry point, on the last snapshot
    view = EvolvingScenario(unified, source=sources[0])
    for algorithm in all_algorithms():
        got = _evaluate(
            MultiVersionEngine(algorithm, unified), rows[-2], sources[0]
        )
        want = evaluate_reference(view, algorithm, scenario.n_snapshots - 1)
        assert _same(got, want), (graph, algorithm.name)


@st.composite
def _graphs(draw):
    """Small graphs with tied weights, self-loops, duplicate pairs,
    sinks, and sources that reach nothing."""
    n = draw(st.integers(1, 12))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    weight = st.sampled_from([1.0, 1.0, 2.0, 3.0, 1.5, 4.0])
    edges = draw(st.lists(st.tuples(pair, weight), max_size=40))
    source = draw(st.integers(0, n - 1))
    keep = draw(st.lists(st.booleans(), min_size=len(edges),
                         max_size=len(edges)))
    return n, [(u, v, w) for (u, v), w in edges], source, keep


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_graphs())
def test_random_graphs_match_the_round_loop(case):
    n, edges, source, keep = case
    unified = _static(n, edges)
    # a drawn mask over the union edges (CSR order, not tuple order)
    m = unified.n_union_edges
    presence = np.array(keep[:m] + [True] * (m - len(keep)), dtype=bool)
    for row in (presence, np.ones_like(presence)):
        for algorithm in all_algorithms():
            engine = MultiVersionEngine(algorithm, unified)
            got = _evaluate(engine, row, source)
            assert got is not None, algorithm.name
            assert _same(got, engine.evaluate_full(row, source)), (
                algorithm.name
            )


def test_nan_candidate_falls_back_to_the_round_loop():
    """The kernel refuses a NaN candidate (its poison depends on the
    order of relaxation), and the plan's answer is the round loop's."""
    nan = float("nan")
    unified = _static(8, [
        (0, 2, 2.0), (0, 3, 1.0), (0, 6, nan), (2, 4, 0.5), (2, 5, 1.0),
        (3, 5, nan), (4, 7, 3.0), (5, 7, 1.0), (6, 7, 1.0),
    ])
    scenario = EvolvingScenario(unified, source=0)
    presence = np.ones(unified.n_union_edges, dtype=bool)
    for algorithm in all_algorithms():
        engine = MultiVersionEngine(algorithm, unified)
        got = _evaluate(engine, presence, 0)
        if algorithm.kernel_op == "plus_one":  # bfs ignores weights
            assert got is not None
            continue
        assert got is None, algorithm.name
        served = evaluate_multi_query(scenario, algorithm, [0]).values(0, 0)
        assert _same(served, evaluate_reference(scenario, algorithm, 0))
        assert np.isnan(served[6]), algorithm.name


def test_a_climbing_cycle_past_the_pop_ceiling_falls_back():
    """A Viterbi cycle whose weights are below 1 climbs until its values
    reach infinity; past n * (n + 1) pops the worklist hands the row to
    the round loop, which converges to the same infinities."""
    unified = _static(3, [(0, 1, 0.5), (1, 2, 0.5), (2, 0, 0.5)])
    algorithm = get_algorithm("viterbi")
    presence = np.ones(unified.n_union_edges, dtype=bool)
    engine = MultiVersionEngine(algorithm, unified)
    assert _evaluate(engine, presence, 0) is None
    scenario = EvolvingScenario(unified, source=0)
    served = evaluate_multi_query(scenario, algorithm, [0]).values(0, 0)
    assert _same(served, evaluate_reference(scenario, algorithm, 0))
    assert np.isinf(served).all()


def _counting(monkeypatch) -> list:
    """The source of every evaluation a plan runs on the worklist."""
    calls = []
    original = MultiVersionEngine.run_worklist

    def counted(self, n_rows, evals, *args, **kwargs):
        calls.extend(evals[:, 1].tolist())
        return original(self, n_rows, evals, *args, **kwargs)

    monkeypatch.setattr(MultiVersionEngine, "run_worklist", counted)
    return calls


@pytest.mark.parametrize(
    "budget, taken",
    [
        (None, True),
        ({"wall_clock_s": 60.0}, True),
        ({"max_rounds": 10**6}, False),
        ({"max_events": 10**9}, False),
        ({"max_rounds": 10**6, "wall_clock_s": 60.0}, False),
        ({"max_events": 10**9, "wall_clock_s": 60.0}, False),
    ],
    ids=str,
)
def test_only_a_wall_clock_budget_takes_the_worklist(
    budget, taken, small_scenario, monkeypatch
):
    calls = _counting(monkeypatch)
    sources = [0, 5, 11]
    res = evaluate_multi_query(
        small_scenario, get_algorithm("sssp"), sources,
        budget=None if budget is None else Budget(**budget),
    )
    assert calls == (sources if taken else [])
    for q, source in enumerate(sources):
        view = EvolvingScenario(small_scenario.unified, source=source)
        for k in range(small_scenario.n_snapshots):
            want = evaluate_reference(view, get_algorithm("sssp"), k)
            assert _same(res.values(q, k), want)


def test_traced_and_deleting_plans_keep_the_round_loop(
    small_scenario, monkeypatch
):
    """A plan that records traces, tracks parents for its deletions, or
    is not shaped as the BOE plan (a value-only Direct-Hop or
    Work-Sharing plan) runs whole on the round loop."""
    calls = _counting(monkeypatch)
    algorithm = get_algorithm("sssp")
    PlanExecutor(small_scenario, algorithm, record_traces=True).run(
        WORKFLOWS["boe"](small_scenario.unified)
    )
    PlanExecutor(small_scenario, algorithm).run(
        WORKFLOWS["streaming"](small_scenario.unified)
    )
    for workflow in ("direct-hop", "work-sharing"):
        got = PlanExecutor(small_scenario, algorithm).run(
            WORKFLOWS[workflow](small_scenario.unified)
        )
        for k in range(small_scenario.n_snapshots):
            want = evaluate_reference(small_scenario, algorithm, k)
            assert _same(got.values(k), want), (workflow, k)
    assert calls == []


def test_worklist_time_is_booked_as_fused_relax():
    """Each kernel call counts as one profiler round and is timed as a
    ``fused_relax`` section, so traced apply time still covers the
    common-graph pass."""
    from repro.obs.profile import profiled

    scenario = load_scenario("PK", "tiny")
    engine = MultiVersionEngine(get_algorithm("sssp"), scenario.unified)
    with profiled(1) as prof:
        assert _evaluate(engine, scenario.unified.common_mask, 0) is not None
    snap = prof.snapshot()
    assert snap["rounds_seen"] == 1
    assert snap["sections"]["fused_relax"]["rounds"] == 1


# -- a whole value-only plan in one call --------------------------------------


def _round_loop_summaries(scenario, algorithm, sources):
    """``summarize`` over the round loop's values (a round cap keeps every
    step of the plan on it)."""
    mq = evaluate_multi_query(
        scenario, algorithm, sources, budget=Budget(max_rounds=10**9)
    )
    reached, checksum = summarize(algorithm, mq.matrix())
    n = scenario.n_snapshots
    return reached.reshape(-1, n), checksum.reshape(-1, n)


def _same_summaries(got, want) -> bool:
    reached, checksum = want
    return (
        got.reached.dtype == reached.dtype
        and np.array_equal(got.reached, reached)
        and got.checksum.tobytes() == checksum.tobytes()
    )


@pytest.mark.parametrize("graph", sorted(DATASETS))
def test_one_call_summaries_match_the_round_loop(graph):
    """All five algorithms, Q in {1, 3, 8} of the top-degree sources, on
    each Table-2 proxy at ``small``: the one-call summaries are the
    round loop's, bit for bit."""
    scenario = load_scenario(graph, "small")
    degree = np.diff(scenario.unified.graph.indptr)
    top = np.argsort(-degree, kind="stable")[:8].tolist()
    for algorithm in all_algorithms():
        for q in (1, 3, 8):
            got = summarize_multi_query(scenario, algorithm, top[:q])
            assert not got.round_loop, (graph, algorithm.name, q)
            assert got.edges_relaxed > 0 and got.worklist_pops > 0
            want = _round_loop_summaries(scenario, algorithm, top[:q])
            assert _same_summaries(got, want), (graph, algorithm.name, q)


@st.composite
def _evolving(draw):
    """Small evolving graphs: unique pairs with tied weights and
    self-loops, each edge common, added by one batch or deleted by one,
    and 1-8 sources (repeats allowed)."""
    n = draw(st.integers(1, 12))
    n_snapshots = draw(st.integers(1, 5))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=40, unique=True,
    ))
    weight = st.sampled_from([1.0, 1.0, 2.0, 3.0, 1.5, 4.0])
    weights = draw(st.lists(weight, min_size=len(pairs),
                            max_size=len(pairs)))
    # -1 common; 0..N-2 an addition batch; N-1..2N-3 a deletion batch
    tag = st.integers(-1, 2 * n_snapshots - 3)
    tags = np.array(
        draw(st.lists(tag, min_size=len(pairs), max_size=len(pairs))),
        dtype=np.int32,
    ).reshape(-1)
    sources = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
    return n, n_snapshots, pairs, weights, tags, sources


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_evolving())
def test_random_plans_match_the_round_loop(case):
    from repro.graph.edges import EdgeList

    n, n_snapshots, pairs, weights, tags, sources = case
    last = n_snapshots - 1
    add_step = np.where((tags >= 0) & (tags < last), tags, -1)
    del_step = np.where(tags >= last, tags - last, -1)
    pool = EdgeList(
        n,
        np.array([u for u, __ in pairs], dtype=np.int64),
        np.array([v for __, v in pairs], dtype=np.int64),
        np.array(weights, dtype=np.float64),
    )
    unified = UnifiedCSR.build(
        pool, add_step.astype(np.int32), del_step.astype(np.int32),
        n_snapshots,
    )
    scenario = EvolvingScenario(unified, source=sources[0])
    plan = boe_plan(unified, sources)
    for algorithm in all_algorithms():
        run = PlanExecutor(scenario, algorithm).summarize(plan)
        assert run is not None, algorithm.name
        want = _round_loop_summaries(scenario, algorithm, sources)
        n_snap = scenario.n_snapshots
        got = (run.reached.reshape(-1, n_snap),
               run.checksum.reshape(-1, n_snap))
        assert np.array_equal(got[0], want[0]), algorithm.name
        assert got[1].tobytes() == want[1].tobytes(), algorithm.name
        for q, source in enumerate(sources):
            view = EvolvingScenario(unified, source=source)
            for k in range(n_snap):
                assert _same(
                    run.values[q * n_snap + k],
                    evaluate_reference(view, algorithm, k),
                ), (algorithm.name, q, k)


def test_a_nan_plan_falls_back_and_still_matches():
    """A NaN weight reached by an addition batch: the kernel refuses,
    the plan reruns on the round loop, and its summaries are the round
    loop's."""
    from repro.graph.edges import EdgeList

    nan = float("nan")
    pool = EdgeList(
        5, np.array([0, 1, 2, 0, 3]), np.array([1, 2, 3, 3, 4]),
        np.array([1.0, 2.0, 1.0, nan, 1.0]),
    )
    tags = np.full(5, -1, dtype=np.int32)
    add = tags.copy()
    add[3] = 0
    unified = UnifiedCSR.build(pool, add, tags, 3)
    scenario = EvolvingScenario(unified, source=0)
    for algorithm in all_algorithms():
        got = summarize_multi_query(scenario, algorithm, [0, 1])
        assert got.round_loop == (algorithm.kernel_op != "plus_one")
        want = _round_loop_summaries(scenario, algorithm, [0, 1])
        assert _same_summaries(got, want), algorithm.name


def test_a_climbing_plan_falls_back_and_still_matches(monkeypatch):
    """The pop-ceiling cycle of the test above, as a plan: the kernel
    refuses it and the round loop's summaries come back, metered by the
    same wall clock."""
    clocks = []
    start = Budget.start
    monkeypatch.setattr(
        Budget, "start", lambda self: clocks.append(start(self)) or clocks[-1]
    )
    unified = _static(3, [(0, 1, 0.5), (1, 2, 0.5), (2, 0, 0.5)])
    scenario = EvolvingScenario(unified, source=0)
    algorithm = get_algorithm("viterbi")
    calls = _counting(monkeypatch)
    got = summarize_multi_query(
        scenario, algorithm, [0], budget=Budget(wall_clock_s=60.0)
    )
    assert got.round_loop
    # refused once: the rerun keeps every step on the round loop
    assert calls == [0]
    assert len(clocks) == 1
    assert (got.worklist_pops, got.edges_relaxed) == (0, 0)
    assert _same_summaries(
        got, _round_loop_summaries(scenario, algorithm, [0])
    )
    assert got.reached.tolist() == [[3]]


@pytest.mark.parametrize(
    "budget, taken",
    [
        (None, True),
        ({"wall_clock_s": 60.0}, True),
        ({"max_rounds": 10**6}, False),
        ({"max_events": 10**9, "wall_clock_s": 60.0}, False),
    ],
    ids=str,
)
def test_only_a_wall_clock_plan_is_one_call(budget, taken, small_scenario):
    got = summarize_multi_query(
        small_scenario, get_algorithm("sswp"), [0, 5],
        budget=None if budget is None else Budget(**budget),
    )
    assert got.round_loop is not taken
    want = _round_loop_summaries(small_scenario, get_algorithm("sswp"), [0, 5])
    assert _same_summaries(got, want)


def test_a_served_plan_is_one_kernel_call(small_scenario, monkeypatch):
    """A serve plan in a worker is one compiled call, the worklist's: no
    round-loop segment, no value matrix and no numpy summary."""
    from repro.core import multi_query
    from repro.perf.backend import cext
    from repro.service import pool
    from repro.service.pool import PlanPayload
    from repro.service.shm import ScenarioPlane

    calls = []
    for name in ("daic_round", "worklist_eval", "replay", "window_merge"):
        kernel = getattr(cext, name)

        def counted(*args, _name=name, _kernel=kernel, **kwargs):
            calls.append(_name)
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(cext, name, counted)

    def refuse(*args, **kwargs):
        raise AssertionError("the round loop's path ran")

    monkeypatch.setattr(MultiVersionEngine, "run_segment", refuse)
    monkeypatch.setattr(multi_query.MultiQueryResult, "matrix", refuse)
    monkeypatch.setattr(multi_query, "summarize", refuse)
    resolve_backend(COMPILED[0])
    plane = ScenarioPlane()
    manifest = plane.publish(small_scenario, "small", "test", epoch=0)
    try:
        for i, algo in enumerate(("bfs", "sssp", "sswp", "ssnp", "viterbi")):
            calls.clear()
            result = pool._execute(PlanPayload(
                i, algo, (0, 5, 11), shm=manifest, budget_s=60.0,
            ))
            assert calls == ["worklist_eval"], algo
            assert not result.round_loop
            assert result.worklist_pops > 0 and result.edges_relaxed > 0
            assert sorted(result.summaries) == [0, 5, 11]
    finally:
        pool._detach_all()
        plane.close_all()


@pytest.mark.parametrize("workflow", ["multi-query", "boe"])
def test_a_value_only_run_is_one_kernel_call(
    workflow, small_scenario, monkeypatch
):
    """``PlanExecutor.run`` takes a plan of the one-call shape (the
    multi-query BOE plan, and the BOE plan ``WindowServer`` starts from)
    as one worklist call, and hands back the round loop's values."""
    from repro.perf.backend import cext

    unified = small_scenario.unified
    plan = (
        boe_plan(unified, [0, 5, 11])
        if workflow == "multi-query" else WORKFLOWS["boe"](unified)
    )
    algorithm = get_algorithm("sssp")
    want = PlanExecutor(
        small_scenario, algorithm, budget=Budget(max_rounds=10**9)
    ).run(plan)
    calls = []
    for name in ("daic_round", "worklist_eval"):
        kernel = getattr(cext, name)

        def counted(*args, _name=name, _kernel=kernel, **kwargs):
            calls.append(_name)
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(cext, name, counted)
    resolve_backend(COMPILED[0])
    got = PlanExecutor(small_scenario, algorithm).run(plan)
    assert calls == ["worklist_eval"]
    assert sorted(got.snapshot_values) == sorted(want.snapshot_values)
    for k, row in want.snapshot_values.items():
        assert _same(got.values(k), row), k


def test_the_numpy_tier_builds_no_worklist_input(small_pool):
    """Without the kernel, a plan pays nothing for it: no one-call shape
    is built, and no budget clock is started."""
    from repro.evolving import synthesize_scenario

    resolve_backend("numpy")
    scenario = synthesize_scenario(small_pool, n_snapshots=4, seed=5)
    unified = scenario.unified
    plan = boe_plan(unified, [0, 5])
    executor = PlanExecutor(
        scenario, get_algorithm("sssp"),
        budget=Budget(wall_clock_s=60.0),
    )
    assert executor.summarize(plan) is None
    assert executor._clock is None
    executor.run(plan)
    assert not [
        key for key in unified._memo
        if isinstance(key, tuple) and key[0] == "one-call"
    ]


def test_the_compiled_kernels_are_four():
    from dataclasses import fields

    from repro.perf.backend import KernelBackend

    compiled = [
        f.name for f in fields(KernelBackend)
        if f.name not in ("name", "group_argbest", "presence_gather")
    ]
    assert compiled == ["daic_round", "worklist_eval", "replay",
                        "window_merge"]
    backend = resolve_backend(COMPILED[0])
    assert all(getattr(backend, name) is not None for name in compiled)


def test_a_plan_is_booked_as_one_fused_relax_section(small_scenario):
    from repro.obs.profile import profiled

    with profiled(1) as prof:
        got = summarize_multi_query(
            small_scenario, get_algorithm("sssp"), [0, 5]
        )
    assert not got.round_loop
    snap = prof.snapshot()
    assert snap["rounds_seen"] == 1
    assert snap["sections"]["fused_relax"]["rounds"] == 1
