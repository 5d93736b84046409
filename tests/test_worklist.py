"""The value-only worklist kernel against the round loop.

``MultiVersionEngine.evaluate_values`` evaluates one graph from scratch
with a FIFO worklist that relaxes in place and has no rounds; a serve
plan's ``EvalFull`` steps run on it.  Its answers must equal the round
loop's (``evaluate_full``, which ``evaluate_reference`` runs) bit for
bit, it must hand a NaN candidate and a run past its pop ceiling back
to the round loop, and a plan with a round or event cap, a trace or a
deletion must never take it.  Compiled tier only: the numpy tier has no
worklist kernel.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import all_algorithms, get_algorithm
from repro.core.multi_query import evaluate_multi_query
from repro.engines import MultiVersionEngine, PlanExecutor
from repro.engines.validation import evaluate_reference
from repro.evolving.snapshots import EvolvingScenario
from repro.evolving.unified_csr import UnifiedCSR
from repro.graph.csr import CSRGraph
from repro.perf.backend import available_backends, reset_backend, resolve_backend
from repro.resilience.budget import Budget
from repro.schedule import WORKFLOWS
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
                got = engine.evaluate_values(presence, source)
                assert got is not None, (algorithm.name, source, k)
                want = engine.evaluate_full(presence, source)
                assert _same(got, want), (graph, algorithm.name, source, k)
    # the reference's own entry point, on the last snapshot
    view = EvolvingScenario(unified, source=sources[0])
    for algorithm in all_algorithms():
        got = MultiVersionEngine(algorithm, unified).evaluate_values(
            rows[-2], sources[0]
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
            got = engine.evaluate_values(row, source)
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
        got = engine.evaluate_values(presence, 0)
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
    assert engine.evaluate_values(presence, 0) is None
    scenario = EvolvingScenario(unified, source=0)
    served = evaluate_multi_query(scenario, algorithm, [0]).values(0, 0)
    assert _same(served, evaluate_reference(scenario, algorithm, 0))
    assert np.isinf(served).all()


def _counting(monkeypatch) -> list:
    """Every ``evaluate_values`` call a plan makes."""
    calls = []
    original = MultiVersionEngine.evaluate_values

    def counted(self, *args, **kwargs):
        calls.append(args[1])
        return original(self, *args, **kwargs)

    monkeypatch.setattr(MultiVersionEngine, "evaluate_values", counted)
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
    """A plan that records traces, or tracks parents for its deletions,
    runs every full evaluation on the round loop."""
    calls = _counting(monkeypatch)
    algorithm = get_algorithm("sssp")
    PlanExecutor(small_scenario, algorithm, record_traces=True).run(
        WORKFLOWS["boe"](small_scenario.unified)
    )
    PlanExecutor(small_scenario, algorithm).run(
        WORKFLOWS["streaming"](small_scenario.unified)
    )
    assert calls == []


def test_worklist_time_is_booked_as_fused_relax():
    """Each kernel call counts as one profiler round and is timed as a
    ``fused_relax`` section, so traced apply time still covers the
    common-graph pass."""
    from repro.obs.profile import profiled

    scenario = load_scenario("PK", "tiny")
    engine = MultiVersionEngine(get_algorithm("sssp"), scenario.unified)
    with profiled(1) as prof:
        assert engine.evaluate_values(scenario.unified.common_mask, 0) is not None
    snap = prof.snapshot()
    assert snap["rounds_seen"] == 1
    assert snap["sections"]["fused_relax"]["rounds"] == 1
