"""Microbenchmarks of the engine's hot kernels.

Unlike the table/figure benchmarks (one simulation sweep per round), these
are classic repeated-timing microbenchmarks of the primitives everything
else is built on: the CSR edge gather, the coalescing scatter-reduce, a
full single-source evaluation, one BOE multi-version batch step, a
whole value-only serve plan, and the scenario synthesis that precedes
all of them.
"""

import numpy as np
import pytest

from repro.algorithms import SSSP
from repro.core.multi_query import summarize_multi_query
from repro.engines import MultiVersionEngine
from repro.experiments.runner import default_scale
from repro.evolving.unified_csr import UnifiedCSR
from repro.graph.csr import CSRGraph, gather_out_edges
from repro.graph.generators import rmat_edges
from repro.perf.backend import get_backend
from repro.resilience.budget import Budget
from repro.workloads import load_scenario


@pytest.fixture(scope="module")
def graph():
    return CSRGraph.from_edges(rmat_edges(4_000, 64_000, seed=11))


@pytest.fixture(scope="module")
def unified(graph):
    none = np.full(graph.n_edges, -1, dtype=np.int32)
    return UnifiedCSR(graph, none, none.copy(), 1)


def test_bench_gather_out_edges(benchmark, graph):
    rng = np.random.default_rng(0)
    frontier = np.unique(rng.integers(0, graph.n_vertices, 1_000))
    idx, src = benchmark(gather_out_edges, graph.indptr, frontier)
    assert idx.size > 0


def test_bench_scatter_reduce(benchmark, graph):
    algo = SSSP()
    rng = np.random.default_rng(1)
    n = graph.n_vertices
    index = rng.integers(0, n, 50_000)
    cand = rng.uniform(0, 100, 50_000)

    def run():
        values = np.full(n, np.inf)
        algo.scatter_reduce(values, index, cand)
        return values

    values = benchmark(run)
    assert np.isfinite(values).sum() > 0


def test_bench_full_evaluation(benchmark, unified):
    algo = SSSP()
    presence = np.ones(unified.n_union_edges, dtype=bool)

    def run():
        return MultiVersionEngine(algo, unified).evaluate_full(presence, 0)

    values = benchmark(run)
    assert np.isfinite(values).sum() > unified.n_vertices // 2


def test_bench_multi_version_batch(benchmark, unified):
    """One batch applied to 16 versions at once — BOE's inner step."""
    algo = SSSP()
    rng = np.random.default_rng(2)
    batch = rng.choice(unified.n_union_edges, size=640, replace=False)
    presence_base = np.ones(unified.n_union_edges, dtype=bool)
    presence_base[batch] = False
    engine = MultiVersionEngine(algo, unified)
    base = engine.evaluate_full(presence_base, 0)
    presence = np.tile(presence_base, (16, 1))
    presence[:, batch] = True

    def run():
        values = np.tile(base, (16, 1))
        engine.apply_additions(values, batch, presence)
        return values

    values = benchmark(run)
    assert values.shape == (16, unified.n_vertices)


def test_bench_engine_scaling(benchmark):
    """Throughput characterization: full evaluation scales near-linearly
    with edge count (vectorized kernels, no quadratic blowups)."""
    import time

    algo = SSSP()
    rates = {}

    def run():
        for n_edges in (8_000, 32_000, 128_000):
            g = CSRGraph.from_edges(
                rmat_edges(n_edges // 16, n_edges, seed=13)
            )
            none = np.full(g.n_edges, -1, dtype=np.int32)
            u = UnifiedCSR(g, none, none.copy(), 1)
            t0 = time.perf_counter()
            MultiVersionEngine(algo, u).evaluate_full(
                np.ones(g.n_edges, dtype=bool), 0
            )
            rates[n_edges] = n_edges / (time.perf_counter() - t0)
        return rates

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    # edges/second at 128k edges is within ~8x of the 8k-edge rate —
    # i.e. no superlinear blowup (wide tolerance absorbs machine noise)
    assert result[128_000] > result[8_000] / 8.0


@pytest.mark.parametrize("queries", [1, 8])
def test_bench_value_only_plan(benchmark, queries):
    """One serve plan as a worker runs it: LJ at ``small``, 8 snapshots,
    the top-degree sources, SSSP, a wall-clock budget.  On the compiled
    tier the whole plan, summaries included, is one worklist-kernel call
    (docs/PERFORMANCE.md, "A value-only plan is one kernel call")."""
    scenario = load_scenario("LJ", "small", n_snapshots=8)
    degree = np.diff(scenario.unified.graph.indptr)
    sources = np.argsort(-degree, kind="stable")[:queries].tolist()
    algo = SSSP()

    def run():
        return summarize_multi_query(
            scenario, algo, sources, budget=Budget(wall_clock_s=60.0)
        )

    result = benchmark(run)
    assert result.reached.shape == (queries, 8)
    assert result.round_loop is (get_backend().worklist_eval is None)


@pytest.mark.parametrize("graph", ["PK", "Wen"])
def test_bench_load_scenario(benchmark, graph):
    """The paper's §5.1 workload on one proxy at ``REPRO_SCALE``: the
    R-MAT pool, its batches and the union CSR — every experiment, set-up
    and service start pays it (docs/PERFORMANCE.md, "Scenario synthesis
    without per-edge Python")."""
    scenario = benchmark(load_scenario, graph, default_scale())
    assert scenario.n_snapshots == 16
    assert scenario.unified.n_union_edges > 0
