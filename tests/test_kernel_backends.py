"""Differential parity: compiled kernel tiers vs the numpy reference.

The backend contract (docs/PERFORMANCE.md, "Kernel backends") is
bit-identical answers: values, parent tracking, and tie-break order must
match the numpy reference exactly on every tier, for every algorithm.
These tests re-run the same workloads under ``numpy`` and each available
compiled tier and compare with ``array_equal`` — no tolerances.

Backend selection is process-wide state, so every test that flips it
restores the environment's choice via ``reset_backend`` on exit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import all_algorithms, get_algorithm
from repro.core.multi_query import evaluate_multi_query
from repro.engines import DeletionRepair, MultiVersionEngine
from repro.engines.deletion import reconstruct_parents
from repro.evolving import synthesize_scenario
from repro.graph.generators import rmat_edges
from repro.perf.backend import (
    OPS,
    available_backends,
    backend_info,
    get_backend,
    reference,
    reset_backend,
    resolve_backend,
)
from repro.schedule import WORKFLOWS

#: compiled tiers loadable on this machine (cext needs a C compiler);
#: empty -> the differential tests skip
COMPILED = [name for name in available_backends() if name != "numpy"]


@pytest.fixture(autouse=True)
def _restore_backend():
    yield
    reset_backend()


@pytest.fixture(params=COMPILED if COMPILED else ["missing"])
def compiled(request):
    if not COMPILED:
        pytest.skip("no compiled kernel tier available")
    return request.param


def _scenario():
    pool = rmat_edges(n_vertices=192, n_edges=1536, seed=21)
    return synthesize_scenario(
        pool, n_snapshots=6, batch_pct=0.05, seed=22, name="backends"
    )


# -- registry behavior ------------------------------------------------------


def test_numpy_backend_always_resolves():
    be = resolve_backend("numpy")
    assert be.name == "numpy"
    assert not be.compiled
    assert be.daic_round is None and be.presence_gather is None
    assert be.replay is None


def test_library_cache_key_covers_the_compiler_flags():
    """A changed flag must never reuse a library built without it; the
    replay's doubles are built without fused multiply-adds."""
    from repro.perf.backend import cext

    name = cext.library_name(b"int x;", ("-O2",))
    assert name == cext.library_name(b"int x;", ("-O2",))
    assert name != cext.library_name(b"int x;", ("-O2", "-ffp-contract=off"))
    assert name != cext.library_name(b"int x;", ("-O3",))
    assert name != cext.library_name(b"int y;", ("-O2",))
    assert "-ffp-contract=off" in cext._CFLAGS


def test_invalid_backend_name_rejected(monkeypatch, capsys):
    """Retired and unknown tiers fail with the valid names listed, from
    the API, the environment and the flag alike."""
    from repro.cli import main

    for name in ("fpga", "numba"):
        with pytest.raises(ValueError, match=r"auto\|numpy\|compiled\|cext"):
            resolve_backend(name)
    monkeypatch.setenv("MEGA_KERNEL_BACKEND", "numba")
    assert main(["report"]) == 2
    monkeypatch.delenv("MEGA_KERNEL_BACKEND")
    assert main(["serve", "--scale", "tiny", "--kernel-backend", "numba"]) == 2
    errors = capsys.readouterr().err.strip().splitlines()
    assert errors == [
        "error: invalid MEGA_KERNEL_BACKEND 'numba': expected "
        "auto|numpy|compiled|cext",
        "error: invalid --kernel-backend 'numba': expected "
        "auto|numpy|compiled|cext",
    ]


def test_explicit_request_overrides_cached(monkeypatch):
    monkeypatch.setenv("MEGA_KERNEL_BACKEND", "numpy")
    reset_backend()
    assert get_backend().name == "numpy"
    if COMPILED:
        assert resolve_backend(COMPILED[0]).name == COMPILED[0]
        # argument-free calls keep the explicit choice
        assert get_backend().name == COMPILED[0]


def test_backend_info_reports_tiers():
    info = backend_info()
    assert info["active"] in available_backends()
    assert "numpy" in info["available"]
    assert set(info["available"]) <= {"numpy", "cext"}


def test_kernel_ops_cover_core_algorithms():
    for algorithm in all_algorithms():
        assert algorithm.kernel_op in OPS


# -- group_argbest ----------------------------------------------------------


def _argbest_cases(rng):
    yield rng.integers(0, 50, 400).astype(np.int64), rng.random(400)
    # heavy duplication exercises the tie-break order
    yield np.repeat(np.arange(8, dtype=np.int64), 64), np.tile(
        rng.random(8), 64
    )
    yield np.zeros(16, dtype=np.int64), np.full(16, 0.5)
    yield np.empty(0, dtype=np.int64), np.empty(0)


def test_group_argbest_matches_reference(compiled):
    be = resolve_backend(compiled)
    rng = np.random.default_rng(5)
    for keys, cands in _argbest_cases(rng):
        for minimize in (True, False):
            u_ref, b_ref = reference.group_argbest(keys, cands, minimize)
            u_got, b_got = be.group_argbest(keys, cands, minimize)
            assert np.array_equal(u_ref, u_got)
            # ties must break toward the lowest input index, exactly
            assert np.array_equal(b_ref, b_got)


def test_group_argbest_sparse_domain_falls_back(compiled):
    be = resolve_backend(compiled)
    keys = np.array([0, 1 << 40, 7], dtype=np.int64)
    cands = np.array([3.0, 1.0, 2.0])
    u_ref, b_ref = reference.group_argbest(keys, cands, True)
    u_got, b_got = be.group_argbest(keys, cands, True)
    assert np.array_equal(u_ref, u_got) and np.array_equal(b_ref, b_got)


# -- presence gather --------------------------------------------------------


def test_presence_gather_matches_unpackbits(compiled):
    be = resolve_backend(compiled)
    unified = _scenario().unified
    planes = unified.presence_planes()
    rng = np.random.default_rng(9)
    for size in (0, 1, 257):
        idx = rng.integers(0, unified.n_union_edges, size).astype(np.int64)
        ref = np.unpackbits(
            planes[:, idx], axis=0, count=unified.n_snapshots,
            bitorder="little",
        ).view(bool)
        got = be.presence_gather(planes, idx, unified.n_snapshots)
        assert got.dtype == np.bool_
        assert np.array_equal(ref, got)


def test_daic_round_rejects_bad_arrays(compiled):
    """Raw pointers cross into C, so the wrapper refuses any array the
    kernel would misread: wrong dtype, non-contiguous, wrong shape, out
    of range ids, and a step table whose rows or seeds fall outside its
    arrays."""
    be = resolve_backend(compiled)
    g = _scenario().unified.graph
    n, m = g.n_vertices, g.n_edges
    scratch = MultiVersionEngine(get_algorithm("sssp"), _scenario().unified)
    good = {
        "frontier": np.zeros((2, n), dtype=bool),
        "presence": np.ones((2, m), dtype=bool),
        "values": np.zeros((2, n)),
    }
    bad = [
        {"values": np.zeros((2, n), dtype=np.float32)},
        {"frontier": np.zeros((n, 2), dtype=bool).T},
        {"presence": np.ones((2, m + 1), dtype=bool)},
        {"seed_edges": np.array([0, m], dtype=np.int64)},
        {"seed_edges": np.array([0.0, 1.0])},
        {"parent_edge": np.full((1, n), -1, dtype=np.int64),
         "parent_rows": np.array([0, 1], dtype=np.int64)},
        # a copy names two rows; a propagate can only open a table
        _table([[0, 0, 3, 0, 0]], [0, 1, 0]),
        _table([[1, 0, 1, 0, 0], [3, 1, 2, 0, 0]], [0, 1]),
        # a row past values, a seed range past the seeds
        _table([[1, 0, 1, 0, 0]], [2]),
        {**_table([[1, 0, 1, 0, 2]], [0]),
         "seed_edges": np.array([0], dtype=np.int64)},
    ]
    for override in bad:
        args = {**good, **override}
        with pytest.raises(ValueError):
            be.daic_round(
                g.indptr, g.src_of_edge, g.dst, g.wt,
                args.pop("frontier"), args.pop("presence"),
                args.pop("values"), 0, True, scratch._scratch.get, **args,
            )


def test_daic_round_rejects_malformed_repair_tables(compiled):
    """A repair is TAG, PULL, PROPAGATE on one row, and GROUND one row
    with no seeds; each needs parent rows and repair inputs, whose
    shapes and source are checked too.  Anything else is refused before
    the kernel runs."""
    from repro.perf.backend import (
        REPAIR_STATS,
        STEP_GROUND,
        STEP_PROPAGATE,
        STEP_PULL,
        STEP_TAG,
        RepairInputs,
    )

    be = resolve_backend(compiled)
    unified = _scenario().unified
    g = unified.graph
    n, m = g.n_vertices, g.n_edges
    rev = unified.reverse_graph()
    scratch = MultiVersionEngine(get_algorithm("sssp"), unified)
    T, P, R, G = STEP_TAG, STEP_PULL, STEP_PROPAGATE, STEP_GROUND

    def repair(n_tags=1, source=0, tagged_rows=None):
        return RepairInputs(
            rev.indptr, rev.dst, unified.reverse_edge_origin, 0, source,
            float("inf"), 0.0,
            np.zeros((n_tags if tagged_rows is None else tagged_rows, n),
                     dtype=bool),
            np.zeros((n_tags, REPAIR_STATS), dtype=np.int64),
        )

    def call(steps, step_rows, seeds=(0,), **override):
        step_rows = np.array(step_rows, dtype=np.int64)
        args = {
            "steps": np.array(steps, dtype=np.int64),
            "step_rows": step_rows,
            "seed_edges": np.array(seeds, dtype=np.int64),
            "parent_edge": np.full((2, n), -1, dtype=np.int64),
            "parent_rows": step_rows,
            "repair": repair(),
            **override,
        }
        be.daic_round(
            g.indptr, g.src_of_edge, g.dst, g.wt,
            np.zeros((2, n), dtype=bool), np.ones((2, m), dtype=bool),
            np.zeros((2, n)), 0, True, scratch._scratch.get, **args,
        )

    good = [[T, 0, 1, 0, 1], [P, 1, 2, 1, 1], [R, 2, 3, 1, 1]]
    call(good, [0, 0, 0])  # well formed
    call(good, [0, 0, 0], repair=repair()._replace(rev_indptr=None))
    call([[G, 0, 1, 0, 0]], [1], repair=repair(n_tags=0))
    bad = [
        # a TAG needs its PULL next, and the PULL its PROPAGATE
        ([[T, 0, 1, 0, 1]], [0], {}),
        ([[T, 0, 1, 0, 1], [R, 1, 2, 1, 1]], [0, 0], {}),
        ([[T, 0, 1, 0, 1], [P, 1, 2, 1, 1]], [0, 0], {}),
        # ... on its own row, one row each
        ([[T, 0, 1, 0, 1], [P, 1, 2, 1, 1], [R, 2, 3, 1, 1]], [0, 1, 1], {}),
        ([[T, 0, 1, 0, 1], [P, 1, 2, 1, 1], [R, 2, 3, 1, 1]], [0, 0, 1], {}),
        ([[T, 0, 2, 0, 1], [P, 2, 3, 1, 1], [R, 3, 4, 1, 1]],
         [0, 1, 0, 0], {}),
        # a PULL follows a TAG; only a TAG of the three takes seeds
        ([[P, 0, 1, 0, 0], [R, 1, 2, 0, 0]], [0, 0], {}),
        ([[T, 0, 1, 0, 0], [P, 1, 2, 0, 1], [R, 2, 3, 1, 1]], [0, 0, 0], {}),
        ([[G, 0, 1, 0, 1]], [0], {}),
        ([[G, 0, 2, 1, 1]], [0, 1], {}),
        # an unknown kind
        ([[7, 0, 1, 0, 0]], [0], {}),
        # repair steps need parent rows and repair inputs
        (good, [0, 0, 0], {"repair": None}),
        ([[G, 0, 1, 0, 0]], [0], {"parent_edge": None, "parent_rows": None}),
        # repair inputs: one tagged row per TAG, a source in range
        (good, [0, 0, 0], {"repair": repair(n_tags=2)}),
        (good, [0, 0, 0], {"repair": repair(tagged_rows=2)}),
        (good, [0, 0, 0], {"repair": repair(source=n)}),
        # a recorded pull reads the transpose
        (good, [0, 0, 0], {"repair": repair()._replace(rev_indptr=None),
                           "edges_per_block": 8}),
    ]
    for steps, step_rows, override in bad:
        with pytest.raises(ValueError):
            call(steps, step_rows, **override)


def _table(steps, step_rows):
    return {
        "steps": np.array(steps, dtype=np.int64),
        "step_rows": np.array(step_rows, dtype=np.int64),
    }


# -- full engine differential: every engine operation, all five algorithms
#
# Every run goes through the compiled loop kernel (one call per propagate
# / apply_additions), recorded or not, and must match the numpy rounds
# bit for bit: values, parents and, when recorded, every round's trace.


def _on_tiers(compiled, fn):
    """``fn()`` under the numpy reference, then under ``compiled``."""
    out = []
    for name in ("numpy", compiled):
        resolve_backend(name)
        out.append(fn())
    return out


def _assert_same(ref, got, label=""):
    assert len(ref) == len(got), label
    for a, b in zip(ref, got):
        assert a.dtype == b.dtype, label
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), label


def _full_with_parents(unified, algorithm):
    engine = MultiVersionEngine(algorithm, unified, track_parents=True)
    presence = np.ones(unified.n_union_edges, dtype=bool)
    vals = engine.evaluate_full(presence, source=3, parent_row=0)
    return engine, presence, vals


def test_engine_values_bit_identical(compiled):
    scenario = _scenario()
    sources = [0, 5, 11]

    def run():
        out = []
        for algorithm in all_algorithms():
            res = evaluate_multi_query(scenario, algorithm, sources)
            out += [
                res.values(q, s)
                for q in range(len(sources))
                for s in range(scenario.n_snapshots)
            ]
        return out

    _assert_same(*_on_tiers(compiled, run))


def test_parent_tracking_bit_identical(compiled):
    """evaluate_full: identical winning edge ids, not merely identical
    values — the lowest-flat-index tie-break is part of the contract."""
    unified = _scenario().unified
    for algorithm in all_algorithms():

        def run(algorithm=algorithm):
            engine, __, vals = _full_with_parents(unified, algorithm)
            return [vals.copy(), engine.parent_edge.copy()]

        _assert_same(*_on_tiers(compiled, run), algorithm.name)


def test_multi_target_apply_additions_bit_identical(compiled):
    """One batch seeded into K versions at once, parents on every row."""
    unified = _scenario().unified
    n, k = unified.n_vertices, unified.n_snapshots
    presence = np.stack([unified.presence_mask(t) for t in range(k)])
    batch = np.flatnonzero(presence.any(axis=0) & ~unified.common_mask)
    for algorithm in all_algorithms():

        def run(algorithm=algorithm):
            engine = MultiVersionEngine(algorithm, unified, track_parents=True)
            engine._ensure_parent_rows(k)
            values = np.empty((k, n))
            for t in range(k):
                values[t] = engine.evaluate_full(
                    unified.common_mask, source=3, parent_row=t
                )
            rounds = engine.apply_additions(
                values, batch, presence.copy(), targets=tuple(range(k)),
                parent_rows=np.arange(k),
            )
            return [values, engine.parent_edge.copy(), np.array([rounds])]

        _assert_same(*_on_tiers(compiled, run), algorithm.name)


def test_deletion_repair_bit_identical(compiled):
    unified = _scenario().unified
    for algorithm in all_algorithms():

        def run(algorithm=algorithm):
            engine, presence, vals = _full_with_parents(unified, algorithm)
            parents = engine.parent_edge[0]
            victims = parents[parents >= 0][::7]
            after = presence.copy()
            after[victims] = False
            stats = DeletionRepair(engine).apply_deletions(
                vals, victims, after, 3
            )
            return [
                vals.copy(), engine.parent_edge.copy(), stats.tagged_mask,
                np.array([stats.recompute_rounds]),
            ]

        _assert_same(*_on_tiers(compiled, run), algorithm.name)


# -- KickStarter repair as step-table kinds, against the numpy reference
#
# The compiled tier runs a deletion as TAG, PULL and PROPAGATE steps of
# the loop kernel's table (and a window slide's parent forest as a
# GROUND step); DeletionRepair and reconstruct_parents are the numpy
# reference.  Everything must match: values, parents, every
# DeletionStats field and the whole recorded trace.

#: kernel_op algorithms with weights where no cycle improves forever
REPAIR_ALGOS = ["bfs", "sssp", "sswp", "ssnp", "viterbi"]


@st.composite
def _repair_case(draw):
    n = draw(st.integers(2, 24))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=4 * n, unique=True,
    ))
    weights = draw(st.lists(
        st.sampled_from([1.0, 1.5, 2.0, 4.0]),
        min_size=len(pairs), max_size=len(pairs),
    ))
    return (
        n,
        [(u, v, w) for (u, v), w in zip(pairs, weights)],
        draw(st.sampled_from(REPAIR_ALGOS)),
        draw(st.integers(0, n - 1)),
        draw(st.sampled_from(
            ["empty", "non-parent", "parents", "duplicates", "orphan", "any"]
        )),
        draw(st.integers(0, 2**31)),
        draw(st.booleans()),
    )


def _repair_graph(n, edges):
    from repro.evolving.unified_csr import UnifiedCSR
    from repro.graph.csr import CSRGraph

    g = CSRGraph.from_tuples(n, edges)
    none = np.full(g.n_edges, -1, dtype=np.int32)
    return UnifiedCSR(g, none, none.copy(), 1)


def _deletion_batch(mode, seed, graph, parents, source):
    """A deletion batch drawn from the converged forest: nothing, edges
    no vertex depends on, parent edges (once, or with duplicates), the
    source's own parent edges (orphaning its subtree), or any edges."""
    rng = np.random.default_rng(seed)
    edges = np.arange(graph.n_edges)
    used = np.unique(parents[parents >= 0])
    pools = {
        "empty": edges[:0],
        "non-parent": np.setdiff1d(edges, used),
        "parents": used,
        "duplicates": used,
        "orphan": used[graph.src_of_edge[used] == source],
        "any": edges,
    }
    pool = pools[mode]
    if mode != "orphan" and pool.size:
        pool = rng.choice(pool, size=int(rng.integers(1, pool.size + 1)),
                          replace=False)
    if mode == "duplicates" and pool.size:
        pool = np.concatenate([pool, pool[: max(1, pool.size // 2)]])
        rng.shuffle(pool)
    return pool.astype(np.int64)


def _run_repair(unified, algorithm, source, batch, budget=None,
                record=True, ground=False):
    """Evaluate, then repair ``batch`` through a step table, recording
    or not, on the evaluation's parents or (``ground``) on a forest
    grounded in its values, as a window slide does: what each tier must
    agree on.  (Unrecorded, the compiled pull reads forward edges
    instead of the transpose.)"""
    from repro.engines.daic import StepTable
    from repro.engines.trace import TraceCollector

    collector = TraceCollector(
        unified.n_union_edges, True, n_vertices=unified.n_vertices
    ) if record else None
    engine = MultiVersionEngine(
        algorithm, unified, collector=collector, track_parents=True,
        budget=budget,
    )
    presence = np.ones((1, unified.n_union_edges), dtype=bool)
    values = engine.evaluate_full(
        presence[0], source, parent_row=0
    )[None, :].copy()
    table = StepTable(source)
    if ground:
        table.ground(0)
    table.delete(0, batch, "del-batch")
    outcome = None
    try:
        stats = engine.run_segment(values, presence, table)
        outcome = [
            (s.tagged_vertices, s.tag_events, s.tag_rounds,
             s.recompute_rounds, s.tagged_mask.tolist())
            for s in stats
        ]
    except Exception as exc:  # the budget breach, compared field by field
        outcome = (type(exc).__name__, getattr(exc, "resource", None),
                   getattr(exc, "spent", None), getattr(exc, "stats", None))
    return (
        outcome, values.tolist(), engine.parent_edge.tolist(),
        presence.tolist(), None if collector is None else _trace_of(collector),
    )


@settings(
    max_examples=80, deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow, HealthCheck.function_scoped_fixture,
    ],
)
@given(case=_repair_case())
def test_repair_steps_match_the_numpy_repair(compiled, case):
    """Random graphs and deletion batches: the step-table repair equals
    DeletionRepair in values, parents, DeletionStats, trace rows and
    blocks, touched destinations and touched edges; and a GROUND step
    grounds the same parent forest as reconstruct_parents, lowest
    supporting edge per vertex and level."""
    n, edges, algo, source, mode, seed, ground = case
    unified = _repair_graph(n, edges)
    algorithm = get_algorithm(algo)
    resolve_backend("numpy")
    engine, presence, values = _full_with_parents_at(
        unified, algorithm, source
    )
    if ground:
        reconstruct_parents(engine, values, presence, source)
    batch = _deletion_batch(
        mode, seed, unified.graph, engine.parent_edge[0], source
    )
    ref, got = _on_tiers(
        compiled,
        lambda: _run_repair(unified, algorithm, source, batch, ground=ground),
    )
    assert ref == got
    unrecorded = _on_tiers(
        compiled,
        lambda: _run_repair(
            unified, algorithm, source, batch, record=False, ground=ground
        ),
    )
    assert unrecorded[0] == unrecorded[1] == ref[:-1] + (None,)
    (stats,) = ref[0]
    if mode in ("empty", "non-parent"):
        # nothing depended on the batch: no cascade, pull or recompute
        assert stats[0] == stats[2] == stats[3] == 0
        phases = {r[0] for e in ref[-1] for r in e[-1] if e[1] == "del"}
        assert phases == {"del-tag"}


def test_ground_step_matches_reconstruct_parents(compiled):
    """A GROUND step rebuilds the same forest as reconstruct_parents on
    a graph with many equal-length paths: the lowest supporting edge id
    per vertex, level by level, for every algorithm."""
    from repro.engines.daic import StepTable

    unified = _scenario().unified
    for algorithm in all_algorithms():

        def run(algorithm=algorithm):
            engine, presence, values = _full_with_parents_at(
                unified, algorithm, 3
            )
            engine.parent_edge[0] = 0  # no trace of live tracking left
            table = StepTable(3)
            table.ground(0)
            assert engine.run_segment(
                values[None, :], presence[None, :], table
            ) == []
            return [engine.parent_edge.copy()]

        _assert_same(*_on_tiers(compiled, run), algorithm.name)


def _full_with_parents_at(unified, algorithm, source):
    engine = MultiVersionEngine(algorithm, unified, track_parents=True)
    presence = np.ones(unified.n_union_edges, dtype=bool)
    vals = engine.evaluate_full(presence, source=source, parent_row=0)
    return engine, presence, vals


def test_repair_budget_breach_identical_across_tiers(compiled):
    """A budget that runs out inside a repair's recompute breaches at the
    same round on both tiers, with the same partial values, parents and
    trace; the tag and pull passes are not charged."""
    from repro.resilience.budget import Budget

    unified = _scenario().unified
    algorithm = get_algorithm("sssp")
    resolve_backend("numpy")
    engine, __, __ = _full_with_parents_at(unified, algorithm, 3)
    batch = _deletion_batch("orphan", 0, unified.graph,
                            engine.parent_edge[0], 3)
    roomy = _run_repair(unified, algorithm, 3, batch)
    (stats,) = roomy[0]
    assert stats[3] >= 3, "the recompute must run several rounds"
    full_rounds = sum(
        len(e[-1]) for e in roomy[-1] if e[1] == "full"
    )
    for spare in (0, 1, stats[3] - 1):
        budget = Budget(max_rounds=full_rounds + spare)
        ref, got = _on_tiers(
            compiled,
            lambda budget=budget: _run_repair(
                unified, algorithm, 3, batch, budget=budget
            ),
        )
        assert ref == got, spare
        assert ref[0][:2] == ("BudgetExceeded", "rounds"), ref[0]


def test_window_server_advance_bit_identical(compiled):
    from repro.core.window_server import WindowServer
    from repro.service.ingest import synthesize_delta

    scenario = _scenario()
    for algorithm in all_algorithms():

        def run(algorithm=algorithm):
            server = WindowServer(scenario, algorithm)
            for seed in (1, 2):
                delta = synthesize_delta(server.scenario, seed=seed)
                server.advance(
                    delta.additions(scenario.n_vertices), delta.deletions()
                )
            return [
                server.values(s) for s in range(server.n_snapshots)
            ] + [server.last_stable]

        _assert_same(*_on_tiers(compiled, run), algorithm.name)


def test_nan_weights_poison_on_every_tier(compiled):
    """NaN weights poison values identically on both tiers, parents
    included."""
    from repro.evolving.unified_csr import UnifiedCSR
    from repro.graph.csr import CSRGraph

    nan = float("nan")
    # 0->6 NaN-poisons 6 outright; in round two 5 first improves via 2->5,
    # then 3->5 poisons it in the same round, so 5 must not stay changed
    # (and 5->7 must not carry the NaN on)
    g = CSRGraph.from_tuples(8, [
        (0, 2, 2.0), (0, 3, 1.0), (0, 6, nan), (2, 4, 0.5), (2, 5, 1.0),
        (3, 5, nan), (4, 7, 3.0), (5, 7, 1.0), (6, 7, 1.0),
    ])
    none = np.full(g.n_edges, -1, dtype=np.int32)
    u = UnifiedCSR(g, none, none.copy(), 1)
    for algorithm in all_algorithms():

        def run(algorithm=algorithm):
            engine = MultiVersionEngine(algorithm, u, track_parents=True)
            vals = engine.evaluate_full(
                np.ones(g.n_edges, dtype=bool), 0, parent_row=0
            )
            return [vals.copy(), engine.parent_edge.copy()]

        ref, got = _on_tiers(compiled, run)
        _assert_same(ref, got, algorithm.name)
        if algorithm.kernel_op != "plus_one":  # bfs ignores weights
            assert np.isnan(got[0][6]) and np.isnan(got[0][5]), algorithm.name


def test_empty_frontier_noop(compiled):
    """An empty frontier runs no round; an empty batch only its seed."""
    unified = _scenario().unified

    def run():
        engine = MultiVersionEngine(get_algorithm("bfs"), unified)
        values = engine.algorithm.identity_values(unified.n_vertices)[None, :]
        frontier = np.zeros((1, unified.n_vertices), dtype=bool)
        presence = np.ones((1, unified.n_union_edges), dtype=bool)
        rounds = engine.propagate(values, frontier, presence)
        batch_rounds = engine.apply_additions(
            values, np.empty(0, dtype=np.int64), presence
        )
        return [values.copy(), np.array([rounds, batch_rounds])]

    ref, got = _on_tiers(compiled, run)
    _assert_same(ref, got)
    assert got[1].tolist() == [0, 1]
    assert np.array_equal(
        got[0][0], get_algorithm("bfs").identity_values(len(got[0][0]))
    )


def _capture_collectors(monkeypatch) -> list:
    """Every TraceCollector a PlanExecutor builds, in order."""
    from repro.engines import executor
    from repro.engines.trace import TraceCollector

    made = []

    class Capturing(TraceCollector):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(executor, "TraceCollector", Capturing)
    return made


def _trace_of(collector) -> list:
    """Everything a recorded run hands the timing models, per execution:
    each round's counters and edge blocks, and the execution's touched
    masks.  An execution a budget broke off is closed first."""
    if collector.active:
        collector.end()
    return [
        (
            e.tag, e.phase, e.targets, e.touched_dst_count,
            None if e.touched_edges is None else e.touched_edges.tolist(),
            [
                (
                    r.phase, r.events_popped, r.events_generated,
                    r.edges_fetched, r.vertex_reads, r.vertex_writes,
                    r.n_versions, r.version_events_popped,
                    r.version_events_generated, r.version_vertex_writes,
                    r.edge_blocks.dtype.str, r.edge_blocks.tolist(),
                )
                for r in e.rounds
            ],
        )
        for e in collector.executions
    ]


@pytest.mark.parametrize(
    "budget",
    [
        {"max_rounds": 0},
        {"max_rounds": 5},
        {"max_rounds": 23},
        {"max_events": 40},
        {"max_events": 900},
        {"max_rounds": 23, "max_events": 900},
        {"max_rounds": 40, "wall_clock_s": 60.0},
        {"max_events": 900, "wall_clock_s": 60.0},
    ],
    ids=lambda b: ",".join(f"{k}={v}" for k, v in b.items()),
)
def test_budget_breach_identical_across_tiers(compiled, budget, monkeypatch):
    """The loop kernel stops where the numpy per-round charge breaches:
    same resource and spend over a whole plan, and no round run past
    the breach (identical partial values).  Recorded, the traces up to
    the breach are identical too; a wall-clock deadline that is never
    reached changes nothing, though it splits each compiled loop into
    chunks (shortened here so every execution spans several calls)."""
    from repro.core.multi_query import multi_query_boe_plan

    _assert_breach_parity(
        compiled, budget,
        lambda unified: multi_query_boe_plan(unified, [0, 5, 11]),
        monkeypatch,
    )


@pytest.mark.parametrize(
    "budget",
    [
        {"max_rounds": 0},
        {"max_rounds": 5},
        {"max_rounds": 23},
        {"max_events": 40},
        {"max_events": 300},
        {"max_rounds": 23, "max_events": 300},
        {"max_rounds": 40, "wall_clock_s": 60.0},
        {"max_events": 300, "wall_clock_s": 60.0},
    ],
    ids=lambda b: ",".join(f"{k}={v}" for k, v in b.items()),
)
def test_budget_breach_identical_across_tiers_direct_hop(
    compiled, budget, monkeypatch
):
    """The same parity on a Direct-Hop plan, whose segments are hop
    chains: breaches and wall-clock chunks land mid-chain, between and
    inside the chain's steps."""
    _assert_breach_parity(
        compiled, budget, WORKFLOWS["direct-hop"], monkeypatch
    )


def _assert_breach_parity(compiled, budget, make_plan, monkeypatch):
    import repro.engines.daic as daic
    from repro.engines import PlanExecutor
    from repro.engines.trace import TraceCollector
    from repro.resilience.budget import Budget, BudgetExceeded

    scenario = _scenario()
    unified = scenario.unified
    plan = make_plan(unified)
    collectors = _capture_collectors(monkeypatch)
    monkeypatch.setattr(daic, "_WALL_CLOCK_CHUNK", 3)

    def run(record):
        collectors.clear()
        with pytest.raises(BudgetExceeded) as info:
            PlanExecutor(
                scenario, get_algorithm("sssp"), budget=Budget(**budget),
                record_touched_edges=record,
            ).run(plan)
        exc = info.value
        direct_collector = None
        if record:
            direct_collector = TraceCollector(
                unified.n_union_edges, True, n_vertices=unified.n_vertices
            )
            direct_collector.begin("direct", "add", (0, 1))
        engine = MultiVersionEngine(
            get_algorithm("sssp"), unified, collector=direct_collector,
            budget=Budget(**budget),
        )
        values = engine.new_values(2, 0)
        frontier = np.zeros_like(values, dtype=bool)
        frontier[:, 0] = True
        presence = np.ones((2, unified.n_union_edges), dtype=bool)
        try:
            direct = engine.propagate(values, frontier, presence)
        except BudgetExceeded as breach:
            direct = (breach.resource, breach.spent)
        traces = [_trace_of(c) for c in collectors]
        if record:
            traces.append(_trace_of(direct_collector))
        return (
            exc.resource, exc.limit, exc.spent, exc.stats,
            direct, values.tolist(), traces,
        )

    ref, got = _on_tiers(compiled, lambda: [run(False), run(True)])
    assert ref == got
    # the recorded leg breaches exactly where the value-only leg does
    assert ref[0][:-1] == ref[1][:-1]
    if budget.get("max_rounds") != 0:
        assert any(e[-1] for t in ref[1][-1] for e in t), "nothing recorded"


def test_wall_clock_watchdog_stops_the_worklist(compiled):
    """A serve plan's common-graph pass runs on the worklist kernel,
    which has no rounds to cap: a Viterbi cycle whose weights sit just
    below 1 climbs for billions of pops, and a wall-clock-only budget
    (the service's) must stop it from inside the worklist, promptly."""
    import time

    from repro.evolving.snapshots import EvolvingScenario
    from repro.evolving.unified_csr import UnifiedCSR
    from repro.graph.csr import CSRGraph
    from repro.resilience.budget import Budget, BudgetExceeded

    resolve_backend(compiled)
    n = 1 << 15
    weight = 1.0 - 1e-7
    g = CSRGraph.from_tuples(n, [(v, (v + 1) % n, weight) for v in range(n)])
    none = np.full(g.n_edges, -1, dtype=np.int32)
    scenario = EvolvingScenario(UnifiedCSR(g, none, none.copy(), 1), source=0)
    t0 = time.monotonic()
    with pytest.raises(BudgetExceeded) as info:
        evaluate_multi_query(
            scenario, get_algorithm("viterbi"), [0],
            budget=Budget(wall_clock_s=0.05),
        )
    assert time.monotonic() - t0 < 5.0
    exc = info.value
    assert exc.resource == "wall_clock"
    # stopped inside the worklist, before its ceiling of n * (n + 1) pops
    assert 0 < exc.stats["worklist_pops"] < n * (n + 1)


def test_budget_within_allowance_identical(compiled):
    """A budget the run fits in changes nothing; wall-clock chunking
    included."""
    from repro.resilience.budget import Budget

    scenario = _scenario()

    def run():
        res = evaluate_multi_query(
            scenario, get_algorithm("bfs"), [0, 5],
            budget=Budget(max_rounds=10_000, max_events=10**9,
                          wall_clock_s=60.0),
        )
        return [res.values(q, s) for q in range(2)
                for s in range(scenario.n_snapshots)]

    _assert_same(*_on_tiers(compiled, run))


def test_traces_identical_across_backends(compiled, monkeypatch):
    """Recording writes every round's trace inside the loop kernel, which
    must reproduce the numpy rounds' counters, edge blocks and touched
    masks, not just the answers — the trace is the accelerator model's
    input.  Every workflow and algorithm: streaming crosses full
    evaluation, batch seeding, additions and deletion repair (with
    parents); BOE applies one batch to several targets at once."""
    from repro.engines import PlanExecutor, executor

    scenario = _scenario()
    engines = []

    class Capturing(MultiVersionEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(executor, "MultiVersionEngine", Capturing)
    for workflow, make_plan in sorted(WORKFLOWS.items()):
        plan = make_plan(scenario.unified)
        for algorithm in all_algorithms():

            def run(algorithm=algorithm, plan=plan):
                engines.clear()
                result = PlanExecutor(
                    scenario, algorithm, record_touched_edges=True
                ).run(plan)
                parents = engines[0].parent_edge
                return (
                    _trace_of(result.collector),
                    [result.values(s).tolist()
                     for s in range(scenario.n_snapshots)],
                    None if parents is None else parents.tolist(),
                )

            ref, got = _on_tiers(compiled, run)
            assert ref == got, (workflow, algorithm.name)
        phases = {r[0] for e in ref[0] for r in e[-1]}
        if workflow == "streaming":
            assert {"full", "add", "del-tag", "del-recompute"} <= phases
            assert ref[2] is not None
        if workflow == "boe":
            assert any(len(e[2]) > 1 for e in ref[0]), "no multi-target"


def _segments(plan) -> int:
    """Maximal runs of copy, apply and delete steps in a plan."""
    from repro.schedule.plan import ApplyEdges, CopyState, DeleteEdges

    runs, inside = 0, False
    for step in plan.steps:
        moving = isinstance(step, (CopyState, ApplyEdges, DeleteEdges))
        runs += moving and not inside
        inside = moving
    return runs


def test_recorded_run_is_one_loop_call_per_segment(compiled, monkeypatch):
    """A recorded plan makes one daic_round call per EvalFull and per
    segment (a maximal run of copy, apply and delete steps) — not one
    per round, per ApplyEdges or per repair pass.  The streaming plan's
    segments are its snapshots' addition-plus-repair pairs, so it makes
    one call per snapshot; Direct-Hop's segments are its hop chains, one
    per snapshot; BOE's whole schedule is one."""
    import dataclasses

    import repro.engines.daic as daic
    from repro.engines import PlanExecutor
    from repro.schedule.plan import ApplyEdges, DeleteEdges, EvalFull

    active = resolve_backend(compiled)
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("edges_per_block"))
        return active.daic_round(*args, **kwargs)

    wrapped = dataclasses.replace(active, daic_round=counted)
    monkeypatch.setattr(daic, "get_backend", lambda: wrapped)
    scenario = _scenario()
    made = {}
    for workflow in ("streaming", "direct-hop", "work-sharing", "boe"):
        plan = WORKFLOWS[workflow](scenario.unified)
        calls.clear()
        result = PlanExecutor(
            scenario, get_algorithm("sssp"), record_traces=True
        ).run(plan)
        executions = result.collector.executions
        evals = sum(isinstance(s, EvalFull) for s in plan.steps)
        assert len(calls) == evals + _segments(plan), workflow
        assert set(calls) == {8}, "every call recorded"
        applies = sum(isinstance(s, ApplyEdges) for s in plan.steps)
        deletes = sum(isinstance(s, DeleteEdges) for s in plan.steps)
        assert deletes == len(result.deletion_stats)
        assert len(executions) == evals + applies + deletes, workflow
        made[workflow] = len(calls)
    assert made["streaming"] == scenario.n_snapshots
    assert made["direct-hop"] == 1 + scenario.n_snapshots
    assert made["boe"] == 2


def test_record_buffers_grow_and_resume(compiled, monkeypatch):
    """Record buffers far too small for one execution: the wrapper grows
    them and resumes the kernel, and the traces do not change.  A
    Direct-Hop segment outgrows them part-way through its hop chain, so
    the kernel resumes both mid-step (before a round) and between steps
    (before a seed pass); a streaming segment outgrows them inside a
    repair, between two passes of its tag cascade."""
    import ctypes

    from repro.engines import PlanExecutor
    from repro.perf.backend import STEP_COLS, STEP_TAG, cext

    scenario = _scenario()
    plans = [WORKFLOWS[w](scenario.unified) for w in ("streaming", "direct-hop")]

    def run():
        return [
            _trace_of(PlanExecutor(
                scenario, get_algorithm("bfs"), record_touched_edges=True
            ).run(plan).collector)
            for plan in plans
        ]

    resolve_backend(compiled)
    roomy = run()
    lib = cext.load_library()
    kernel_calls = []
    resumed = set()

    class Counting:
        def __getattr__(self, name):
            return getattr(lib, name)

        def mega_daic_round(self, *args):
            record = cext._Record.from_address(args[-2])
            kernel_calls.append(record.row_cap)
            # first_step and resume of a call that continues a table
            first, resume = args[8], args[9]
            steps = (ctypes.c_int64 * (STEP_COLS * args[5])).from_address(
                args[4]
            )
            if resume and steps[STEP_COLS * first] == STEP_TAG:
                resumed.add("mid-cascade")
            if record.row_cap > 1 and args[5] > 1:
                resumed.add("mid-step" if resume else
                            "between steps" if first else "start")
            # every wrapper call starts again from one row and one block
            cext._tls.record_cap = (1, 1)
            return lib.mega_daic_round(*args)

    monkeypatch.setattr(cext, "load_library", Counting)
    monkeypatch.setattr(cext, "_RECORD_ROWS", 1)
    monkeypatch.setattr(cext, "_RECORD_BLOCKS", 1)
    monkeypatch.setattr(cext._tls, "record_cap", (1, 1), raising=False)
    assert run() == roomy
    assert max(kernel_calls) >= 4, "no call resumed twice"
    assert {"mid-step", "between steps", "mid-cascade"} <= resumed
    reset_backend()
    resolve_backend("numpy")
    assert run() == roomy


def test_record_capacity_carries_over_between_calls(compiled, monkeypatch):
    """A thread's recorded calls start from the capacity its earlier
    calls grew to: once a run has grown the buffers, a second identical
    run makes exactly one kernel call per wrapper call."""
    from repro.engines import PlanExecutor
    from repro.perf.backend import cext

    scenario = _scenario()
    plans = [WORKFLOWS[w](scenario.unified) for w in ("streaming", "direct-hop")]
    lib = cext.load_library()
    calls = {"wrapper": 0, "kernel": 0}

    class Counting:
        def __getattr__(self, name):
            return getattr(lib, name)

        def mega_daic_round(self, *args):
            calls["kernel"] += 1
            return lib.mega_daic_round(*args)

    def counted_round(*args, **kwargs):
        calls["wrapper"] += 1
        return daic_round(*args, **kwargs)

    daic_round = cext.daic_round
    monkeypatch.setattr(cext, "daic_round", counted_round)
    monkeypatch.setattr(cext, "load_library", Counting)
    monkeypatch.setattr(cext, "_RECORD_ROWS", 1)
    monkeypatch.setattr(cext, "_RECORD_BLOCKS", 1)
    monkeypatch.setattr(cext._tls, "record_cap", (1, 1), raising=False)
    reset_backend()
    resolve_backend(compiled)

    def run():
        calls.update(wrapper=0, kernel=0)
        for plan in plans:
            PlanExecutor(
                scenario, get_algorithm("bfs"), record_touched_edges=True
            ).run(plan)
        return dict(calls)

    first, second = run(), run()
    assert first["kernel"] > first["wrapper"] > 0, "nothing outgrew 1 row"
    assert second == {"wrapper": first["wrapper"], "kernel": first["wrapper"]}


def test_profiler_books_loop_calls(compiled):
    """A loop call advances rounds_seen by the rounds it ran and is
    booked as one fused_relax section."""
    from repro.obs.profile import profiled

    resolve_backend(compiled)
    unified = _scenario().unified
    engine = MultiVersionEngine(get_algorithm("sssp"), unified)
    presence = np.ones((1, unified.n_union_edges), dtype=bool)
    frontier = np.zeros((1, unified.n_vertices), dtype=bool)
    for sample_every, booked in ((1000, {}), (1, {"fused_relax": 1})):
        values = engine.new_values(1, 0)
        frontier[0, 0] = True
        with profiled(sample_every) as prof:
            rounds = engine.propagate(values, frontier, presence)
        snap = prof.snapshot()
        assert rounds > 1
        assert snap["rounds_seen"] == rounds
        assert {
            name: sec["rounds"] for name, sec in snap["sections"].items()
        } == booked


def test_serving_paths_build_no_trace_collector(monkeypatch):
    """Value-only callers never pay for traces."""
    from repro.core.window_server import WindowServer
    from repro.engines import executor
    from repro.resilience.recovery import recompute_snapshot_from_common
    from repro.service.ingest import synthesize_delta

    def refuse(*args, **kwargs):
        raise AssertionError("a serving path built a TraceCollector")

    monkeypatch.setattr(executor, "TraceCollector", refuse)
    scenario = _scenario()
    algo = get_algorithm("sssp")
    mq = evaluate_multi_query(scenario, algo, [0, 5])
    assert mq.collector is None
    server = WindowServer(scenario, algo)
    delta = synthesize_delta(server.scenario, seed=4)
    server.advance(delta.additions(scenario.n_vertices), delta.deletions())
    recompute_snapshot_from_common(scenario, algo, 2)
