"""Tests for the sliding-window server."""

import numpy as np
import pytest

from repro.algorithms import get_algorithm
from repro.core.window_server import WindowServer
from repro.engines import MultiVersionEngine
from repro.engines.deletion import reconstruct_parents
from repro.engines.validation import evaluate_reference
from repro.evolving import synthesize_scenario
from repro.graph.edges import EdgeList, edge_keys
from repro.graph.generators import rmat_edges


def fresh_server(seed=3, algo="sssp", n_snapshots=5):
    pool = rmat_edges(64, 512, seed=seed)
    scenario = synthesize_scenario(
        pool, n_snapshots=n_snapshots, batch_pct=0.04, seed=seed + 1
    )
    return WindowServer(scenario, get_algorithm(algo))


def check_against_scratch(server):
    for k in range(server.n_snapshots):
        expected = evaluate_reference(
            server.scenario, server.algorithm, k
        )
        assert np.allclose(server.values(k), expected, equal_nan=True), k


def pick_new_edges(server, rng, count):
    u = server.scenario.unified
    n = u.n_vertices
    taken = set(
        edge_keys(u.graph.src_of_edge, u.graph.dst, n).tolist()
    )
    out = []
    while len(out) < count:
        s, d = int(rng.integers(n)), int(rng.integers(n))
        if s == d or s * n + d in taken:
            continue
        taken.add(s * n + d)
        out.append((s, d, float(rng.uniform(1, 8))))
    return EdgeList.from_tuples(n, out)


def pick_deletable(server, rng, count):
    u = server.scenario.unified
    last = u.presence_mask(u.n_snapshots - 1)
    ok = last & (u.add_step < 1)
    slots = rng.choice(np.flatnonzero(ok), size=count, replace=False)
    return [
        (int(u.graph.src_of_edge[s]), int(u.graph.dst[s])) for s in slots
    ]


def test_initial_window_matches_scratch():
    server = fresh_server()
    check_against_scratch(server)


@pytest.mark.parametrize(
    "algo", ["sssp", "sswp", "bfs", "ssnp", "viterbi"]
)
def test_slides_stay_correct(algo):
    server = fresh_server(algo=algo)
    rng = np.random.default_rng(11)
    for step in range(4):
        adds = pick_new_edges(server, rng, 6)
        dels = pick_deletable(server, rng, 5)
        server.advance(adds, dels)
        check_against_scratch(server)
    assert server.slides == 4


@pytest.mark.parametrize(
    "algo", ["sssp", "sswp", "bfs", "ssnp", "viterbi"]
)
def test_slid_window_is_bit_identical_to_fresh_build(algo):
    """Differential parity: after >= 3 slides with additions *and*
    deletions, every snapshot the advanced server holds must equal —
    bit for bit — a WindowServer freshly built over the slid scenario
    (the unique-fixpoint argument sliding-window serving relies on)."""
    server = fresh_server(algo=algo)
    rng = np.random.default_rng(23)
    for _ in range(3):
        adds = pick_new_edges(server, rng, 5)
        dels = pick_deletable(server, rng, 4)
        server.advance(adds, dels)
    rebuilt = WindowServer(server.scenario, server.algorithm)
    for k in range(server.n_snapshots):
        assert np.array_equal(
            server.values(k), rebuilt.values(k), equal_nan=True
        ), (algo, k)


def test_slide_preserves_surviving_results():
    server = fresh_server()
    before = [server.values(k).copy() for k in range(server.n_snapshots)]
    rng = np.random.default_rng(5)
    server.advance(pick_new_edges(server, rng, 3), pick_deletable(server, rng, 3))
    for k in range(server.n_snapshots - 1):
        assert np.array_equal(server.values(k), before[k + 1])


def test_additions_only_slide():
    server = fresh_server(algo="sswp")
    rng = np.random.default_rng(9)
    server.advance(additions=pick_new_edges(server, rng, 8))
    check_against_scratch(server)


def test_deletions_only_slide():
    server = fresh_server(algo="bfs")
    rng = np.random.default_rng(13)
    server.advance(deletions=pick_deletable(server, rng, 6))
    check_against_scratch(server)


def test_rejects_window_internal_deletion():
    server = fresh_server()
    u = server.scenario.unified
    inside = np.flatnonzero(u.add_step >= 1)
    if inside.size == 0:
        pytest.skip("no window-internal additions for this seed")
    s = int(u.graph.src_of_edge[inside[0]])
    d = int(u.graph.dst[inside[0]])
    with pytest.raises(ValueError, match="split the window"):
        server.advance(deletions=[(s, d)])


def test_rejects_absent_deletion_and_duplicate_addition():
    server = fresh_server()
    u = server.scenario.unified
    with pytest.raises(ValueError, match="not present"):
        server.advance(deletions=[(0, 0)])
    live = np.flatnonzero(u.presence_mask(u.n_snapshots - 1))[0]
    dup = EdgeList.from_tuples(
        u.n_vertices,
        [(int(u.graph.src_of_edge[live]), int(u.graph.dst[live]), 2.0)],
    )
    with pytest.raises(ValueError, match="duplicate a live edge"):
        server.advance(additions=dup)


# -- parent reconstruction ------------------------------------------------------


@pytest.mark.parametrize("algo_name", ["sssp", "sswp", "ssnp", "viterbi", "bfs"])
def test_reconstructed_parents_enable_repair(algo_name):
    """Deletion repair on reconstructed parents equals from-scratch."""
    algo = get_algorithm(algo_name)
    pool = rmat_edges(72, 560, seed=21)
    scenario = synthesize_scenario(pool, n_snapshots=2, batch_pct=0.03, seed=4)
    u = scenario.unified
    presence = u.presence_mask(1)
    engine = MultiVersionEngine(algo, u, track_parents=True)
    values = engine.evaluate_full(presence, scenario.source)  # NO parents
    reconstruct_parents(engine, values, presence, scenario.source)

    rng = np.random.default_rng(6)
    doomed = rng.choice(np.flatnonzero(presence), size=40, replace=False)
    presence_after = presence.copy()
    presence_after[doomed] = False
    from repro.engines import DeletionRepair

    DeletionRepair(engine).apply_deletions(
        values, doomed, presence_after, scenario.source
    )
    expected = MultiVersionEngine(algo, u).evaluate_full(
        presence_after, scenario.source
    )
    assert np.allclose(values, expected, equal_nan=True)


def test_reconstructed_forest_is_acyclic():
    algo = get_algorithm("sswp")  # plateau-prone: the cycle hazard case
    pool = rmat_edges(64, 700, seed=2)
    scenario = synthesize_scenario(pool, n_snapshots=2, batch_pct=0.03, seed=8)
    u = scenario.unified
    presence = u.presence_mask(0)
    engine = MultiVersionEngine(algo, u, track_parents=True)
    values = engine.evaluate_full(presence, scenario.source)
    reconstruct_parents(engine, values, presence, scenario.source)
    parent = engine.parent_edge[0]
    for v in range(u.n_vertices):
        seen = set()
        cur = v
        while parent[cur] >= 0:
            assert cur not in seen, "cycle!"
            seen.add(cur)
            cur = int(u.graph.src_of_edge[parent[cur]])

def test_as_result_feeds_analysis():
    from repro.analysis import track_reach

    server = fresh_server(algo="bfs")
    series = track_reach(server.as_result(), server.algorithm)
    assert len(series) == server.n_snapshots
    assert series.values[-1] > 0


@pytest.mark.parametrize("tier", ["numpy", "cext"])
@pytest.mark.parametrize("algo", ["sssp", "sswp", "ssnp", "viterbi"])
def test_nan_window_refuses_deletion_slides(tier, algo):
    """A NaN weight the source reaches poisons values in round order, so
    no parent forest can be grounded in them: a deletion slide refuses
    with the grounding's error, on either kernel tier, and leaves the
    server exactly as it was (bfs ignores weights, so only four of the
    five algorithms are poisoned)."""
    from repro.engines.deletion import NOT_A_FIXPOINT
    from repro.perf.backend import (
        available_backends,
        reset_backend,
        resolve_backend,
    )

    if tier not in available_backends():
        pytest.skip(f"{tier} tier unavailable")
    rng = np.random.default_rng(5)
    try:
        resolve_backend(tier)
        pool = rmat_edges(64, 512, seed=3)
        out = np.flatnonzero(pool.src == 0)
        pool.wt[out[:2]] = np.nan
        scenario = synthesize_scenario(
            pool, n_snapshots=5, batch_pct=0.04, seed=4
        )
        server = WindowServer(scenario, get_algorithm(algo))
        assert np.isnan(server.latest()).any()
        values = [server.values(k).copy() for k in range(5)]
        with pytest.raises(RuntimeError, match=NOT_A_FIXPOINT):
            server.advance(deletions=pick_deletable(server, rng, 3))
        assert server.scenario is scenario
        assert server.slides == 0
        for k in range(5):
            assert np.array_equal(server.values(k), values[k], equal_nan=True)
    finally:
        reset_backend()
