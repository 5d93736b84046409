"""Differential parity: the compiled window merge against the numpy bodies.

On the C tier ``slide_window`` and ``extract_window`` each make one
``window_merge`` call; their numpy bodies are the reference.  Every test
here makes the same window move under both tiers and compares the result
array for array — CSR columns, ``src_of_edge``, tags, planes, slot lists
and the old latest-snapshot mask — or, for a delta the window refuses,
the ``ValueError`` message.  No tolerances.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.evolving import synthesize_scenario
from repro.evolving.snapshots import EvolvingScenario
from repro.evolving.unified_csr import UnifiedCSR
from repro.evolving.window import extract_window, slide_window
from repro.graph.csr import CSRGraph
from repro.graph.edges import EdgeList
from repro.graph.generators import uniform_edges
from repro.perf.backend import (
    SLIDE_BAD_ADDITION,
    available_backends,
    get_backend,
    reset_backend,
    resolve_backend,
)
from repro.service.ingest import synthesize_delta
from repro.workloads import load_scenario

#: compiled tiers loadable on this machine; empty -> these tests skip
COMPILED = [name for name in available_backends() if name != "numpy"]
#: the six Table-4 graphs (perfbench's paper-table4)
TABLE4_GRAPHS = ("PK", "LJ", "OR", "DL", "UK", "Wen")


@pytest.fixture(autouse=True)
def _restore_backend():
    yield
    reset_backend()


@pytest.fixture(params=COMPILED if COMPILED else ["missing"])
def compiled(request):
    if not COMPILED:
        pytest.skip("no compiled kernel tier available")
    return request.param


def _arrays(u: UnifiedCSR) -> list[np.ndarray]:
    g = u.graph
    return [g.indptr, g.src_of_edge, g.dst, g.wt, u.add_step, u.del_step,
            u.presence_planes()]


def _assert_same(ref: list, got: list, label: str = "") -> None:
    assert len(ref) == len(got), label
    for k, (a, b) in enumerate(zip(ref, got)):
        assert a.dtype == b.dtype and a.shape == b.shape, (label, k)
        assert np.array_equal(a, b), (label, k)


def _assert_tag_rules(u: UnifiedCSR) -> None:
    """The rules ``UnifiedCSR`` checks its tags against, which it skips
    for a compiled merge's union: no edge both added and deleted, and
    every batch step in ``[0, n - 2]`` (or -1, none)."""
    n = u.n_snapshots
    assert not np.any((u.add_step >= 0) & (u.del_step >= 0))
    for tags in (u.add_step, u.del_step):
        assert np.all((tags >= -1) & (tags <= n - 2))


def _on_tiers(compiled: str, fn):
    """``fn()`` under the numpy reference, then under ``compiled``."""
    out = []
    for name in ("numpy", compiled):
        resolve_backend(name)
        out.append(fn())
    return out


def _slide(compiled: str, u: UnifiedCSR, adds, dels, label="") -> UnifiedCSR:
    """Slide ``u`` on both tiers, assert them equal; the slid union."""

    def run():
        r = slide_window(u, adds, dels)
        assert r.unified.n_snapshots == u.n_snapshots
        _assert_tag_rules(r.unified)
        return r, _arrays(r.unified) + [r.del_slots, r.add_slots,
                                        r.last_presence]

    (ref, ref_arrays), (__, got_arrays) = _on_tiers(compiled, run)
    _assert_same(ref_arrays, got_arrays, label)
    return ref.unified


def _extracts(compiled: str, u: UnifiedCSR, windows, label="") -> None:
    for lo, hi in windows:
        ref, got = _on_tiers(
            compiled, lambda lo=lo, hi=hi: extract_window(u, lo, hi)
        )
        assert ref.n_snapshots == got.n_snapshots == hi - lo + 1
        _assert_tag_rules(got)
        _assert_same(_arrays(ref), _arrays(got), f"{label} [{lo}, {hi}]")


def _random_delta(u: UnifiedCSR, rng, n_add: int = 6, n_del: int = 6):
    """A delta the window accepts: deletions of live edges not added
    inside the window (those added at the first transition included),
    additions of pairs neither live nor deleted inside the window, the
    corner vertices 0 and n - 1 among them."""
    nv, n, g = u.n_vertices, u.n_snapshots, u.graph
    deletable = np.flatnonzero(u.presence_mask(n - 1) & (u.add_step < 1))
    picked = rng.permutation(deletable)[:n_del]
    dels = [(int(g.src_of_edge[i]), int(g.dst[i])) for i in picked]
    blocked = set(zip(g.src_of_edge[u.del_step != 0].tolist(),
                      g.dst[u.del_step != 0].tolist()))
    candidates = [(0, nv - 1), (nv - 1, 0), (nv - 1, nv - 1), (0, 0)]
    candidates += [tuple(p) for p in rng.integers(0, nv, (4 * n_add, 2))]
    adds, seen = [], set()
    for s, d in candidates:
        if (s, d) not in blocked and (s, d) not in seen and len(adds) < n_add:
            seen.add((s, d))
            adds.append((int(s), int(d), 1.0 + (s * nv + d) % 7))
    return EdgeList.from_tuples(nv, adds), dels


def _windows(n: int, step: int = 1):
    return [(lo, hi) for lo in range(0, n, step) for hi in range(lo, n, step)]


# -- chained slides on the paper's graphs ------------------------------------


@pytest.mark.parametrize("scale", ["tiny", "small"])
@pytest.mark.parametrize("graph", TABLE4_GRAPHS)
def test_table4_slide_chains_match(compiled, graph, scale):
    """Chained slides by the service's seeded churn and by random deltas
    (which also delete edges added at the first transition), then
    sub-windows of the slid union."""
    scenario = load_scenario(graph, scale)
    u = scenario.unified
    rng = np.random.default_rng(len(graph))
    for k in range(3):
        delta = synthesize_delta(EvolvingScenario(u, scenario.source), seed=k)
        u = _slide(compiled, u, delta.additions(u.n_vertices),
                   delta.deletions(), f"{graph} seeded {k}")
        adds, dels = _random_delta(u, rng)
        u = _slide(compiled, u, adds, dels, f"{graph} random {k}")
    _extracts(compiled, u, [(0, 15), (1, 15), (0, 0), (15, 15), (3, 9),
                            (7, 8), (8, 15)], graph)


# -- plane boundaries and delta shapes ---------------------------------------


@pytest.mark.parametrize("n_snapshots", [1, 2, 8, 9, 16, 17])
def test_plane_boundaries_match(compiled, n_snapshots):
    """Windows one short of, at and one past a plane's eight snapshots:
    slides carry bits across planes and every sub-window shifts them."""
    pool = uniform_edges(40, 240, seed=n_snapshots)
    u = synthesize_scenario(
        pool, n_snapshots=n_snapshots, batch_pct=0.1, seed=n_snapshots
    ).unified
    rng = np.random.default_rng(n_snapshots)
    for k in range(4):
        adds, dels = _random_delta(u, rng)
        u = _slide(compiled, u, adds, dels, f"slide {k}")
    _extracts(compiled, u, _windows(n_snapshots), f"K={n_snapshots}")


def test_delta_shapes_match(small_scenario, compiled):
    """Empty, additions-only and deletions-only deltas."""
    u = small_scenario.unified
    rng = np.random.default_rng(5)
    adds, dels = _random_delta(u, rng)
    none = EdgeList.from_tuples(u.n_vertices, [])
    for label, a, d in [("empty", None, None), ("empty lists", none, []),
                        ("additions only", adds, []),
                        ("deletions only", None, dels)]:
        _slide(compiled, u, a, d, label)


def _edgeless(n_vertices: int = 8, n_snapshots: int = 4) -> UnifiedCSR:
    empty = EdgeList.from_tuples(n_vertices, [])
    return UnifiedCSR(CSRGraph.from_edges(empty), np.zeros(0, np.int32),
                      np.zeros(0, np.int32), n_snapshots)


def test_edgeless_window_matches(compiled):
    u = _edgeless()
    _slide(compiled, u, None, None, "noop")
    _extracts(compiled, u, _windows(4), "edgeless")
    adds = EdgeList.from_tuples(8, [(7, 0, 1.5), (1, 2, 2.0), (0, 7, 3.0)])
    u = _slide(compiled, u, adds, [], "additions")
    assert u.n_union_edges == 3
    _extracts(compiled, u, _windows(4), "three edges")


def _common_union(edges, n_vertices=6, n_snapshots=4) -> UnifiedCSR:
    g = CSRGraph.from_tuples(n_vertices, edges)
    none = np.full(g.n_edges, -1, np.int32)
    return UnifiedCSR(g, none, none.copy(), n_snapshots)


@pytest.mark.parametrize("n_snapshots", [1, 4])
def test_additions_land_in_their_rows(compiled, n_snapshots):
    """Additions into an empty row (the last row's too), before a row's
    first edge, after a row's last edge, and beside a deletion in the
    same row — which, in a one-snapshot window, leaves the union."""
    u = _common_union(
        [(0, 1, 1.0), (0, 3, 1.0), (2, 1, 1.0), (2, 4, 1.0), (4, 2, 1.0)],
        n_snapshots=n_snapshots,
    )
    adds = EdgeList.from_tuples(6, [
        (1, 5, 2.0),   # empty row
        (0, 5, 3.0),   # after row 0's last edge
        (2, 0, 4.0),   # before row 2's first edge
        (2, 2, 5.0),   # between the deleted (2, 1) and (2, 4)
        (5, 0, 6.0),   # the last row, empty
        (4, 3, 7.0),   # after the last edge of the union
    ])
    dels = [(2, 1), (0, 1)]
    slid = _slide(compiled, u, adds, dels, f"K={n_snapshots}")
    for tier in ("numpy", compiled):
        resolve_backend(tier)
        r = slide_window(u, adds, dels)
        got = list(zip(r.unified.graph.src_of_edge[r.add_slots].tolist(),
                       r.unified.graph.dst[r.add_slots].tolist()))
        assert got == list(zip(adds.src.tolist(), adds.dst.tolist())), tier
    expect_rows = [[1, 3, 5], [5], [0, 1, 2, 4], [], [2, 3], [0]]
    if n_snapshots == 1:
        expect_rows = [[3, 5], [5], [0, 2, 4], [], [2, 3], [0]]
    for row, dsts in enumerate(expect_rows):
        assert slid.graph.neighbors(row).tolist() == dsts, row


# -- refusals ----------------------------------------------------------------


def _message(fn) -> str:
    with pytest.raises(ValueError) as info:
        fn()
    return str(info.value)


def test_every_refusal_matches(small_scenario, compiled):
    """Each CommonGraph check refuses with the same message on both
    tiers, and a deletion's refusal wins over an addition's."""
    u = small_scenario.unified
    nv, n, g = u.n_vertices, u.n_snapshots, u.graph

    def pair(i):
        return int(g.src_of_edge[i]), int(g.dst[i])

    live = u.presence_mask(n - 1)
    common = pair(np.flatnonzero(live & u.common_mask)[0])
    added_inside = pair(np.flatnonzero(live & (u.add_step >= 1))[0])
    deleted_inside = pair(np.flatnonzero(u.del_step >= 1)[0])
    gone = pair(np.flatnonzero(~live)[0])
    keys = set(zip(g.src_of_edge.tolist(), g.dst.tolist()))
    absent = next((a, b) for a in range(nv) for b in range(nv)
                  if (a, b) not in keys)

    def adds(*pairs):
        return EdgeList.from_tuples(nv, [(s, d, 1.0) for s, d in pairs])

    cases = [
        (None, [(0, nv)], r"edge \(0, \d+\): vertex out of range"),
        (None, [(-1, 2)], r"edge \(-1, 2\): vertex out of range"),
        (None, [common, (nv, 0)], r"vertex out of range"),
        (None, [absent], r"not present in the latest snapshot"),
        (None, [gone], r"not present in the latest snapshot"),
        (None, [common, added_inside], r"added inside the current window"),
        (adds(absent, absent), [], r"duplicate pairs"),
        (adds(absent, common), [], r"duplicate a live edge"),
        (adds(deleted_inside), [], r"re-adding an edge deleted inside"),
        (adds(common), [absent], r"not present in the latest snapshot"),
        (adds(absent, absent), [added_inside], r"added inside"),
    ]
    for a, d, pattern in cases:
        ref, got = _on_tiers(
            compiled, lambda a=a, d=d: _message(lambda: slide_window(u, a, d))
        )
        assert ref == got, (a, d)
        assert re.search(pattern, got), got


def test_out_of_range_addition_is_refused_in_c(compiled):
    """The kernel checks an addition's vertices itself (an EdgeList never
    holds one out of range, so only a direct call can pass it)."""
    resolve_backend(compiled)
    u = _common_union([(0, 1, 1.0)])
    g = u.graph
    merge = get_backend().window_merge(
        g.indptr, g.src_of_edge, g.dst, g.wt, u.add_step, u.del_step,
        u.presence_planes(), 4, 1, 3, 4,
        add_src=np.array([1, 6], np.int64), add_dst=np.array([2, 0], np.int64),
        add_wt=np.ones(2),
    )
    assert (merge.refusal, merge.index) == (SLIDE_BAD_ADDITION, 1)
    with pytest.raises(ValueError, match="only a slide takes a transition"):
        get_backend().window_merge(
            g.indptr, g.src_of_edge, g.dst, g.wt, u.add_step, u.del_step,
            u.presence_planes(), 4, 1, 3, 3,
            dels=np.array([[0, 1]], np.int64),
        )
    with pytest.raises(ValueError, match="planes"):
        get_backend().window_merge(
            g.indptr, g.src_of_edge, g.dst, g.wt, u.add_step, u.del_step,
            np.zeros((2, 1), np.uint8), 4, 1, 3, 4,
        )


def test_last_presence_is_built_on_first_read(small_scenario, compiled):
    """A compiled slide builds no O(E) latest-snapshot mask unless value
    repair reads it; then it is the old union's."""
    resolve_backend(compiled)
    u = small_scenario.unified
    adds, dels = _random_delta(u, np.random.default_rng(2))
    result = slide_window(u, adds, dels)
    assert result._last_presence is None
    assert np.array_equal(
        result.last_presence, u.presence_mask(u.n_snapshots - 1)
    )
    assert result.last_presence is result._last_presence
