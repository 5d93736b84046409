"""Tests for ad-hoc time-window extraction and window sliding."""

import dataclasses
import os
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import get_algorithm
from repro.engines import PlanExecutor
from repro.engines.validation import evaluate_reference, validate_workflow
from repro.evolving import synthesize_scenario
from repro.evolving.unified_csr import UnifiedCSR, tag_planes
from repro.evolving.window import extract_window, slide_window, window_scenario
from repro.graph.csr import CSRGraph
from repro.graph.edges import EdgeList
from repro.graph.generators import uniform_edges
from repro.perf.backend import get_backend
from repro.schedule import boe_plan, work_sharing_plan


def edge_set(graph):
    return set(zip(graph.src_of_edge.tolist(), graph.dst.tolist()))


def test_window_snapshots_match_original(small_scenario):
    u = small_scenario.unified
    lo, hi = 2, 5
    w = extract_window(u, lo, hi)
    assert w.n_snapshots == hi - lo + 1
    for k in range(lo, hi + 1):
        assert edge_set(w.snapshot_graph(k - lo)) == edge_set(
            u.snapshot_graph(k)
        )


def test_window_common_graph_is_range_common(small_scenario):
    u = small_scenario.unified
    lo, hi = 1, 6
    w = extract_window(u, lo, hi)
    inter = None
    for k in range(lo, hi + 1):
        s = edge_set(u.snapshot_graph(k))
        inter = s if inter is None else inter & s
    assert edge_set(w.common_graph()) == inter


def test_window_drops_outside_edges(small_scenario):
    u = small_scenario.unified
    w = extract_window(u, 3, 4)
    union = set()
    for k in (3, 4):
        union |= edge_set(u.snapshot_graph(k))
    assert edge_set(w.graph) == union


def test_full_window_is_identity(small_scenario):
    u = small_scenario.unified
    w = extract_window(u, 0, u.n_snapshots - 1)
    assert w.n_union_edges == u.n_union_edges
    assert np.array_equal(w.add_step, u.add_step)
    assert np.array_equal(w.del_step, u.del_step)


def test_single_snapshot_window(small_scenario):
    u = small_scenario.unified
    w = extract_window(u, 4, 4)
    assert w.n_snapshots == 1
    assert bool(w.common_mask.all())
    assert edge_set(w.snapshot_graph(0)) == edge_set(u.snapshot_graph(4))


def test_window_bounds_checked(small_scenario):
    u = small_scenario.unified
    with pytest.raises(IndexError):
        extract_window(u, 3, 2)
    with pytest.raises(IndexError):
        extract_window(u, 0, u.n_snapshots)


@pytest.mark.parametrize("factory", [boe_plan, work_sharing_plan])
def test_workflows_run_on_windows(small_scenario, factory):
    """Every workflow evaluates a sub-window correctly."""
    algo = get_algorithm("sssp")
    sub = window_scenario(small_scenario, 2, 6)
    result = PlanExecutor(sub, algo).run(factory(sub.unified))
    validate_workflow(sub, algo, result)
    # and window values equal the original scenario's snapshot values
    for k in range(2, 7):
        expected = evaluate_reference(small_scenario, algo, k)
        assert np.allclose(result.values(k - 2), expected, equal_nan=True)


def test_window_scenario_metadata(small_scenario):
    sub = window_scenario(small_scenario, 1, 3)
    assert sub.metadata["window"] == (1, 3)
    assert sub.source == small_scenario.source
    assert "[1:3]" in sub.name


# -- sliding ---------------------------------------------------------------


def _edgeless_window(n_vertices: int = 8, n_snapshots: int = 4) -> UnifiedCSR:
    empty = EdgeList.from_tuples(n_vertices, [])
    return UnifiedCSR(
        CSRGraph.from_edges(empty),
        np.zeros(0, np.int32),
        np.zeros(0, np.int32),
        n_snapshots,
    )


def test_slide_empty_union_with_addition():
    """Regression: sliding an edgeless window used to raise IndexError
    (``slots_of`` fancy-indexed ``union_keys[pos]`` before its guard)."""
    u = _edgeless_window()
    adds = EdgeList.from_tuples(u.n_vertices, [(1, 2, 1.5)])
    result = slide_window(u, adds, [])
    assert result.unified.n_snapshots == u.n_snapshots
    assert result.del_slots.size == 0
    assert result.add_slots.tolist() == [0]
    # the addition arrives at the last transition of the slid window
    assert int(result.unified.presence_mask(u.n_snapshots - 1).sum()) == 1
    for k in range(u.n_snapshots - 1):
        assert int(result.unified.presence_mask(k).sum()) == 0


def test_slide_empty_union_noop():
    u = _edgeless_window()
    result = slide_window(u)
    assert result.unified.n_union_edges == 0
    assert result.del_slots.size == 0 and result.add_slots.size == 0


def test_slide_empty_union_deletion_is_value_error():
    """A deletion against an empty union must fail validation with the
    'not present' ValueError, not crash with IndexError."""
    u = _edgeless_window()
    with pytest.raises(ValueError, match="not present"):
        slide_window(u, None, [(1, 2)])


def test_slide_rejects_missing_and_duplicate_edges(small_scenario):
    u = small_scenario.unified
    n = u.n_vertices
    present = u.presence_mask(u.n_snapshots - 1)
    live_slot = int(np.flatnonzero(present)[0])
    src = int(u.graph.src_of_edge[live_slot])
    dst = int(u.graph.dst[live_slot])
    with pytest.raises(ValueError, match="duplicate a live edge"):
        slide_window(u, EdgeList.from_tuples(n, [(src, dst, 1.0)]), [])
    absent = (src + 1) % n, src  # may exist; search for a truly absent pair
    keys = set(zip(u.graph.src_of_edge.tolist(), u.graph.dst.tolist()))
    for a in range(n):
        for b in range(n):
            if a != b and (a, b) not in keys:
                absent = (a, b)
                break
        else:
            continue
        break
    with pytest.raises(ValueError, match="not present"):
        slide_window(u, None, [absent])


def _full_history_changes(u: UnifiedCSR, step: int):
    """The Δ+/Δ- a full-history unified CSR records at ``step``."""
    src, dst, wt = u.graph.src_of_edge, u.graph.dst, u.graph.wt
    add_rows = np.flatnonzero(u.add_step == step)
    del_rows = np.flatnonzero(u.del_step == step)
    adds = EdgeList(
        u.n_vertices, src[add_rows].copy(), dst[add_rows].copy(),
        wt[add_rows].copy(),
    )
    dels = list(zip(src[del_rows].tolist(), dst[del_rows].tolist()))
    return adds, dels


def test_slide_equals_slicing_full_history(small_scenario):
    """Property: for any window of the full history, extracting
    ``[lo, hi]`` and sliding it with the Δs recorded at step ``hi``
    yields exactly ``extract_window(lo + 1, hi + 1)``."""
    u = small_scenario.unified
    for lo in range(u.n_snapshots - 2):
        for width in (1, 2, 3):
            hi = lo + width
            if hi + 1 >= u.n_snapshots:
                continue
            window = extract_window(u, lo, hi)
            adds, dels = _full_history_changes(u, hi)
            slid = slide_window(window, adds, dels).unified
            expected = extract_window(u, lo + 1, hi + 1)
            assert slid.n_union_edges == expected.n_union_edges
            assert np.array_equal(
                slid.graph.src_of_edge, expected.graph.src_of_edge
            )
            assert np.array_equal(slid.graph.dst, expected.graph.dst)
            assert np.array_equal(slid.graph.wt, expected.graph.wt)
            assert np.array_equal(slid.add_step, expected.add_step)
            assert np.array_equal(slid.del_step, expected.del_step)


def test_slide_rejects_out_of_range_deletion():
    """Regression: a deletion keyed ``s * n + d`` with ``d == n`` aliased
    edge ``(s + 1, 0)`` and silently deleted (or refused) that one."""
    u = _edgeless_window(n_vertices=4)
    adds = EdgeList.from_tuples(4, [(1, 0, 1.0)])
    u = slide_window(u, adds, []).unified
    for __ in range(u.n_snapshots - 2):  # until (1, 0) is deletable
        u = slide_window(u).unified
    for pair in [(0, 4), (-1, 2), (4, 0)]:
        with pytest.raises(ValueError, match=re.escape(f"edge {pair}: vertex")):
            slide_window(u, None, [pair])
    slid = slide_window(u, None, [(1, 0)]).unified  # the real edge still can
    assert not slid.presence_mask(u.n_snapshots - 1).any()


def test_one_snapshot_slide_drops_deletions():
    """A one-snapshot window has no transition to tag: deleted edges leave
    the union and additions join it as common edges."""
    g = CSRGraph.from_tuples(3, [(0, 1, 1.0), (1, 2, 1.0)])
    u = UnifiedCSR(g, np.full(2, -1, np.int32), np.full(2, -1, np.int32), 1)
    adds = EdgeList.from_tuples(3, [(2, 0, 2.0)])
    slid = slide_window(u, adds, [(0, 1)]).unified
    assert edge_set(slid.graph) == {(1, 2), (2, 0)}
    assert bool(slid.common_mask.all())
    assert slid.presence_mask(0).all()


def test_slid_planes_are_injected_not_rebuilt(small_scenario):
    u = small_scenario.unified
    live = np.flatnonzero(u.presence_mask(u.n_snapshots - 1) & u.common_mask)
    pair = (int(u.graph.src_of_edge[live[0]]), int(u.graph.dst[live[0]]))
    slid = slide_window(u, None, [pair]).unified
    # set by the slide itself, before any presence_* call could build them
    assert slid._planes is not None
    assert not slid._planes.flags.writeable
    assert np.array_equal(
        slid._planes, tag_planes(slid.add_step, slid.del_step, slid.n_snapshots)
    )


# -- merged slides against the sorted construction -------------------------


def _sorted_transpose(graph: CSRGraph):
    """The lexsort-built transpose and per-slot origin the merge replaced."""
    origin = np.lexsort((graph.src_of_edge, graph.dst))
    rev = CSRGraph.from_edges(
        EdgeList(graph.n_vertices, graph.dst, graph.src_of_edge, graph.wt)
    )
    return rev, origin


def _sorted_slide(u: UnifiedCSR, adds: EdgeList, dels):
    """Reference slide: concatenate, lexsort, ``from_edges``, and derive
    the planes from the shifted tags (the construction before merging)."""
    n, nv, g = u.n_snapshots, u.n_vertices, u.graph
    keys = g.src_of_edge * nv + g.dst
    del_slots = np.searchsorted(
        keys, np.asarray([s * nv + d for s, d in dels], dtype=np.int64)
    ).astype(np.int64)
    tagged_del = u.del_step.astype(np.int64)
    tagged_del[del_slots] = n - 1  # shifts down to n - 2 below
    keep = u.del_step != 0
    add_step = np.where(u.add_step > 0, u.add_step - 1, -1)[keep]
    del_step = np.where(tagged_del > 0, tagged_del - 1, tagged_del)[keep]
    src = np.concatenate([g.src_of_edge[keep], adds.src])
    dst = np.concatenate([g.dst[keep], adds.dst])
    wt = np.concatenate([g.wt[keep], adds.wt])
    order = np.lexsort((dst, src))
    ref = UnifiedCSR(
        CSRGraph.from_edges(EdgeList(nv, src, dst, wt)),
        np.concatenate([add_step, np.full(len(adds), n - 2)])[order],
        np.concatenate([del_step, np.full(len(adds), -1)])[order],
        n,
    )
    ref_keys = ref.graph.src_of_edge * nv + ref.graph.dst
    return ref, del_slots, np.searchsorted(ref_keys, adds.keys)


def _assert_same_union(got: UnifiedCSR, ref: UnifiedCSR) -> None:
    for name in ("indptr", "dst", "wt", "src_of_edge"):
        a, b = getattr(got.graph, name), getattr(ref.graph, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert np.array_equal(got.add_step, ref.add_step)
    assert np.array_equal(got.del_step, ref.del_step)
    assert np.array_equal(got.presence_planes(), ref.presence_planes())
    rev, origin = _sorted_transpose(ref.graph)
    got_rev = got.reverse_graph()
    assert np.array_equal(got.reverse_edge_origin, origin)
    for name in ("indptr", "dst", "wt", "src_of_edge"):
        assert np.array_equal(getattr(got_rev, name), getattr(rev, name)), name


@st.composite
def _deltas(draw, u: UnifiedCSR):
    """A delta the window accepts: deletions of live edges never added
    inside the window (so edges added at the first transition qualify),
    additions of pairs not live, vertices ``0`` and ``n - 1`` included."""
    nv, n = u.n_vertices, u.n_snapshots
    g = u.graph
    deletable = np.flatnonzero(u.presence_mask(n - 1) & (u.add_step < 1))
    n_del = draw(st.integers(0, min(6, deletable.size)))
    picked = draw(st.permutations(deletable.tolist()))[:n_del]
    dels = [(int(g.src_of_edge[i]), int(g.dst[i])) for i in picked]
    # pairs outside the union, or whose edge leaves with snapshot 0
    blocked = set(
        zip(g.src_of_edge[u.del_step != 0].tolist(),
            g.dst[u.del_step != 0].tolist())
    )
    corners = [0, nv - 1]
    vertex = st.one_of(st.sampled_from(corners), st.integers(0, nv - 1))
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=8, unique=True))
    adds = [(s, d, 1.0 + (s * nv + d) % 7) for s, d in pairs
            if (s, d) not in blocked]
    return EdgeList.from_tuples(nv, adds), dels


SLIDE_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@SLIDE_SETTINGS
@given(
    seed=st.integers(0, 10_000),
    n_vertices=st.sampled_from([2, 5, 16, 40]),
    n_snapshots=st.integers(2, 10),
    n_slides=st.integers(1, 4),
    data=st.data(),
)
def test_merged_slide_equals_sorted_construction(
    seed, n_vertices, n_snapshots, n_slides, data
):
    """Property: every slide of a chain — empty, additions-only,
    deletions-only or mixed — equals the sorted build array for array:
    graph, ``src_of_edge``, tags, planes, transpose, and both slot lists;
    and every sub-window's shifted planes equal a rebuild from its tags."""
    n_edges = min(n_vertices * (n_vertices - 1), n_vertices * 6)
    pool = uniform_edges(n_vertices, n_edges, seed=seed)
    u = synthesize_scenario(
        pool, n_snapshots=n_snapshots, batch_pct=0.2, seed=seed
    ).unified
    backend, merges = _counted_merges()
    for __ in range(n_slides):
        adds, dels = data.draw(_deltas(u))
        with mock.patch("repro.evolving.window.get_backend", lambda: backend):
            result = slide_window(u, adds, dels)
        ref, ref_del, ref_add = _sorted_slide(u, adds, dels)
        _assert_same_union(result.unified, ref)
        assert np.array_equal(result.del_slots, ref_del)
        assert np.array_equal(result.add_slots, ref_add)
        u = result.unified
        lo = data.draw(st.integers(0, n_snapshots - 1))
        hi = data.draw(st.integers(lo, n_snapshots - 1))
        w = extract_window(u, lo, hi)
        assert np.array_equal(
            w.presence_planes(), tag_planes(w.add_step, w.del_step, w.n_snapshots)
        )
    if os.environ.get("MEGA_KERNEL_BACKEND") in ("compiled", "cext"):
        assert len(merges) == n_slides  # one compiled merge per slide


def _counted_merges():
    """The active backend, its window merge (if any) counting its calls
    into the returned list."""
    backend, calls = get_backend(), []
    merge = backend.window_merge
    if merge is None:
        return backend, calls

    def counted(*args, **kwargs):
        calls.append(args)
        return merge(*args, **kwargs)

    return dataclasses.replace(backend, window_merge=counted), calls
