"""Unit tests for the unified evolving-graph CSR (paper Fig. 6)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evolving.batches import BatchId, BatchKind
from repro.evolving.unified_csr import UnifiedCSR, tag_planes
from repro.graph.csr import CSRGraph
from repro.graph.edges import EdgeList


@pytest.fixture
def unified():
    """Hand-built 3-snapshot window over 4 vertices.

    Edges: (0,1) common; (1,2) deleted at step 0; (2,3) deleted at step 1;
    (0,2) added at step 0; (1,3) added at step 1.
    """
    g = CSRGraph.from_tuples(
        4,
        [(0, 1, 1.0), (0, 2, 2.0), (1, 2, 3.0), (1, 3, 4.0), (2, 3, 5.0)],
    )
    # CSR order: (0,1), (0,2), (1,2), (1,3), (2,3)
    add_step = np.array([-1, 0, -1, 1, -1], dtype=np.int32)
    del_step = np.array([-1, -1, 0, -1, 1], dtype=np.int32)
    return UnifiedCSR(g, add_step, del_step, n_snapshots=3)


def test_common_mask(unified):
    assert unified.common_mask.tolist() == [True, False, False, False, False]


def test_presence_masks_match_interval_semantics(unified):
    # snapshot 0: common + all future deletions, no additions yet
    assert unified.presence_mask(0).tolist() == [True, False, True, False, True]
    # snapshot 1: del@0 gone, add@0 arrived
    assert unified.presence_mask(1).tolist() == [True, True, False, False, True]
    # snapshot 2: del@1 gone, add@1 arrived
    assert unified.presence_mask(2).tolist() == [True, True, False, True, False]


def test_presence_planes_shape_and_packing(unified):
    planes = unified.presence_planes()
    assert planes.dtype == np.uint8
    assert planes.shape == (1, 5)  # ceil(3/8) planes over 5 union edges
    assert not planes.flags.writeable
    assert unified.presence_planes() is planes  # lazy, cached


def test_packed_presence_matches_dense_reference(unified):
    """The packed planes encode exactly what the tag compares say."""
    all_idx = np.arange(unified.n_union_edges)
    for k in range(unified.n_snapshots):
        dense = unified._presence_of_dense(k, all_idx)
        assert unified.presence_mask(k).tolist() == dense.tolist()


def test_presence_planes_injection(unified):
    """An attach can hand the planes over; they are adopted verbatim."""
    planes = unified.presence_planes()
    again = UnifiedCSR(
        unified.graph,
        unified.add_step,
        unified.del_step,
        unified.n_snapshots,
        presence_planes=planes.copy(),
    )
    assert again.presence_mask(1).tolist() == unified.presence_mask(1).tolist()
    bad = np.zeros((2, 5), dtype=np.uint8)
    with pytest.raises(ValueError):
        UnifiedCSR(
            unified.graph, unified.add_step, unified.del_step,
            unified.n_snapshots, presence_planes=bad,
        )


def test_presence_planes_many_snapshots():
    """More than 8 snapshots spill into a second byte plane."""
    g = CSRGraph.from_tuples(3, [(0, 1, 1.0), (1, 2, 1.0)])
    add_step = np.array([-1, 7], dtype=np.int32)
    del_step = np.array([3, -1], dtype=np.int32)
    u = UnifiedCSR(g, add_step, del_step, n_snapshots=12)
    assert u.presence_planes().shape == (2, 2)
    all_idx = np.arange(2)
    for k in range(12):
        assert (
            u.presence_mask(k).tolist()
            == u._presence_of_dense(k, all_idx).tolist()
        )
    columns = np.array([u.presence_mask(k) for k in range(12)])
    assert columns[:, 0].tolist() == [k <= 3 for k in range(12)]
    assert columns[:, 1].tolist() == [k > 7 for k in range(12)]


@st.composite
def _tags(draw):
    """Tags over 1..70 snapshots: each edge common, added or deleted."""
    n = draw(st.integers(1, 70))
    step = st.integers(-1, n - 2)
    pairs = draw(st.lists(st.tuples(step, step), max_size=40))
    add = np.array([a for a, __ in pairs], dtype=np.int32)
    dele = np.array([-1 if a >= 0 else d for a, d in pairs], dtype=np.int32)
    return add, dele, n


@settings(max_examples=200, deadline=None)
@given(tags=_tags())
def test_tag_planes_equal_packing_the_dense_presence(tags):
    """Each edge's run of snapshots, clipped per plane, is the dense tag
    compare packed little-endian, padding bits included."""
    add, dele, n = tags
    snaps = np.arange(n, dtype=np.int32)[:, None]
    dense = ((add == -1) | (add < snaps)) & ((dele == -1) | (dele >= snaps))
    want = np.packbits(dense, axis=0, bitorder="little")
    got = tag_planes(add, dele, n)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def test_snapshot_graph_materialization(unified):
    g1 = unified.snapshot_graph(1)
    assert g1.n_edges == 3
    assert g1.has_edge(0, 2)
    assert not g1.has_edge(1, 2)
    # a masked graph's adopted src_of_edge agrees with its own row pointers
    masked = [unified.snapshot_graph(k) for k in range(unified.n_snapshots)]
    for g in masked + [unified.common_graph()]:
        rows = np.repeat(np.arange(g.n_vertices), np.diff(g.indptr))
        assert g.src_of_edge.tolist() == rows.tolist()


def test_snapshot_graph_cached(unified):
    assert unified.snapshot_graph(1) is unified.snapshot_graph(1)


def test_common_graph(unified):
    gc = unified.common_graph()
    assert gc.n_edges == 1
    assert gc.has_edge(0, 1)


def test_batches(unified):
    add0 = unified.batch(BatchId(BatchKind.ADDITION, 0))
    assert add0.edge_idx.tolist() == [1]
    del1 = unified.batch(BatchId(BatchKind.DELETION, 1))
    assert del1.edge_idx.tolist() == [4]
    assert len(unified.addition_batches()) == 2
    assert len(unified.deletion_batches()) == 2


def test_batch_edges_match_masks_and_are_cached(unified):
    for kind in BatchKind:
        for step in range(unified.n_snapshots - 1):
            bid = BatchId(kind, step)
            edges = unified.batch_edges(bid)
            assert edges.dtype == np.int64
            assert np.array_equal(edges, np.flatnonzero(unified.batch_mask(bid)))
            assert unified.batch_edges(bid) is edges
            assert unified.batch(bid).edge_idx is edges


def test_batch_edges_are_read_only(unified):
    edges = unified.batch_edges(BatchId(BatchKind.ADDITION, 0))
    with pytest.raises(ValueError):
        edges[0] = 3


def test_batch_target_snapshots(unified):
    add0 = unified.batch(BatchId(BatchKind.ADDITION, 0))
    assert list(add0.target_snapshots(3)) == [1, 2]
    del1 = unified.batch(BatchId(BatchKind.DELETION, 1))
    assert list(del1.target_snapshots(3)) == [0, 1]


def test_snapshot_out_of_range(unified):
    with pytest.raises(IndexError):
        unified.presence_mask(3)
    with pytest.raises(IndexError):
        unified.snapshot_graph(-1)


def test_rejects_edge_both_added_and_deleted():
    g = CSRGraph.from_tuples(2, [(0, 1)])
    with pytest.raises(ValueError):
        UnifiedCSR(g, np.array([0]), np.array([0]), 3)


def test_rejects_step_out_of_range():
    g = CSRGraph.from_tuples(2, [(0, 1)])
    with pytest.raises(ValueError):
        UnifiedCSR(g, np.array([2]), np.array([-1]), 3)


def test_reverse_graph_origin_mapping(unified):
    rev = unified.reverse_graph()
    origin = unified.reverse_edge_origin
    g = unified.graph
    # every reverse slot maps back to a union slot with swapped endpoints
    for r_slot in range(rev.n_edges):
        u_slot = origin[r_slot]
        assert g.dst[u_slot] == rev.src_of_edge[r_slot]
        assert g.src_of_edge[u_slot] == rev.dst[r_slot]
        assert g.wt[u_slot] == rev.wt[r_slot]


def _lexsort_transpose(graph: CSRGraph):
    order = np.lexsort((graph.src_of_edge, graph.dst))
    counts = np.bincount(graph.dst, minlength=graph.n_vertices)
    indptr = np.zeros(graph.n_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, graph.src_of_edge[order], graph.wt[order], order


@pytest.mark.parametrize("name", ["PK", "LJ", "OR", "DL", "UK", "Wen"])
def test_transpose_equals_lexsort_build_on_table4_graphs(name):
    """One stable argsort of ``dst`` gives the transpose and its origin
    map exactly as the two lexsorts of the sort-based build did."""
    from repro.experiments.runner import scenario_cache

    unified = scenario_cache(name, "small").unified
    indptr, rev_dst, rev_wt, origin = _lexsort_transpose(unified.graph)
    rev = unified.reverse_graph()
    assert np.array_equal(unified.reverse_edge_origin, origin)
    assert np.array_equal(rev.indptr, indptr)
    assert np.array_equal(rev.dst, rev_dst)
    assert np.array_equal(rev.wt, rev_wt)
    assert np.array_equal(rev.src_of_edge, unified.graph.dst[origin])


def test_transpose_of_unsorted_rows_matches_lexsort():
    """Rows need not be dst-sorted: stability still yields (dst, src)."""
    g = CSRGraph(
        4, np.array([0, 3, 5, 5, 7]), np.array([3, 1, 1, 0, 3, 1, 0]),
        np.arange(7, dtype=np.float64),
    )
    indptr, rev_dst, rev_wt, origin = _lexsort_transpose(g)
    rev, got = g.transpose()
    assert np.array_equal(got, origin)
    assert np.array_equal(rev.indptr, indptr)
    assert np.array_equal(rev.dst, rev_dst)
    assert np.array_equal(rev.wt, rev_wt)


def test_build_sorts_once_and_carries_tags():
    """``UnifiedCSR.build`` (any input order) equals lexsort + from_edges."""
    rng = np.random.default_rng(3)
    keys = rng.choice(20 * 20, size=60, replace=False)
    src, dst = keys // 20, keys % 20
    add = np.where(rng.random(60) < 0.3, rng.integers(0, 4, 60), -1)
    dele = np.where((add < 0) & (rng.random(60) < 0.3), rng.integers(0, 4, 60), -1)
    edges = EdgeList(20, src, dst, rng.random(60))
    built = UnifiedCSR.build(edges, add, dele, 5)
    order = np.lexsort((dst, src))
    ref = CSRGraph.from_edges(edges)
    assert np.array_equal(built.graph.indptr, ref.indptr)
    assert np.array_equal(built.graph.dst, ref.dst)
    assert np.array_equal(built.graph.wt, ref.wt)
    assert np.array_equal(built.graph.src_of_edge, ref.src_of_edge)
    assert np.array_equal(built.add_step, add[order])
    assert np.array_equal(built.del_step, dele[order])
