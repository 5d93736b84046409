"""Unit tests for the EdgeList primitive."""

import numpy as np
import pytest

from repro.graph.edges import EdgeList, edge_keys


def test_from_tuples_roundtrip():
    e = EdgeList.from_tuples(4, [(0, 1, 2.0), (1, 2, 3.0), (2, 3, 4.0)])
    assert len(e) == 3
    assert e.as_tuples() == [(0, 1, 2.0), (1, 2, 3.0), (2, 3, 4.0)]


def test_from_tuples_without_weights_defaults_to_one():
    e = EdgeList.from_tuples(3, [(0, 1), (1, 2)])
    assert np.all(e.wt == 1.0)


def test_from_tuples_empty():
    e = EdgeList.from_tuples(3, [])
    assert len(e) == 0
    assert e.has_unique_pairs()


def test_vertex_range_validation():
    with pytest.raises(ValueError):
        EdgeList.from_tuples(2, [(0, 5)])
    with pytest.raises(ValueError):
        EdgeList(2, np.array([-1]), np.array([0]), np.array([1.0]))


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        EdgeList(3, np.array([0, 1]), np.array([1]), np.array([1.0, 2.0]))


def test_edge_keys_unique_and_orderable():
    e = EdgeList.from_tuples(10, [(0, 1), (1, 0), (9, 9)])
    k = e.keys
    assert len(set(k.tolist())) == 3
    assert k[0] == 1 and k[1] == 10 and k[2] == 99


def test_edge_keys_collision_free_for_distinct_pairs(rng):
    n = 50
    src = rng.integers(0, n, 500)
    dst = rng.integers(0, n, 500)
    keys = edge_keys(src, dst, n)
    pairs = set(zip(src.tolist(), dst.tolist()))
    assert len(set(keys.tolist())) == len(pairs)


def test_select_by_mask_and_index():
    e = EdgeList.from_tuples(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)])
    by_mask = e.select(np.array([True, False, True]))
    by_idx = e.select(np.array([0, 2]))
    assert by_mask.as_tuples() == by_idx.as_tuples() == [(0, 1, 1.0), (2, 3, 3.0)]


def test_concat_preserves_all_edges():
    a = EdgeList.from_tuples(4, [(0, 1, 1.0)])
    b = EdgeList.from_tuples(4, [(2, 3, 2.0)])
    c = a.concat(b)
    assert c.as_tuples() == [(0, 1, 1.0), (2, 3, 2.0)]


def test_concat_rejects_mismatched_vertex_sets():
    a = EdgeList.from_tuples(4, [(0, 1)])
    b = EdgeList.from_tuples(5, [(0, 1)])
    with pytest.raises(ValueError):
        a.concat(b)


def test_deduplicate_keeps_first_occurrence():
    e = EdgeList.from_tuples(4, [(0, 1, 1.0), (0, 1, 9.0), (1, 2, 2.0)])
    d = e.deduplicate()
    assert d.as_tuples() == [(0, 1, 1.0), (1, 2, 2.0)]
    assert d.has_unique_pairs()


def test_without_self_loops():
    e = EdgeList.from_tuples(4, [(0, 0), (0, 1), (2, 2)])
    assert e.without_self_loops().as_tuples() == [(0, 1, 1.0)]


def test_sorted_by_src_orders_pairs():
    e = EdgeList.from_tuples(4, [(2, 1), (0, 3), (0, 1), (2, 0)])
    s = e.sorted_by_src()
    assert [(a, b) for a, b, _ in s.as_tuples()] == [
        (0, 1), (0, 3), (2, 0), (2, 1),
    ]


def test_sorted_by_src_equals_lexsort_with_duplicate_pairs():
    """One stable argsort of the keys orders exactly as the two-column
    lexsort it replaced, duplicate pairs kept in input order."""
    rng = np.random.default_rng(5)
    src = rng.integers(0, 6, 200)
    dst = rng.integers(0, 6, 200)
    e = EdgeList(6, src, dst, np.arange(200, dtype=np.float64))
    order = np.lexsort((dst, src))
    s = e.sorted_by_src()
    assert np.array_equal(s.src, src[order])
    assert np.array_equal(s.dst, dst[order])
    assert np.array_equal(s.wt, order.astype(np.float64))
