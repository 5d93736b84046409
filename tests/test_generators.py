"""Unit tests for the synthetic graph generators."""

import numpy as np
import pytest

from repro.graph.generators import (
    attach_weights,
    chain_edges,
    grid_edges,
    rmat_edges,
    uniform_edges,
)


@pytest.mark.parametrize("gen", [rmat_edges, uniform_edges])
def test_exact_edge_count(gen):
    e = gen(128, 1000, seed=3)
    assert len(e) == 1000


@pytest.mark.parametrize("gen", [rmat_edges, uniform_edges])
def test_no_self_loops_no_duplicates(gen):
    e = gen(100, 800, seed=5)
    assert np.all(e.src != e.dst)
    assert e.has_unique_pairs()


@pytest.mark.parametrize("gen", [rmat_edges, uniform_edges])
def test_deterministic_by_seed(gen):
    a = gen(64, 256, seed=9)
    b = gen(64, 256, seed=9)
    assert a.as_tuples() == b.as_tuples()
    c = gen(64, 256, seed=10)
    assert a.as_tuples() != c.as_tuples()


def test_rmat_is_skewed():
    """Power-law: max out-degree should far exceed the mean."""
    e = rmat_edges(512, 8192, seed=2)
    deg = np.bincount(e.src, minlength=512)
    assert deg.max() > 4 * deg.mean()


def test_uniform_is_not_extremely_skewed():
    e = uniform_edges(512, 8192, seed=2)
    deg = np.bincount(e.src, minlength=512)
    assert deg.max() < 4 * deg.mean()


def test_weights_in_range():
    e = rmat_edges(64, 512, seed=0, weight_high=8.0)
    assert e.wt.min() >= 1.0
    assert e.wt.max() < 8.0


def test_attach_weights_rejects_below_one():
    e = chain_edges(4)
    with pytest.raises(ValueError):
        attach_weights(e, np.random.default_rng(0), low=0.5)


def test_rmat_validates_probabilities():
    with pytest.raises(ValueError):
        rmat_edges(16, 32, a=0.5, b=0.3, c=0.3)
    with pytest.raises(ValueError):
        rmat_edges(1, 0)


def test_uniform_rejects_impossible_edge_count():
    with pytest.raises(ValueError):
        uniform_edges(4, 100)


def test_chain_structure():
    e = chain_edges(5, weight=2.0)
    assert [(s, d) for s, d, _ in e.as_tuples()] == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert np.all(e.wt == 2.0)


def test_grid_structure():
    e = grid_edges(2, 3)
    pairs = {(s, d) for s, d, _ in e.as_tuples()}
    # 2x3 grid: right edges within rows + down edges between rows
    assert (0, 1) in pairs and (1, 2) in pairs
    assert (0, 3) in pairs and (2, 5) in pairs
    assert len(pairs) == 2 * 2 + 3  # 4 right + 3 down


def _grid_by_cells(rows, cols):
    """The grid's edges from a loop over its cells: right, then down."""
    src, dst = [], []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                src.append(u)
                dst.append(u + 1)
            if r + 1 < rows:
                src.append(u)
                dst.append(u + cols)
    return np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)


@pytest.mark.parametrize(
    "rows, cols", [(1, 1), (1, 5), (5, 1), (2, 3), (7, 9), (300, 300)]
)
def test_grid_matches_the_cell_loop(rows, cols):
    e = grid_edges(rows, cols, seed=4)
    src, dst = _grid_by_cells(rows, cols)
    assert e.n_vertices == rows * cols
    assert e.src.dtype == src.dtype and e.dst.dtype == dst.dtype
    assert np.array_equal(e.src, src) and np.array_equal(e.dst, dst)
    want = np.random.default_rng(4).uniform(1.0, 16.0, size=src.size)
    assert e.wt.dtype == want.dtype and np.array_equal(e.wt, want)
