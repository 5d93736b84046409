"""Tests for evolving-scenario synthesis (paper §5.1 workload generator)."""

import numpy as np
import pytest

from repro.evolving.snapshots import batch_sizes, synthesize_scenario
from repro.graph.generators import rmat_edges


def test_scenario_shape(small_scenario):
    assert small_scenario.n_snapshots == 8
    assert small_scenario.n_vertices == 256
    assert small_scenario.unified.n_union_edges == 2048


def test_batches_partition_the_tagged_edges(small_scenario):
    u = small_scenario.unified
    n_add = sum(len(b) for b in u.addition_batches())
    n_del = sum(len(b) for b in u.deletion_batches())
    n_common = int(u.common_mask.sum())
    assert n_add + n_del + n_common == u.n_union_edges


def test_batch_sizes_match_percentage(small_scenario):
    u = small_scenario.unified
    m0 = small_scenario.metadata["initial_edges"]
    per_transition = 0.02 * m0
    for b in u.addition_batches():
        assert abs(len(b) - per_transition / 2) <= 2
    for b in u.deletion_batches():
        assert abs(len(b) - per_transition / 2) <= 2


def test_snapshot0_contains_common_and_future_deletions(small_scenario):
    u = small_scenario.unified
    mask0 = u.presence_mask(0)
    assert np.all(mask0[u.common_mask])
    assert np.all(mask0[u.del_step >= 0])
    assert not np.any(mask0[u.add_step >= 0])


def test_last_snapshot_contains_common_and_all_additions(small_scenario):
    u = small_scenario.unified
    last = u.presence_mask(u.n_snapshots - 1)
    assert np.all(last[u.common_mask])
    assert np.all(last[u.add_step >= 0])
    assert not np.any(last[u.del_step >= 0])


def test_common_graph_is_intersection_of_snapshots(small_scenario):
    u = small_scenario.unified
    inter = np.ones(u.n_union_edges, dtype=bool)
    for k in range(u.n_snapshots):
        inter &= u.presence_mask(k)
    assert np.array_equal(inter, u.common_mask)


def test_union_is_union_of_snapshots(small_scenario):
    u = small_scenario.unified
    union = np.zeros(u.n_union_edges, dtype=bool)
    for k in range(u.n_snapshots):
        union |= u.presence_mask(k)
    assert bool(union.all())


def test_transition_applies_exactly_its_batches(small_scenario):
    u = small_scenario.unified
    for j in range(u.n_snapshots - 1):
        before = u.presence_mask(j)
        after = u.presence_mask(j + 1)
        gained = np.flatnonzero(after & ~before)
        lost = np.flatnonzero(before & ~after)
        assert np.array_equal(gained, np.flatnonzero(u.add_step == j))
        assert np.array_equal(lost, np.flatnonzero(u.del_step == j))


def test_source_has_outgoing_common_edges(small_scenario):
    gc = small_scenario.common_graph()
    assert int(gc.out_degree(small_scenario.source)) > 0


def test_source_moves_off_a_vertex_without_common_out_edges():
    """Vertex 0 with no out-edge: the source is G_c's highest-degree
    vertex (the first of them)."""
    pool = rmat_edges(64, 600, seed=1)
    pool = pool.select(pool.src != 0)
    s = synthesize_scenario(pool, n_snapshots=6, batch_pct=0.1, seed=1)
    degrees = np.diff(s.common_graph().indptr)
    assert s.source == int(np.argmax(degrees)) != 0


def test_determinism():
    pool = rmat_edges(64, 512, seed=1)
    a = synthesize_scenario(pool, n_snapshots=4, seed=2)
    b = synthesize_scenario(pool, n_snapshots=4, seed=2)
    assert np.array_equal(a.unified.add_step, b.unified.add_step)
    assert np.array_equal(a.unified.del_step, b.unified.del_step)


def test_different_seed_changes_batches():
    pool = rmat_edges(64, 512, seed=1)
    a = synthesize_scenario(pool, n_snapshots=4, seed=2)
    b = synthesize_scenario(pool, n_snapshots=4, seed=3)
    assert not np.array_equal(a.unified.add_step, b.unified.add_step)


def test_rejects_bad_parameters():
    pool = rmat_edges(32, 128, seed=0)
    with pytest.raises(ValueError):
        synthesize_scenario(pool, n_snapshots=0)
    with pytest.raises(ValueError):
        synthesize_scenario(pool, batch_pct=0.0)
    with pytest.raises(ValueError):
        synthesize_scenario(pool, add_fraction=1.5)
    with pytest.raises(ValueError):
        synthesize_scenario(pool, imbalance=0.5)


def test_single_snapshot_scenario_is_static():
    # degenerate serving case: one snapshot, zero transitions, every
    # pool edge lives in the (single) snapshot's graph
    pool = rmat_edges(32, 128, seed=0)
    scenario = synthesize_scenario(pool, n_snapshots=1)
    assert scenario.n_snapshots == 1
    assert scenario.unified.presence_mask(0).all()


def test_rejects_duplicate_pool():
    pool = rmat_edges(32, 128, seed=0)
    dup = pool.concat(pool.select(np.array([0])))
    with pytest.raises(ValueError):
        synthesize_scenario(dup)


def test_add_fraction_zero_means_deletions_only():
    pool = rmat_edges(64, 512, seed=1)
    s = synthesize_scenario(pool, n_snapshots=4, add_fraction=0.0, seed=2)
    assert not np.any(s.unified.add_step >= 0)
    assert np.any(s.unified.del_step >= 0)


# -- batch size splitting ----------------------------------------------------


def test_batch_sizes_sum_exactly(rng):
    sizes = batch_sizes(1000, 7, 1.0, rng)
    assert int(sizes.sum()) == 1000


def test_batch_sizes_balanced(rng):
    sizes = batch_sizes(700, 7, 1.0, rng)
    assert sizes.max() - sizes.min() <= 1


def test_batch_sizes_imbalance(rng):
    sizes = batch_sizes(10000, 8, 4.0, rng)
    assert int(sizes.sum()) == 10000
    assert sizes.max() / max(sizes.min(), 1) > 1.5


def test_batch_sizes_empty(rng):
    assert batch_sizes(100, 0, 1.0, rng).size == 0


def test_imbalanced_scenario_valid():
    pool = rmat_edges(128, 1024, seed=4)
    s = synthesize_scenario(pool, n_snapshots=6, imbalance=4.0, seed=9)
    u = s.unified
    adds = [len(b) for b in u.addition_batches()]
    assert sum(adds) > 0
    # every snapshot still well-formed
    for k in range(6):
        assert u.snapshot_graph(k).n_edges > 0
