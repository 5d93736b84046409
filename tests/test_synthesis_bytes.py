"""Scenario synthesis, pinned byte for byte.

The digests below were taken from the set-based generators this module
keeps as its oracle (``_dedup_against``): the edge pools of the six
Table-2 proxies at ``tiny`` and ``small``, one R-MAT and one uniform
graph, and one synthesized scenario.  The sort-based deduplication, the
chunked R-MAT draw and the union's one sort must reproduce them exactly,
so every pool, scenario and simulated cycle count stays what it was.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import generators
from repro.graph.edges import edge_keys, first_occurrences, sort_keys
from repro.graph.generators import _take_new, rmat_edges, uniform_edges
from repro.workloads.datasets import load_pool, load_scenario

POOLS = {
    ("PK", "tiny"): "c1f4cf89bfd5b40e7d9307972a5bb9d85b6c607661d8a7ca6d438c324261666f",
    ("LJ", "tiny"): "89b3fc2cf3287ec2805ce6819082c7db730ed0791767249237893ff3237c4b17",
    ("OR", "tiny"): "7975a9aa6eaa57191ead8c9c34f8bbb0c9bb9abed3a064435794a5878f1a0b7b",
    ("DL", "tiny"): "b42e4a8403de3f152fc4169922292ce1f7520968064c890ccc5f2718e183c2c1",
    ("UK", "tiny"): "e75ba72f8ca1228ec14c1bfe2d817905304b52eaafe447224a9da8b2ab3e3a60",
    ("Wen", "tiny"): "a0534c39514a2dc1b58c53ec1c3cf98ce2d70c5564144452fa1335627b2a7ac4",
    ("PK", "small"): "0b886124ce70a955fd9d58f6f58724b6af8c66ccb4726cd0b709f932e638102f",
    ("LJ", "small"): "c5af37fff422436b5d0e16d92e19708171d1462e86c8966f64c34bc34013ffa5",
    ("OR", "small"): "e8ad517c33b07262eae69610aa1741c687cbc2573b21dc624d1bafedbdc9e161",
    ("DL", "small"): "b7008133599f20c04ea96db1f81312b73830e610dcca2511d84c4aa838bb1628",
    ("UK", "small"): "f95432f48a5c3cb0c29ecc5d7aecd0761b240150075e4c860ce4124ce288718f",
    ("Wen", "small"): "d21797fe4f0d269d50007ce13e77af9de8e8ec21db100ada3f6790f5fc4eb21c",
}
RMAT_512_4096_SEED_7 = (
    "85dd61ef7d22111c4215554ecdc78c9b6fbcb108353149386206111fcc7946fd"
)
UNIFORM_96_768_SEED_21 = (
    "9c38a671d1e4ad01a4dd6aeb9257241b09b197626acb00ac2dd4c608df8a6822"
)
#: ``load_scenario("DL", "tiny", seed=0)``: add_step, del_step, presence
#: planes and source
SCENARIO_DL_TINY_SEED_0 = (
    "7de663c2721f45880bb88a512028b3d465635f4a8f0ba9877a35c98108c9fa8d"
)


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _dedup_against(
    src: np.ndarray, dst: np.ndarray, n_vertices: int, taken: set[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Drop edges whose key is already in ``taken``; update ``taken``.

    The generators' per-edge deduplication before it became one sort
    per draw; the oracle ``_take_new`` is held to.
    """
    keys = edge_keys(src, dst, n_vertices)
    keep = np.empty(keys.shape[0], dtype=bool)
    for i, k in enumerate(keys):
        k = int(k)
        if k in taken:
            keep[i] = False
        else:
            taken.add(k)
            keep[i] = True
    return src[keep], dst[keep]


@pytest.mark.parametrize("graph, scale", sorted(POOLS), ids=str)
def test_pool_bytes_are_pinned(graph, scale):
    pool = load_pool(graph, scale)
    assert _digest(pool.src, pool.dst, pool.wt) == POOLS[graph, scale]


def test_generator_bytes_are_pinned():
    e = rmat_edges(512, 4096, seed=7)
    assert _digest(e.src, e.dst, e.wt) == RMAT_512_4096_SEED_7
    e = uniform_edges(96, 768, seed=21)
    assert _digest(e.src, e.dst, e.wt) == UNIFORM_96_768_SEED_21


def test_scenario_bytes_are_pinned():
    scenario = load_scenario("DL", "tiny", seed=0)
    u = scenario.unified
    got = _digest(
        u.add_step, u.del_step, u.presence_planes(),
        np.array([scenario.source]),
    )
    assert got == SCENARIO_DL_TINY_SEED_0


@pytest.mark.parametrize("rows", [1, 7, 1 << 20])
def test_draw_chunks_read_the_generator_as_one_draw(rows, monkeypatch):
    """Any chunking of the R-MAT draw gives the same edges and leaves
    the generator where one draw would: the weights drawn after the
    edges are the pinned ones too."""
    monkeypatch.setattr(generators, "_DRAW_ROWS", rows)
    e = rmat_edges(512, 4096, seed=7)
    assert _digest(e.src, e.dst, e.wt) == RMAT_512_4096_SEED_7


#: key streams: several draws over a few keys, so keys repeat within one
#: draw and across draws
_draws = st.lists(
    st.lists(st.integers(0, 40), max_size=30), min_size=1, max_size=6
)


@settings(max_examples=200, deadline=None)
@given(draws=_draws)
def test_take_new_equals_the_set_oracle(draws):
    n = 7  # keys 0..40 are pairs over 7 vertices
    taken_set: set[int] = set()
    taken = np.empty(0, dtype=np.int64)
    for draw in draws:
        keys = np.asarray(draw, dtype=np.int64)
        want_src, want_dst = _dedup_against(keys // n, keys % n, n, taken_set)
        keep, taken = _take_new(keys, taken)
        assert np.array_equal(keys[keep] // n, want_src)
        assert np.array_equal(keys[keep] % n, want_dst)
        assert np.array_equal(taken, sorted(taken_set))


@settings(max_examples=200, deadline=None)
@given(
    keys=st.lists(st.integers(0, 2**62), max_size=40)
    | st.lists(st.integers(0, 12), max_size=40)
)
def test_sort_keys_is_a_stable_argsort(keys):
    """Narrow keys take the packed sort, wide ones the stable argsort;
    both sort stably and find each key's first occurrence."""
    keys = np.asarray(keys, dtype=np.int64)
    ordered, order = sort_keys(keys)
    want = np.argsort(keys, kind="stable")
    assert np.array_equal(order, want)
    assert np.array_equal(ordered, keys[want])
    __, first = np.unique(keys, return_index=True)
    assert np.array_equal(np.flatnonzero(first_occurrences(keys)), np.sort(first))
