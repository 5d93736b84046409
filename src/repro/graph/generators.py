"""Deterministic synthetic graph generators.

The paper evaluates on six real-world power-law graphs (Pokec … Wikipedia-En,
30M–400M edges).  Those inputs are multi-hundred-megabyte downloads and far
too large for a pure-Python cycle-approximate simulator, so the reproduction
substitutes deterministic RMAT-style power-law graphs at a configurable scale
with the same vertex/edge ratios (see ``repro.workloads.datasets`` and the
substitution table in DESIGN.md).  The generators are seeded and reproducible.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.graph.edges import EdgeList, edge_keys, run_starts, sort_keys

__all__ = [
    "rmat_edges",
    "uniform_edges",
    "chain_edges",
    "grid_edges",
    "attach_weights",
]


def attach_weights(
    edges: EdgeList, rng: np.random.Generator, low: float = 1.0, high: float = 16.0
) -> EdgeList:
    """Attach uniform random weights in ``[low, high)`` to each edge.

    Weights ``>= 1`` keep all five paper algorithms monotone (Viterbi divides
    by the weight, so weights below one would let values grow without bound).
    """
    if low < 1.0:
        raise ValueError("weights must be >= 1 for Viterbi monotonicity")
    wt = rng.uniform(low, high, size=len(edges))
    return EdgeList(edges.n_vertices, edges.src, edges.dst, wt)


#: rows of the random draw one R-MAT descent step holds at a time
_DRAW_ROWS = 1 << 13


def _take_new(
    keys: np.ndarray, taken: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the ``keys`` that occur first in ``keys`` and not in
    ``taken`` (sorted), and ``taken`` with them merged in: one sort of
    ``keys`` and a ``searchsorted`` into ``taken``."""
    ordered, order = sort_keys(keys)
    new = run_starts(ordered)
    at = np.searchsorted(taken, ordered)
    if taken.shape[0]:
        new &= taken[np.minimum(at, taken.shape[0] - 1)] != ordered
    keep = np.zeros(keys.shape[0], dtype=bool)
    keep[order[new]] = True
    return keep, np.insert(taken, at[new], ordered[new])


def _draw_unique(
    n_edges: int, oversample: float, draw: Callable[[int], np.ndarray]
) -> np.ndarray:
    """Keys of ``n_edges`` distinct edges, in draw order.

    Each round asks ``draw(want)`` for the keys of ``want`` samples
    (fewer once invalid ones are dropped) and keeps the first occurrence
    of each key not taken in an earlier round, until enough survive.
    """
    taken = np.empty(0, dtype=np.int64)
    parts: list[np.ndarray] = []
    got = 0
    while got < n_edges:
        want = int((n_edges - got) * oversample) + 16
        keys = draw(want)
        keep, taken = _take_new(keys, taken)
        part = keys[keep][: n_edges - got]
        parts.append(part)
        got += part.shape[0]
    return np.concatenate(parts)


def _edges_of_keys(
    keys: np.ndarray, n_vertices: int, rng: np.random.Generator,
    weight_high: float,
) -> EdgeList:
    src, dst = np.divmod(keys, n_vertices)
    edges = EdgeList(n_vertices, src, dst, None)
    return attach_weights(edges, rng, high=weight_high)


def rmat_edges(
    n_vertices: int,
    n_edges: int,
    seed: int = 0,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    weight_high: float = 16.0,
) -> EdgeList:
    """Generate a power-law directed graph with the RMAT recursive model.

    Produces exactly ``n_edges`` unique, self-loop-free edges (oversampling
    and retrying until enough survive deduplication).  ``a + b + c`` must be
    below one; ``d = 1 - a - b - c``.
    """
    if n_vertices < 2:
        raise ValueError("need at least two vertices")
    if a + b + c >= 1.0:
        raise ValueError("RMAT probabilities must satisfy a + b + c < 1")
    rng = np.random.default_rng(seed)
    levels = int(np.ceil(np.log2(n_vertices)))
    # the offset each level's bit adds to a coordinate, top level first
    halves = (1 << levels) >> np.arange(1, levels + 1, dtype=np.int64)

    def descend(rows: int) -> np.ndarray:
        # each sample picks one quadrant per level:
        # a = (0,0), b = (0,1), c = (1,0), d = (1,1)
        r = rng.random((rows, levels))
        go_down = r >= a + b
        go_right = r >= a
        go_right &= ~go_down
        go_right |= r >= a + b + c
        src = go_down @ halves
        dst = go_right @ halves
        ok = (src < n_vertices) & (dst < n_vertices) & (src != dst)
        return edge_keys(src[ok], dst[ok], n_vertices)

    def draw(want: int) -> np.ndarray:
        # row chunks of one draw read the generator as one draw would
        return np.concatenate([
            descend(min(_DRAW_ROWS, want - lo))
            for lo in range(0, want, _DRAW_ROWS)
        ])

    keys = _draw_unique(n_edges, 1.4, draw)
    return _edges_of_keys(keys, n_vertices, rng, weight_high)


def uniform_edges(
    n_vertices: int, n_edges: int, seed: int = 0, weight_high: float = 16.0
) -> EdgeList:
    """Generate a uniform (Erdos-Renyi-like) directed graph."""
    rng = np.random.default_rng(seed)
    max_possible = n_vertices * (n_vertices - 1)
    if n_edges > max_possible:
        raise ValueError("requested more edges than the vertex set admits")

    def draw(want: int) -> np.ndarray:
        src = rng.integers(0, n_vertices, size=want, dtype=np.int64)
        dst = rng.integers(0, n_vertices, size=want, dtype=np.int64)
        ok = src != dst
        return edge_keys(src[ok], dst[ok], n_vertices)

    keys = _draw_unique(n_edges, 1.3, draw)
    return _edges_of_keys(keys, n_vertices, rng, weight_high)


def chain_edges(n_vertices: int, weight: float = 1.0) -> EdgeList:
    """A simple directed chain ``0 -> 1 -> ... -> n-1`` (test fixture)."""
    src = np.arange(n_vertices - 1, dtype=np.int64)
    dst = src + 1
    wt = np.full(n_vertices - 1, weight)
    return EdgeList(n_vertices, src, dst, wt)


def grid_edges(rows: int, cols: int, seed: int = 0) -> EdgeList:
    """A 2-D grid with rightward and downward edges (road-network-like)."""
    rng = np.random.default_rng(seed)
    n = rows * cols
    u = np.arange(n, dtype=np.int64)
    # each vertex's right then down neighbour, kept where it exists:
    # row-major order, as a loop over the cells would emit them
    dst = np.stack([u + 1, u + cols], axis=1)
    valid = np.stack([u % cols + 1 < cols, u < n - cols], axis=1)
    src = np.broadcast_to(u[:, None], dst.shape)
    return attach_weights(EdgeList(n, src[valid], dst[valid], None), rng)
