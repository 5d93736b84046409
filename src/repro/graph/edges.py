"""Edge-list primitives shared by every graph representation.

An :class:`EdgeList` is the exchange format between the synthetic dataset
generators, the evolving-graph synthesizer, and the CSR builders.  Edges are
directed ``(src, dst, wt)`` triples held in parallel numpy arrays.  Within
one evolving-graph scenario every ``(src, dst)`` pair is unique, which is
what gives edge additions and deletions well-defined semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EdgeList", "edge_keys", "first_occurrences", "run_starts", "sort_keys",
]


def edge_keys(src: np.ndarray, dst: np.ndarray, n_vertices: int) -> np.ndarray:
    """Return a unique int64 key per ``(src, dst)`` pair.

    Keys are ``src * n_vertices + dst`` which is collision-free for any
    graph with fewer than ``2**31`` vertices.
    """
    return np.asarray(src, np.int64) * np.int64(n_vertices) + np.asarray(
        dst, np.int64
    )


def sort_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(sorted keys, order)`` of non-negative int64 ``keys``; ``order``
    is stable.

    One unstable ``np.sort`` of the keys shifted up with each one's index
    in the low bits: equal keys then sort by index, so equal keys keep
    their input order.  ~1 ms on 100k keys, where numpy's stable argsort
    takes ~10 ms.  Keys too wide to share 63 bits with an index (and
    negative ones) take the stable argsort.
    """
    keys = np.asarray(keys, dtype=np.int64)
    m = keys.shape[0]
    shift = max(m - 1, 0).bit_length()
    fits = m == 0 or (
        keys.min() >= 0 and int(keys.max()) >> (63 - shift) == 0
    )
    if not fits:
        order = np.argsort(keys, kind="stable")
        return keys[order], order
    packed = keys << shift
    packed |= np.arange(m, dtype=np.int64)
    packed.sort()
    order = packed & ((1 << shift) - 1)
    packed >>= shift
    return packed, order


def run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the sorted keys unequal to their predecessor: the first
    key of each run of equal keys."""
    starts = np.empty(sorted_keys.shape[0], dtype=bool)
    starts[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    return starts


def first_occurrences(keys: np.ndarray) -> np.ndarray:
    """Mask over ``keys`` of each key's first occurrence."""
    ordered, order = sort_keys(keys)
    first = np.zeros(ordered.shape[0], dtype=bool)
    first[order[run_starts(ordered)]] = True
    return first


@dataclass
class EdgeList:
    """A bag of directed, weighted edges over ``n_vertices`` vertices."""

    n_vertices: int
    src: np.ndarray
    dst: np.ndarray
    wt: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.src = np.asarray(self.src, dtype=np.int64)
        self.dst = np.asarray(self.dst, dtype=np.int64)
        if self.wt is None:
            self.wt = np.ones(self.src.shape[0], dtype=np.float64)
        else:
            self.wt = np.asarray(self.wt, dtype=np.float64)
        if not (self.src.shape == self.dst.shape == self.wt.shape):
            raise ValueError("src, dst and wt must have identical shapes")
        if self.src.size and (self.src.min() < 0 or self.src.max() >= self.n_vertices):
            raise ValueError("src vertex id out of range")
        if self.dst.size and (self.dst.min() < 0 or self.dst.max() >= self.n_vertices):
            raise ValueError("dst vertex id out of range")

    def __len__(self) -> int:
        return int(self.src.shape[0])

    @property
    def keys(self) -> np.ndarray:
        """Unique int64 key per edge (requires unique ``(src, dst)`` pairs)."""
        return edge_keys(self.src, self.dst, self.n_vertices)

    def select(self, mask_or_index: np.ndarray) -> "EdgeList":
        """Return a new :class:`EdgeList` with the selected edges."""
        return EdgeList(
            self.n_vertices,
            self.src[mask_or_index],
            self.dst[mask_or_index],
            self.wt[mask_or_index],
        )

    def concat(self, other: "EdgeList") -> "EdgeList":
        """Concatenate two edge lists over the same vertex set."""
        if other.n_vertices != self.n_vertices:
            raise ValueError("cannot concat edge lists over different vertex sets")
        return EdgeList(
            self.n_vertices,
            np.concatenate([self.src, other.src]),
            np.concatenate([self.dst, other.dst]),
            np.concatenate([self.wt, other.wt]),
        )

    def deduplicate(self) -> "EdgeList":
        """Drop duplicate ``(src, dst)`` pairs, keeping the first occurrence."""
        return self.select(first_occurrences(self.keys))

    def without_self_loops(self) -> "EdgeList":
        return self.select(self.src != self.dst)

    def sorted_by_src(self) -> "EdgeList":
        """Sort edges by ``(src, dst)`` — CSR order.

        One stable sort of the pair keys (:func:`sort_keys`): the key
        orders pairs exactly as ``(src, dst)`` does, and stability keeps
        duplicate pairs in input order, as a two-column ``lexsort`` would.
        """
        return self.select(sort_keys(self.keys)[1])

    def has_unique_pairs(self) -> bool:
        return bool(run_starts(sort_keys(self.keys)[0]).all())

    def as_tuples(self) -> list[tuple[int, int, float]]:
        """Materialize as python tuples — intended for tests and examples."""
        return [
            (int(s), int(d), float(w))
            for s, d, w in zip(self.src, self.dst, self.wt)
        ]

    @classmethod
    def from_tuples(
        cls, n_vertices: int, edges: list[tuple] | tuple
    ) -> "EdgeList":
        """Build from ``(src, dst)`` or ``(src, dst, wt)`` tuples."""
        if not edges:
            empty = np.empty(0, dtype=np.int64)
            return cls(n_vertices, empty, empty.copy(), np.empty(0))
        cols = list(zip(*edges))
        src = np.asarray(cols[0], dtype=np.int64)
        dst = np.asarray(cols[1], dtype=np.int64)
        wt = np.asarray(cols[2], dtype=np.float64) if len(cols) > 2 else None
        return cls(n_vertices, src, dst, wt)
