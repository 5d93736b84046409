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

__all__ = ["EdgeList", "edge_keys"]


def edge_keys(src: np.ndarray, dst: np.ndarray, n_vertices: int) -> np.ndarray:
    """Return a unique int64 key per ``(src, dst)`` pair.

    Keys are ``src * n_vertices + dst`` which is collision-free for any
    graph with fewer than ``2**31`` vertices.
    """
    return np.asarray(src, np.int64) * np.int64(n_vertices) + np.asarray(
        dst, np.int64
    )


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
        __, first = np.unique(self.keys, return_index=True)
        return self.select(np.sort(first))

    def without_self_loops(self) -> "EdgeList":
        return self.select(self.src != self.dst)

    def sorted_by_src(self) -> "EdgeList":
        """Sort edges by ``(src, dst)`` — CSR order.

        One stable argsort of the pair keys: the key orders pairs exactly
        as ``(src, dst)`` does, and stability keeps duplicate pairs in
        input order, as a two-column ``lexsort`` would.
        """
        return self.select(np.argsort(self.keys, kind="stable"))

    def has_unique_pairs(self) -> bool:
        return np.unique(self.keys).size == len(self)

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
