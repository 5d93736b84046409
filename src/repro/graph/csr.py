"""Compressed Sparse Row graph representation.

The CSR layout is the storage format used throughout the reproduction:
``indptr`` (length ``n+1``) indexes into the parallel ``dst``/``wt`` arrays,
so the out-edges of vertex ``u`` live at ``indptr[u]:indptr[u+1]``.  The
unified evolving-graph CSR of the paper (Fig. 6) extends this layout with
per-edge snapshot tags — see :mod:`repro.evolving.unified_csr`.
"""

from __future__ import annotations

import numpy as np

from repro.graph.edges import EdgeList
from repro.graph.partition import VertexPartitioner

__all__ = ["CSRGraph", "gather_out_edges"]


class CSRGraph:
    """An immutable directed weighted graph in CSR form.

    **No-copy contract**: inputs already in the canonical dtypes
    (``indptr``/``dst`` int64, ``wt`` float64) are adopted as-is via
    ``np.asarray`` — no copy is made, and read-only inputs (e.g. views
    into a ``multiprocessing.shared_memory`` segment published by the
    service's scenario plane) stay read-only.  Only non-conforming
    dtypes pay a conversion copy.  Construction never writes to the
    edge arrays, so a shared-memory attach is genuinely zero-copy.
    """

    __slots__ = (
        "n_vertices", "indptr", "dst", "wt", "_src_of_edge", "_cross_fractions"
    )

    def __init__(
        self,
        n_vertices: int,
        indptr: np.ndarray,
        dst: np.ndarray,
        wt: np.ndarray,
    ) -> None:
        self.n_vertices = int(n_vertices)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        self.wt = np.asarray(wt, dtype=np.float64)
        if self.indptr.shape[0] != self.n_vertices + 1:
            raise ValueError("indptr must have length n_vertices + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != self.dst.shape[0]:
            raise ValueError("indptr does not cover the edge arrays")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.dst.shape != self.wt.shape:
            raise ValueError("dst and wt must have identical shapes")
        # src per edge slot, computed lazily on first use; reverse graphs,
        # dependence trees and trace bookkeeping need it, but many graphs
        # (snapshot materializations, shared-memory attaches) never do.
        self._src_of_edge: np.ndarray | None = None
        # partition count -> cross fraction; the graph is immutable, so
        # every simulation of one scenario shares the values
        self._cross_fractions: dict[int, float] = {}

    @property
    def src_of_edge(self) -> np.ndarray:
        """Source vertex per edge slot (lazily materialized, cached)."""
        if self._src_of_edge is None:
            self._src_of_edge = np.repeat(
                np.arange(self.n_vertices, dtype=np.int64),
                np.diff(self.indptr),
            )
        return self._src_of_edge

    def partition_cross_fraction(self, n_partitions: int) -> float:
        """Share of edges crossing an edge-balanced vertex partition (cached).

        The memory model charges these edges as DRAM spill when the graph
        is split into ``n_partitions`` ranges (paper §3.2, Fig. 9).
        """
        if n_partitions not in self._cross_fractions:
            partitioner = VertexPartitioner(self.indptr, n_partitions)
            self._cross_fractions[n_partitions] = partitioner.cross_fraction(
                self.src_of_edge, self.dst
            )
        return self._cross_fractions[n_partitions]

    # -- construction ----------------------------------------------------

    @classmethod
    def from_edges(cls, edges: EdgeList) -> "CSRGraph":
        """Build a CSR graph from an edge list (sorted by ``(src, dst)``)."""
        ordered = edges.sorted_by_src()
        counts = np.bincount(ordered.src, minlength=edges.n_vertices)
        indptr = np.zeros(edges.n_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(edges.n_vertices, indptr, ordered.dst, ordered.wt)

    @classmethod
    def from_tuples(cls, n_vertices: int, edges: list[tuple]) -> "CSRGraph":
        return cls.from_edges(EdgeList.from_tuples(n_vertices, edges))

    # -- basic queries ----------------------------------------------------

    @property
    def n_edges(self) -> int:
        return int(self.dst.shape[0])

    def out_degree(self, u: int | np.ndarray) -> np.ndarray | int:
        deg = self.indptr[np.asarray(u) + 1] - self.indptr[np.asarray(u)]
        return deg

    def neighbors(self, u: int) -> np.ndarray:
        return self.dst[self.indptr[u]: self.indptr[u + 1]]

    def edge_slice(self, u: int) -> slice:
        return slice(int(self.indptr[u]), int(self.indptr[u + 1]))

    def has_edge(self, u: int, v: int) -> bool:
        lo, hi = self.indptr[u], self.indptr[u + 1]
        pos = np.searchsorted(self.dst[lo:hi], v)
        return bool(pos < hi - lo and self.dst[lo + pos] == v)

    def to_edge_list(self) -> EdgeList:
        return EdgeList(self.n_vertices, self.src_of_edge.copy(), self.dst.copy(), self.wt.copy())

    def reverse(self) -> "CSRGraph":
        """Return the transpose graph (in-edges become out-edges)."""
        rev = EdgeList(self.n_vertices, self.dst, self.src_of_edge, self.wt)
        return CSRGraph.from_edges(rev)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRGraph(n_vertices={self.n_vertices}, n_edges={self.n_edges})"


def gather_out_edges(
    indptr: np.ndarray, frontier: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gather the edge slots of every vertex in ``frontier``.

    Returns ``(edge_idx, src_rep)`` where ``edge_idx`` indexes the CSR edge
    arrays and ``src_rep`` repeats each frontier vertex once per out-edge.
    This is the vectorized inner loop of every propagation engine.
    """
    frontier = np.asarray(frontier, dtype=np.int64)
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    # exclusive prefix sum of counts gives, for each gathered slot, the
    # offset of its frontier vertex's first slot in the output.
    shift = np.zeros(frontier.shape[0], dtype=np.int64)
    np.cumsum(counts[:-1], out=shift[1:])
    edge_idx = np.arange(total, dtype=np.int64) + np.repeat(starts - shift, counts)
    src_rep = np.repeat(frontier, counts)
    return edge_idx, src_rep
