"""Vertex-range graph partitioning.

MEGA partitions the graph when the per-vertex state of all active snapshots
does not fit in on-chip memory (paper §3.2, Fig. 9).  Partitions are
contiguous vertex ranges balanced by out-edge count, mirroring the
direct-mapped on-chip layout of the accelerator's event-queue bins.
"""

from __future__ import annotations

import numpy as np

__all__ = ["VertexPartitioner"]


class VertexPartitioner:
    """Split ``n_vertices`` into contiguous ranges balanced by edge count."""

    def __init__(self, indptr: np.ndarray, n_partitions: int) -> None:
        if n_partitions < 1:
            raise ValueError("need at least one partition")
        n_vertices = indptr.shape[0] - 1
        n_partitions = min(n_partitions, max(1, n_vertices))
        total_edges = int(indptr[-1])
        # boundary k starts where the cumulative edge count crosses
        # k/n_partitions of the total.
        targets = (np.arange(1, n_partitions) * total_edges) // n_partitions
        cuts = np.searchsorted(indptr, targets, side="left")
        bounds = np.concatenate(([0], cuts, [n_vertices])).astype(np.int64)
        # Guarantee monotone, possibly-empty ranges are allowed.
        bounds = np.maximum.accumulate(bounds)
        self.n_vertices = n_vertices
        self.n_partitions = n_partitions
        self.bounds = bounds

    def partition_of(self, vertices: np.ndarray | int) -> np.ndarray | int:
        """Map vertex ids to partition ids.

        Raises ``ValueError`` on any id outside ``[0, n_vertices)`` —
        ``searchsorted`` would otherwise clamp garbage ids onto the first
        or last partition, and a caller routing by that answer would
        silently misroute the edge.  Scalar in, scalar out.
        """
        arr = np.asarray(vertices)
        if arr.size:
            bad = (arr < 0) | (arr >= self.n_vertices)
            if np.any(bad):
                offenders = np.unique(np.atleast_1d(arr)[np.atleast_1d(bad)])
                raise ValueError(
                    f"vertex id(s) {offenders[:8].tolist()} outside "
                    f"[0, {self.n_vertices})"
                )
        # side="right" lands duplicated bounds (empty partitions) on the
        # last duplicate, i.e. the non-empty range actually owning the id
        idx = np.searchsorted(self.bounds, arr, side="right") - 1
        idx = np.minimum(idx, self.n_partitions - 1)
        if arr.ndim == 0:
            return int(idx)
        return idx

    def vertex_range(self, p: int) -> tuple[int, int]:
        """Half-open vertex range of partition ``p``."""
        if not 0 <= p < self.n_partitions:
            raise IndexError("partition id out of range")
        return int(self.bounds[p]), int(self.bounds[p + 1])

    def sizes(self) -> np.ndarray:
        return np.diff(self.bounds)

    def cross_fraction(self, src: np.ndarray, dst: np.ndarray) -> float:
        """Fraction of ``(src, dst)`` pairs that cross a partition boundary."""
        if src.size == 0:
            return 0.0
        return float(
            np.mean(self.partition_of(src) != self.partition_of(dst))
        )
