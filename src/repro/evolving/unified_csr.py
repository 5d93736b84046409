"""Unified evolving-graph CSR representation (paper Fig. 6).

One CSR over the *union* of all snapshot edge sets, with a per-edge tag
array recording which snapshots each edge belongs to:

* common edges (``"-"`` in the paper's figure) are in every snapshot;
* an edge tagged as added at step ``j`` is in snapshots ``j+1 .. N-1``;
* an edge tagged as deleted at step ``j`` is in snapshots ``0 .. j``.

The paper stores the tag as a single label per edge; we keep two small
integer arrays (``add_step``/``del_step``, ``-1`` meaning "not applicable")
which encode exactly the same information and vectorize the per-snapshot
presence tests used by the multi-version engine.

Presence tests are served from a **bit-packed plane matrix** built lazily
via ``np.packbits``: plane ``p`` is a ``(n_union_edges,)`` ``uint8`` row
whose bit ``j`` says whether the edge is present in snapshot ``8p + j``.
One byte fetch per edge answers up to eight snapshots at once — the
software analogue of MEGA's §3.1 shared edge fetch — and the matrix is 8×
smaller than the dense ``n_snapshots × n_union_edges`` boolean form it
replaces.  ``mega-repro bench-kernels`` times the packed gather against
the dense path it replaced (kept as ``_presence_of_dense`` for parity
checks and benchmarking).
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.evolving.batches import BatchId, BatchKind, EdgeBatch

__all__ = ["UnifiedCSR"]

NOT_APPLICABLE = -1


class UnifiedCSR:
    """Union CSR + snapshot tags; the default storage format of MEGA."""

    def __init__(
        self,
        graph: CSRGraph,
        add_step: np.ndarray,
        del_step: np.ndarray,
        n_snapshots: int,
        presence_planes: np.ndarray | None = None,
    ) -> None:
        self.graph = graph
        self.add_step = np.asarray(add_step, dtype=np.int32)
        self.del_step = np.asarray(del_step, dtype=np.int32)
        self.n_snapshots = int(n_snapshots)
        if self.add_step.shape[0] != graph.n_edges:
            raise ValueError("add_step must have one entry per union edge")
        if self.del_step.shape[0] != graph.n_edges:
            raise ValueError("del_step must have one entry per union edge")
        if n_snapshots < 1:
            raise ValueError("need at least one snapshot")
        both = (self.add_step >= 0) & (self.del_step >= 0)
        if np.any(both):
            raise ValueError(
                "an edge cannot be both an addition and a deletion within "
                "one CommonGraph window"
            )
        if np.any(self.add_step >= n_snapshots - 1) or np.any(
            self.del_step >= n_snapshots - 1
        ):
            raise ValueError("batch steps must lie in [0, n_snapshots-2]")
        self._snapshot_cache: dict[int, CSRGraph] = {}
        self._reverse: CSRGraph | None = None
        self._batch_edges: dict[BatchId, np.ndarray] = {}
        #: bit-packed presence planes; built lazily, or injected by a
        #: shared-memory attach so workers skip the packbits pass
        self._planes: np.ndarray | None = None
        if presence_planes is not None:
            planes = np.asarray(presence_planes, dtype=np.uint8)
            expect = ((self.n_snapshots + 7) // 8, graph.n_edges)
            if planes.shape != expect:
                raise ValueError(
                    f"presence_planes must have shape {expect}; "
                    f"got {planes.shape}"
                )
            self._planes = planes

    # -- structural views --------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self.graph.n_vertices

    @property
    def n_union_edges(self) -> int:
        return self.graph.n_edges

    @property
    def common_mask(self) -> np.ndarray:
        """Edges belonging to the CommonGraph ``G_c`` (all snapshots)."""
        return (self.add_step == NOT_APPLICABLE) & (self.del_step == NOT_APPLICABLE)

    def presence_planes(self) -> np.ndarray:
        """Bit-packed presence: ``(ceil(K/8), M)`` ``uint8``, lazy-cached.

        Bit ``j`` of plane ``p`` (little-endian bit order) says whether
        the edge is present in snapshot ``8p + j``.  The matrix is 8×
        smaller than the dense boolean form and read-only — shared-memory
        attaches publish it verbatim.
        """
        if self._planes is None:
            snaps = np.arange(self.n_snapshots, dtype=np.int32)[:, None]
            a = self.add_step[None, :]
            d = self.del_step[None, :]
            dense = ((a == NOT_APPLICABLE) | (a < snaps)) & (
                (d == NOT_APPLICABLE) | (d >= snaps)
            )
            planes = np.packbits(dense, axis=0, bitorder="little")
            planes.flags.writeable = False
            self._planes = planes
        return self._planes

    def presence_mask(self, snapshot: int) -> np.ndarray:
        """Boolean mask over union edges: present in ``G_snapshot``?"""
        self._check_snapshot(snapshot)
        plane = self.presence_planes()[snapshot >> 3]
        return ((plane >> (snapshot & 7)) & 1).view(bool)

    def presence_of(self, snapshot: int, edge_idx: np.ndarray) -> np.ndarray:
        """Presence test restricted to a set of union-edge slots.

        One byte gather per slot against the packed planes — the
        unpack-on-gather fast path ``bench-kernels`` measures against
        :meth:`_presence_of_dense`.
        """
        self._check_snapshot(snapshot)
        plane = self.presence_planes()[snapshot >> 3]
        return ((plane[edge_idx] >> (snapshot & 7)) & 1).view(bool)

    def presence_multi(self, edge_idx: np.ndarray | None = None) -> np.ndarray:
        """Presence of every snapshot at once: ``(K, E)`` bool.

        ``edge_idx`` restricts to a set of union-edge slots (the
        multi-version gather of the engine's inner loop); ``None`` yields
        the full ``(K, M)`` matrix.  Each edge's planes are fetched once
        and unpacked across all snapshots — MEGA's shared-fetch insight
        applied to the presence test itself.

        When a compiled kernel backend is active the restricted form
        fuses the gather and the unpack into one pass per edge (no
        intermediate gathered-plane matrix); the unpackbits path below
        stays as the parity reference.
        """
        planes = self.presence_planes()
        if edge_idx is not None:
            from repro.perf.backend import get_backend

            gather = get_backend().presence_gather
            if gather is not None:
                return gather(
                    planes, np.ascontiguousarray(edge_idx, dtype=np.int64),
                    self.n_snapshots,
                )
        gathered = planes if edge_idx is None else planes[:, edge_idx]
        return np.unpackbits(
            gathered, axis=0, count=self.n_snapshots, bitorder="little"
        ).view(bool)

    def _presence_of_dense(
        self, snapshot: int, edge_idx: np.ndarray
    ) -> np.ndarray:
        """The pre-packing dense presence test (tag compares per call).

        Kept as the reference implementation: parity tests check the
        packed planes against it, and ``bench-kernels`` reports the
        packed gather's speedup over it.
        """
        self._check_snapshot(snapshot)
        a = self.add_step[edge_idx]
        d = self.del_step[edge_idx]
        return ((a == NOT_APPLICABLE) | (a < snapshot)) & (
            (d == NOT_APPLICABLE) | (d >= snapshot)
        )

    def batch_mask(self, batch_id: BatchId) -> np.ndarray:
        if batch_id.kind is BatchKind.ADDITION:
            return self.add_step == batch_id.step
        return self.del_step == batch_id.step

    def batch_edges(self, batch_id: BatchId) -> np.ndarray:
        """Union-edge slots of one batch: sorted, read-only int64 (cached).

        Every planner asks for the same few batches many times (Direct-Hop
        once per snapshot a batch reaches), and the tags never change, so
        each batch's edge list is computed once.
        """
        edges = self._batch_edges.get(batch_id)
        if edges is None:
            edges = np.flatnonzero(self.batch_mask(batch_id)).astype(
                np.int64, copy=False
            )
            edges.flags.writeable = False
            self._batch_edges[batch_id] = edges
        return edges

    def batch(self, batch_id: BatchId) -> EdgeBatch:
        return EdgeBatch(batch_id, self.batch_edges(batch_id))

    def addition_batches(self) -> list[EdgeBatch]:
        return [
            self.batch(BatchId(BatchKind.ADDITION, j))
            for j in range(self.n_snapshots - 1)
        ]

    def deletion_batches(self) -> list[EdgeBatch]:
        return [
            self.batch(BatchId(BatchKind.DELETION, j))
            for j in range(self.n_snapshots - 1)
        ]

    # -- materialized graphs ------------------------------------------------

    def snapshot_graph(self, snapshot: int) -> CSRGraph:
        """Materialize ``G_snapshot`` as its own CSR (cached)."""
        self._check_snapshot(snapshot)
        if snapshot not in self._snapshot_cache:
            mask = self.presence_mask(snapshot)
            self._snapshot_cache[snapshot] = self._masked_graph(mask)
        return self._snapshot_cache[snapshot]

    def common_graph(self) -> CSRGraph:
        """Materialize the CommonGraph ``G_c``."""
        return self._masked_graph(self.common_mask)

    def reverse_graph(self) -> CSRGraph:
        """Transpose of the *union* graph (cached); used by deletion repair.

        Edge slot identity is lost in the transpose, so the reverse graph
        carries the union edge index as ``wt``-parallel metadata via
        :attr:`reverse_edge_origin`.
        """
        if self._reverse is None:
            self._reverse = self.graph.reverse()
            # Recover, for each reverse slot, the originating union slot by
            # sorting union slots into (dst, src) order the same way
            # CSRGraph.from_edges does.
            order = np.lexsort((self.graph.src_of_edge, self.graph.dst))
            self.reverse_edge_origin = order
        return self._reverse

    def _masked_graph(self, mask: np.ndarray) -> CSRGraph:
        counts = np.bincount(
            self.graph.src_of_edge[mask], minlength=self.n_vertices
        )
        indptr = np.zeros(self.n_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return CSRGraph(
            self.n_vertices, indptr, self.graph.dst[mask], self.graph.wt[mask]
        )

    def _check_snapshot(self, snapshot: int) -> None:
        if not 0 <= snapshot < self.n_snapshots:
            raise IndexError(
                f"snapshot {snapshot} out of range [0, {self.n_snapshots})"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"UnifiedCSR(n_vertices={self.n_vertices}, "
            f"union_edges={self.n_union_edges}, snapshots={self.n_snapshots})"
        )
