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
replaces.  The dense path it replaced stays as ``_presence_of_dense``, the
reference the parity tests hold the packed gather to.

A window slide does not rebuild any of this: :meth:`UnifiedCSR.merged`
inserts a sorted batch of new edges into the kept union, and
:func:`shift_planes` carries the packed planes across by a bit shift
(see :func:`repro.evolving.window.slide_window`).
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.edges import EdgeList
from repro.evolving.batches import BatchId, BatchKind, EdgeBatch

__all__ = ["UnifiedCSR", "shift_planes", "tag_planes"]

NOT_APPLICABLE = -1


def tag_planes(
    add_step: np.ndarray, del_step: np.ndarray, n_snapshots: int
) -> np.ndarray:
    """Bit-packed presence planes of edges with the given batch tags."""
    snaps = np.arange(n_snapshots, dtype=np.int32)[:, None]
    a = add_step[None, :]
    d = del_step[None, :]
    dense = ((a == NOT_APPLICABLE) | (a < snaps)) & (
        (d == NOT_APPLICABLE) | (d >= snaps)
    )
    return np.packbits(dense, axis=0, bitorder="little")


def shift_planes(
    planes: np.ndarray, keep: np.ndarray, lo: int, count: int, n_snapshots: int
) -> np.ndarray:
    """Planes of the ``keep`` edges whose snapshot ``k`` is snapshot
    ``lo + k`` of ``planes``.

    Snapshots ``0 .. count-1`` are copied down by ``lo`` bits, carrying
    between planes; the result has room for ``n_snapshots`` snapshots and
    every bit from ``count`` on is zero.  Writable.
    """
    q, r = divmod(lo, 8)
    n_out = (n_snapshots + 7) // 8
    # select columns row by row: a 2-D mask along axis 1 is ~10x slower
    rows = [row[keep] for row in planes[q: q + n_out + 1]]
    out = np.zeros((n_out, int(np.count_nonzero(keep))), dtype=np.uint8)
    for p in range(n_out):
        if p < len(rows):
            np.right_shift(rows[p], r, out=out[p])
        if r and p + 1 < len(rows):
            out[p] |= rows[p + 1] << (8 - r)
        tail = count - 8 * p
        if tail < 8:
            out[p] &= (1 << max(tail, 0)) - 1
    return out


class UnifiedCSR:
    """Union CSR + snapshot tags; the default storage format of MEGA."""

    def __init__(
        self,
        graph: CSRGraph,
        add_step: np.ndarray,
        del_step: np.ndarray,
        n_snapshots: int,
        presence_planes: np.ndarray | None = None,
        *,
        check_tags: bool = True,
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
        # O(E); ``check_tags=False`` is for the compiled window merge,
        # which derives the tags itself (tests/test_window_merge.py
        # holds its outputs to these rules)
        if check_tags:
            both = (self.add_step >= 0) & (self.del_step >= 0)
            if np.any(both):
                raise ValueError(
                    "an edge cannot be both an addition and a deletion "
                    "within one CommonGraph window"
                )
            if np.any(self.add_step >= n_snapshots - 1) or np.any(
                self.del_step >= n_snapshots - 1
            ):
                raise ValueError("batch steps must lie in [0, n_snapshots-2]")
        self._snapshot_cache: dict[int, CSRGraph] = {}
        self._reverse: CSRGraph | None = None
        #: what is derived from the union alone, by key (see :meth:`memo`)
        self._memo: dict = {}
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

    @classmethod
    def merged(
        cls,
        kept: EdgeList,
        kept_add: np.ndarray,
        kept_del: np.ndarray,
        new: EdgeList,
        new_add: np.ndarray | int,
        new_del: np.ndarray | int,
        kept_planes: np.ndarray,
        n_snapshots: int,
    ) -> tuple["UnifiedCSR", np.ndarray]:
        """Insert ``new`` edges into a union's ``kept`` edges.

        ``kept`` must already be in ``(src, dst)`` order; ``new`` may
        come in any order and is sorted once.  The kept edges' presence
        planes are carried over and only the new columns are derived
        from their tags.

        Returns the union and, per ``new`` edge in input order, its slot.
        """
        if new.n_vertices != kept.n_vertices:
            raise ValueError("kept and new edges must share the vertex set")
        new_keys = new.keys
        order = np.argsort(new_keys, kind="stable")
        # side="right": a new edge sorts after a kept edge of the same
        # pair, as in a stable sort of the kept edges followed by the new
        at = np.searchsorted(kept.keys, new_keys[order], side="right")
        n_new = order.shape[0]
        new_add = np.broadcast_to(np.asarray(new_add, np.int32), (n_new,))[order]
        new_del = np.broadcast_to(np.asarray(new_del, np.int32), (n_new,))[order]
        graph = CSRGraph.from_sorted(
            kept.n_vertices,
            np.insert(kept.src, at, new.src[order]),
            np.insert(kept.dst, at, new.dst[order]),
            np.insert(kept.wt, at, new.wt[order]),
        )
        new_planes = tag_planes(new_add, new_del, n_snapshots)
        # row by row: np.insert along axis 1 is ~10x slower
        planes = np.stack([
            np.insert(row, at, cols)
            for row, cols in zip(kept_planes, new_planes)
        ])
        planes.flags.writeable = False
        unified = cls(
            graph,
            np.insert(np.asarray(kept_add, np.int32), at, new_add),
            np.insert(np.asarray(kept_del, np.int32), at, new_del),
            n_snapshots,
            presence_planes=planes,
        )
        slots = np.empty(n_new, dtype=np.int64)
        slots[order] = at + np.arange(n_new)
        return unified, slots

    @classmethod
    def build(
        cls,
        edges: EdgeList,
        add_step: np.ndarray,
        del_step: np.ndarray,
        n_snapshots: int,
    ) -> "UnifiedCSR":
        """The union of ``edges`` (any order) and their tags: one sort."""
        none = np.empty(0, dtype=np.int32)
        empty = EdgeList(edges.n_vertices, none, none, none)
        no_planes = np.empty(((n_snapshots + 7) // 8, 0), dtype=np.uint8)
        return cls.merged(
            empty, none, none, edges, add_step, del_step, no_planes,
            n_snapshots,
        )[0]

    # -- structural views --------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self.graph.n_vertices

    @property
    def n_union_edges(self) -> int:
        return self.graph.n_edges

    def memo(self, key, build):
        """``build()``, computed once per union and ``key``, read-only by
        contract: the union never changes, so what is derived from it
        alone (a batch's edges, a plan's schedule) lives as long as it
        does."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build()
        return value

    @property
    def common_mask(self) -> np.ndarray:
        """Edges belonging to the CommonGraph ``G_c`` (all snapshots):
        read-only, computed once."""
        return self.memo("common", self._common_mask)

    def _common_mask(self) -> np.ndarray:
        mask = (self.add_step == NOT_APPLICABLE) & (
            self.del_step == NOT_APPLICABLE
        )
        mask.flags.writeable = False
        return mask

    def presence_planes(self) -> np.ndarray:
        """Bit-packed presence: ``(ceil(K/8), M)`` ``uint8``, lazy-cached.

        Bit ``j`` of plane ``p`` (little-endian bit order) says whether
        the edge is present in snapshot ``8p + j``.  The matrix is 8×
        smaller than the dense boolean form and read-only — shared-memory
        attaches publish it verbatim.
        """
        if self._planes is None:
            planes = tag_planes(self.add_step, self.del_step, self.n_snapshots)
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
        unpack-on-gather fast path the parity tests hold to
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
        packed planes against it.
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
        return self.memo(batch_id, lambda: self._batch_edges(batch_id))

    def _batch_edges(self, batch_id: BatchId) -> np.ndarray:
        edges = np.flatnonzero(self.batch_mask(batch_id)).astype(
            np.int64, copy=False
        )
        edges.flags.writeable = False
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
            self._reverse, self.reverse_edge_origin = self.graph.transpose()
        return self._reverse

    def _masked_graph(self, mask: np.ndarray) -> CSRGraph:
        g = self.graph
        return CSRGraph.from_sorted(
            self.n_vertices, g.src_of_edge[mask], g.dst[mask], g.wt[mask]
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
