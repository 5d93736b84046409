"""KickStarter-style deletion repair for the streaming baseline.

MEGA's whole point is *avoiding* deletions, but the baselines it is
compared against (JetStream streaming, Fig. 2 and Table 4) must process
them.  This module implements the trimmed-approximation repair used by
KickStarter/JetStream:

1. the engine tracks, per vertex, the in-edge whose candidate produced its
   current value (the *approximation dependence tree*);
2. a deleted edge invalidates its dependent vertex, and invalidation
   cascades through the dependence tree — in hardware this is a wave of
   special delete events traversing out-edges, which is what makes
   deletions so much more expensive than additions (paper Fig. 2);
3. invalidated vertices are reset to the identity value and recomputed by
   re-propagating from the intact frontier around the invalidated region.

Values after repair equal a from-scratch evaluation on the reduced graph
(asserted by the integration tests).

This module is the numpy tier of the repair and its parity reference.
On the compiled tier the same repair (and :func:`reconstruct_parents`)
runs as steps of the engine's step table —
:meth:`~repro.engines.daic.StepTable.delete` and
:meth:`~repro.engines.daic.StepTable.ground`, the TAG, PULL, PROPAGATE
and GROUND kinds of ``_kernels.c`` — which must match these functions
bit for bit: values, parents, statistics and traces.  Algorithms
without a ``kernel_op`` (the label-propagation extension) always run
here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.engines.trace import edge_blocks
from repro.graph.csr import gather_out_edges
from repro.graph.edges import first_occurrences

if TYPE_CHECKING:
    from repro.engines.daic import MultiVersionEngine

__all__ = [
    "NOT_A_FIXPOINT", "DeletionRepair", "DeletionStats", "reconstruct_parents"
]

#: why a parent forest cannot be grounded: some reached vertex has no
#: supporting in-edge chain back to a root (NaN-poisoned values, or
#: values that never converged)
NOT_A_FIXPOINT = "values are not a fixpoint: unsupported vertices found"


def reconstruct_parents(
    engine: MultiVersionEngine,
    values: np.ndarray,
    presence: np.ndarray,
    source: int,
    parent_row: int = 0,
) -> None:
    """Rebuild a dependence tree from converged values (vectorized).

    At a fixpoint every reached non-root vertex has at least one in-edge
    whose candidate equals its value (docs/THEORY.md §3), but recording an
    *arbitrary* supporting edge could build cycles on value plateaus
    (mutually supporting equal values).  The reconstruction therefore
    grounds the forest: starting from the self-sufficient roots (the
    source, label-propagation roots, unreached vertices), it repeatedly
    anchors vertices whose value is supported by an already-anchored
    in-neighbour.  The result is an acyclic certificate forest equivalent
    to what live tracking would have produced — enabling deletion repair
    on values computed without parents (e.g. after a window slide
    re-indexes the union edge slots).
    """
    graph = engine.graph
    algo = engine.algorithm
    engine._ensure_parent_rows(parent_row + 1)
    parent = engine.parent_edge[parent_row]
    parent.fill(-1)

    live = np.flatnonzero(presence)
    src = graph.src_of_edge[live]
    dst = graph.dst[live]
    cand = algo.candidate(values[src], graph.wt[live])
    supports = cand == values[dst]
    live, src, dst, cand = (
        live[supports], src[supports], dst[supports], cand[supports]
    )

    # roots: vertices whose value needs no in-edge (their initial value)
    init = algo.initial_values(graph.n_vertices, source)
    anchored = values == init
    while True:
        usable = anchored[src] & ~anchored[dst]
        if not np.any(usable):
            break
        new_dst = dst[usable]
        new_edge = live[usable]
        # first supporting edge per destination wins
        first = first_occurrences(new_dst)
        parent[new_dst[first]] = new_edge[first]
        anchored[new_dst[first]] = True

    dangling = ~anchored & algo.reached(values[None, :])[0]
    if np.any(dangling):
        raise RuntimeError(NOT_A_FIXPOINT)


@dataclass
class DeletionStats:
    """Cost breakdown of one deletion batch."""

    tagged_vertices: int
    tag_events: int
    tag_rounds: int
    recompute_rounds: int
    #: ``(n,)`` bool mask of the vertices the repair invalidated (post
    #: trim) — every vertex whose converged value depended, through the
    #: KickStarter parent forest, on a retired edge.  The complement is
    #: the batch's provably-stable set; sliding-window serving reuses it
    #: to seed incremental evaluation.
    tagged_mask: np.ndarray


class DeletionRepair:
    """Applies deletion batches against a single-version value array."""

    def __init__(self, engine: MultiVersionEngine) -> None:
        if not engine.track_parents:
            raise ValueError("deletion repair requires parent tracking")
        self.engine = engine

    def apply_deletions(
        self,
        values: np.ndarray,
        del_edge_idx: np.ndarray,
        presence_after: np.ndarray,
        source: int,
        parent_row: int = 0,
        tag: str = "del-batch",
    ) -> DeletionStats:
        """Remove a batch of edges and repair ``values`` in place.

        * ``values`` — ``(n,)`` value array for the affected version;
        * ``del_edge_idx`` — union-edge indices being deleted;
        * ``presence_after`` — ``(M,)`` bool mask of edges present *after*
          the deletion (the graph the repair propagates over).
        """
        engine = self.engine
        graph = engine.graph
        unified = engine.unified
        algo = engine.algorithm
        engine._ensure_parent_rows(parent_row + 1)
        parent = engine.parent_edge[parent_row]
        collector = engine.collector
        owns = collector is not None and not collector.active
        if owns:
            collector.begin(tag, "del", (parent_row,))

        n = graph.n_vertices
        del_edge_idx = np.asarray(del_edge_idx, dtype=np.int64)
        del_mask = np.zeros(graph.n_edges, dtype=bool)
        del_mask[del_edge_idx] = True
        if np.any(presence_after[del_edge_idx]):
            raise ValueError("presence_after must exclude the deleted edges")

        # Step 1: the batch reader emits one delete event per removed edge;
        # an event invalidates its destination iff the destination's value
        # was derived from exactly that edge.
        tagged = np.zeros(n, dtype=bool)
        victims = graph.dst[del_edge_idx]
        direct = parent[victims] == del_edge_idx
        tagged[victims[direct]] = True
        self._record(
            "del-tag",
            events_popped=0,
            events_generated=int(del_edge_idx.size),
            edge_idx=del_edge_idx,
            vertex_writes=int(direct.sum()),
            dst=victims,
        )

        # Step 2: cascade invalidation along the dependence tree.  The
        # hardware broadcasts delete events along *all* out-edges of an
        # invalidated vertex; only true dependents invalidate further.
        tag_events = int(del_edge_idx.size)
        tag_rounds = 0
        frontier = np.flatnonzero(tagged)
        while frontier.size:
            edge_idx, src_rep = gather_out_edges(graph.indptr, frontier)
            if edge_idx.size == 0:
                break
            present = presence_after[edge_idx] | del_mask[edge_idx]
            edge_idx = edge_idx[present]
            if edge_idx.size == 0:
                break
            tag_rounds += 1
            tag_events += int(edge_idx.size)
            dst = graph.dst[edge_idx]
            dependent = (parent[dst] == edge_idx) & ~tagged[dst]
            newly = np.unique(dst[dependent])
            self._record(
                "del-tag",
                events_popped=int(frontier.size),
                events_generated=int(edge_idx.size),
                edge_idx=edge_idx,
                vertex_writes=int(newly.size),
                dst=dst,
            )
            tagged[newly] = True
            frontier = newly

        # Step 3: trim — reset invalidated vertices and their parents.
        tagged[source] = False  # the source never depends on any edge
        n_tagged = int(tagged.sum())
        ident = algo.identity_values(n)
        values[tagged] = ident[tagged]
        parent[tagged] = -1

        # Step 4: recompute.  Pull the in-edges of the invalidated region to
        # find intact border vertices, then re-propagate from them over the
        # reduced graph.  The in-edge pull reads the transpose (CSC) edge
        # arrays — real off-chip traffic that makes deletions expensive.
        recompute_rounds = 0
        if n_tagged:
            rev = unified.reverse_graph()
            origin_of = unified.reverse_edge_origin
            tagged_vertices = np.flatnonzero(tagged)
            r_edge_idx, _ = gather_out_edges(rev.indptr, tagged_vertices)
            origin = origin_of[r_edge_idx]
            srcs = rev.dst[r_edge_idx]
            ok = (
                presence_after[origin]
                & ~tagged[srcs]
                & algo.reached(values)[srcs]
            )
            # Border vertices push back into the region; invalidated
            # vertices whose *reset* value still carries information (the
            # per-vertex identities of label-propagation extensions) must
            # re-propagate it themselves.  For the scalar Table 1
            # algorithms the reset value is pure identity, so this adds
            # nothing.
            self_info = tagged_vertices[
                algo.reached(values)[tagged_vertices]
            ]
            seeds = np.unique(np.concatenate([srcs[ok], self_info]))
            self._record(
                "del-pull",
                events_popped=int(tagged_vertices.size),
                events_generated=int(r_edge_idx.size),
                edge_idx=origin,
                vertex_writes=0,
                dst=seeds,
                block_ids=edge_blocks(
                    r_edge_idx + engine.reverse_block_offset,
                    engine.edges_per_block,
                ),
            )
            frontier2 = np.zeros((1, n), dtype=bool)
            frontier2[0, seeds] = True
            recompute_rounds = engine.propagate(
                values[None, :],
                frontier2,
                presence_after[None, :],
                phase="del-recompute",
                parent_rows=np.array([parent_row]),
            )

        if owns:
            collector.end()
        return DeletionStats(
            tagged_vertices=n_tagged,
            tag_events=tag_events,
            tag_rounds=tag_rounds,
            recompute_rounds=recompute_rounds,
            tagged_mask=tagged,
        )

    def _record(self, phase, events_popped, events_generated, edge_idx,
                vertex_writes, dst, block_ids=None) -> None:
        """One single-version repair pass; repair keeps no per-version
        counts, so its version columns stay zero."""
        self.engine._record_round(
            phase, events_popped, events_generated, edge_idx, vertex_writes,
            n_versions=1, version_events_popped=0,
            version_events_generated=0, version_vertex_writes=0, dst=dst,
            blocks=block_ids,
        )
