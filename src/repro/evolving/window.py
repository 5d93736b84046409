"""Ad-hoc time-window queries over a snapshot range.

The triangular grid's intermediate common graphs (Fig. 1a) exist exactly
so that a query can be evaluated over *any* contiguous sub-window of the
history — the Tegra-style ad-hoc analysis the related-work section
discusses.  ``extract_window`` re-roots a unified CSR at the window's own
common graph: edges absent from every window snapshot are dropped, edges
present in all of them become common, and batch tags are re-based to the
window's local step indexing.  The result is a self-contained
:class:`~repro.evolving.unified_csr.UnifiedCSR`, so every workflow,
simulator and metric applies unchanged to the sub-window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.evolving.snapshots import EvolvingScenario
from repro.evolving.unified_csr import UnifiedCSR, shift_planes
from repro.graph.csr import CSRGraph
from repro.graph.edges import EdgeList, edge_keys
from repro.perf.backend import (
    SLIDE_ADDED_INSIDE,
    SLIDE_BAD_ADDITION,
    SLIDE_BAD_VERTEX,
    SLIDE_DUP_ADDITION,
    SLIDE_LIVE_DUPLICATE,
    SLIDE_NOT_LIVE,
    SLIDE_READDED,
    get_backend,
)

__all__ = ["extract_window", "window_scenario", "SlideResult", "slide_window"]


def _moved(unified: UnifiedCSR, lo: int, count: int, n_out: int, **delta):
    """The compiled tier's window move (``KernelBackend.window_merge``)
    of ``unified``: its arrays, a refusal code and row."""
    graph = unified.graph
    return get_backend().window_merge(
        graph.indptr, graph.src_of_edge, graph.dst, graph.wt, unified.add_step,
        unified.del_step, unified.presence_planes(), unified.n_snapshots,
        lo, count, n_out, **delta,
    )


def _union_of(merge, n_vertices: int, n_snapshots: int) -> UnifiedCSR:
    """The union a compiled move built; the kernel derived its tags, so
    the O(E) tag checks are not run again."""
    merge.planes.flags.writeable = False
    return UnifiedCSR(
        CSRGraph(
            n_vertices, merge.indptr, merge.dst, merge.wt,
            src_of_edge=merge.src_of_edge,
        ),
        merge.add_step,
        merge.del_step,
        n_snapshots,
        presence_planes=merge.planes,
        check_tags=False,
    )


def extract_window(unified: UnifiedCSR, lo: int, hi: int) -> UnifiedCSR:
    """Unified CSR restricted to snapshots ``lo..hi`` (inclusive)."""
    if not 0 <= lo <= hi < unified.n_snapshots:
        raise IndexError(
            f"window [{lo}, {hi}] outside [0, {unified.n_snapshots - 1}]"
        )
    if get_backend().window_merge is not None:
        n_window = hi - lo + 1
        merge = _moved(unified, lo, n_window, n_window)
        return _union_of(merge, unified.n_vertices, n_window)
    a, d = unified.add_step, unified.del_step

    # Edge fate within the window:
    #   * never present: added at/after hi, or deleted before lo -> drop;
    #   * present throughout: untouched, added before lo, deleted at/after
    #     hi -> common;
    #   * otherwise the batch step falls inside the window -> re-based tag.
    absent = ((a >= 0) & (a >= hi)) | ((d >= 0) & (d < lo))
    keep = ~absent

    new_add = np.where((a >= 0) & (a >= lo) & (a < hi), a - lo, -1)
    new_del = np.where((d >= 0) & (d >= lo) & (d < hi), d - lo, -1)

    n_window = hi - lo + 1
    planes = shift_planes(
        unified.presence_planes(), keep, lo, n_window, n_window
    )
    planes.flags.writeable = False
    graph = unified.graph
    sub = CSRGraph.from_sorted(
        graph.n_vertices,
        graph.src_of_edge[keep],
        graph.dst[keep],
        graph.wt[keep],
    )
    return UnifiedCSR(
        sub,
        new_add[keep].astype(np.int32),
        new_del[keep].astype(np.int32),
        n_window,
        presence_planes=planes,
    )


@dataclass
class SlideResult:
    """Outcome of sliding a window forward by one transition.

    ``del_slots`` index the *old* union, ``previous`` (for value repair
    against the pre-slide state); ``add_slots`` index the *new* union
    (for applying the additions once the merged window is in place).
    """

    unified: UnifiedCSR
    del_slots: np.ndarray
    add_slots: np.ndarray
    previous: UnifiedCSR = field(repr=False)
    _last_presence: np.ndarray | None = field(default=None, repr=False)

    @property
    def last_presence(self) -> np.ndarray:
        """The old union's presence in its latest snapshot, which value
        repair needs: built on first read (the numpy slide hands over
        the mask its validation built)."""
        if self._last_presence is None:
            old = self.previous
            self._last_presence = old.presence_mask(old.n_snapshots - 1)
        return self._last_presence


#: slide_window's refusal per compiled SLIDE_* code; a deletion's message
#: names its pair, an addition's none
_REFUSALS = {
    SLIDE_BAD_VERTEX: "cannot delete edge ({s}, {d}): vertex out of range "
    "[0, {n})",
    SLIDE_NOT_LIVE: "cannot delete edge ({s}, {d}): not present in the "
    "latest snapshot",
    SLIDE_ADDED_INSIDE: "edge ({s}, {d}) was added inside the current "
    "window; one state change per edge per window — split the window "
    "before deleting it",
    SLIDE_BAD_ADDITION: "additions must share the window's vertex set",
    SLIDE_DUP_ADDITION: "additions contain duplicate pairs",
    SLIDE_LIVE_DUPLICATE: "additions duplicate a live edge",
    SLIDE_READDED: "re-adding an edge deleted inside the current window; "
    "split the window first",
}
_DELETION_REFUSALS = (SLIDE_BAD_VERTEX, SLIDE_NOT_LIVE, SLIDE_ADDED_INSIDE)


def slide_window(
    unified: UnifiedCSR,
    additions: EdgeList | None = None,
    deletions: list[tuple[int, int]] | None = None,
) -> SlideResult:
    """Advance a window ``[0..N-1]`` to ``[1..N]`` with one new transition.

    Pure function: validates the new batches against the CommonGraph
    one-change-per-edge rule, then merges the sorted additions into the
    kept union with shifted batch tags — snapshot-0-only edges leave the
    union, additions that arrived at the first transition join the common
    graph, the new ``Δ+/Δ-`` arrive at the last transition.  The presence
    planes move down one snapshot by a bit shift; the new latest snapshot
    is the old one minus the deletions, plus the additions.  Value
    maintenance is the caller's business
    (:class:`repro.core.window_server.WindowServer` repairs in place; the
    query service recomputes on demand).

    On the compiled tier the checks and the merge are one
    ``window_merge`` kernel call; the numpy body below is its reference.
    """
    graph = unified.graph
    n = unified.n_snapshots
    n_vertices = unified.n_vertices
    additions = additions or EdgeList.from_tuples(n_vertices, [])
    deletions = deletions or []
    if additions.n_vertices != n_vertices:
        raise ValueError("additions must share the window's vertex set")
    if get_backend().window_merge is not None:
        del_pairs = np.asarray(deletions, dtype=np.int64).reshape(-1, 2)
        merge = _moved(
            unified, 1, n - 1, n,
            add_src=additions.src, add_dst=additions.dst,
            add_wt=additions.wt, dels=del_pairs,
        )
        if merge.refusal:
            message = _REFUSALS[merge.refusal]
            if merge.refusal in _DELETION_REFUSALS:
                s, d = del_pairs[merge.index]
                message = message.format(s=s, d=d, n=n_vertices)
            raise ValueError(message)
        return SlideResult(
            _union_of(merge, n_vertices, n), merge.del_slots,
            merge.add_slots, unified,
        )

    # CSR order sorts by (src, dst), so the union keys are sorted and
    # slot lookup is a binary search.
    union_keys = edge_keys(graph.src_of_edge, graph.dst, n_vertices)

    def slots_of(keys: np.ndarray) -> np.ndarray:
        """Union slot per key; -1 where the key is not in the union."""
        if union_keys.size == 0:
            # an edgeless window has no slots at all; numpy's fancy
            # indexing is eager (``&`` does not short-circuit), so the
            # general path below would fault on ``union_keys[pos]``
            return np.full(keys.shape, -1, dtype=np.int64)
        pos = np.searchsorted(union_keys, keys)
        pos = np.minimum(pos, union_keys.size - 1)
        found = union_keys[pos] == keys
        return np.where(found, pos, -1)

    # -- validate the new batches against the CommonGraph rule --------
    last_presence = unified.presence_mask(n - 1)
    del_pairs = np.asarray(deletions, dtype=np.int64).reshape(-1, 2)
    # keys alias outside [0, n): (0, n) would key as (1, 0)
    out_of_range = ((del_pairs < 0) | (del_pairs >= n_vertices)).any(axis=1)
    if np.any(out_of_range):
        s, d = del_pairs[np.flatnonzero(out_of_range)[0]]
        raise ValueError(
            f"cannot delete edge ({s}, {d}): vertex out of range "
            f"[0, {n_vertices})"
        )
    del_slots = slots_of(del_pairs[:, 0] * n_vertices + del_pairs[:, 1])
    found_del = del_slots >= 0
    alive = np.zeros(len(del_pairs), dtype=bool)
    alive[found_del] = last_presence[del_slots[found_del]]
    bad = ~alive
    if np.any(bad):
        s, d = del_pairs[np.flatnonzero(bad)[0]]
        raise ValueError(
            f"cannot delete edge ({s}, {d}): not present in the "
            "latest snapshot"
        )
    internal = unified.add_step[del_slots] >= 1
    if np.any(internal):
        s, d = del_pairs[np.flatnonzero(internal)[0]]
        raise ValueError(
            f"edge ({s}, {d}) was added inside the current window; "
            "one state change per edge per window — split the "
            "window before deleting it"
        )

    add_key_arr = additions.keys
    if np.unique(add_key_arr).size != len(additions):
        raise ValueError("additions contain duplicate pairs")
    add_existing = slots_of(add_key_arr)
    known_slots = add_existing[add_existing >= 0]
    if np.any(last_presence[known_slots]):
        raise ValueError("additions duplicate a live edge")
    if np.any(unified.del_step[known_slots] >= 1):
        raise ValueError(
            "re-adding an edge deleted inside the current window; "
            "split the window first"
        )

    # -- merge the additions into the kept union with shifted tags ----
    # the new latest snapshot: the old one minus this transition's
    # deletions (the additions get exactly this bit from their tags)
    latest = last_presence.copy()
    latest[del_slots] = False
    # snapshot-0-only edges leave the window; in a one-snapshot window
    # there is no transition to carry a deletion, so deleted edges go too
    keep = unified.del_step != 0
    if n == 1:
        keep[del_slots] = False
    planes = shift_planes(unified.presence_planes(), keep, 1, n - 1, n)
    planes[(n - 1) >> 3] |= latest[keep].view(np.uint8) << ((n - 1) & 7)
    # tags move down a step; step 0 (and -1) becomes -1, "not applicable"
    add_step = unified.add_step[keep]
    del_step = unified.del_step[keep]
    for tags in (add_step, del_step):
        tags -= 1
        np.maximum(tags, -1, out=tags)
    if n > 1:
        # a kept slot moves down by the dropped slots before it
        dropped = np.flatnonzero(~keep)
        del_step[del_slots - np.searchsorted(dropped, del_slots)] = n - 2
    new_unified, add_slots = UnifiedCSR.merged(
        EdgeList(
            n_vertices, graph.src_of_edge[keep], graph.dst[keep], graph.wt[keep]
        ),
        add_step,
        del_step,
        additions,
        n - 2,
        -1,
        planes,
        n,
    )
    return SlideResult(
        new_unified, del_slots, add_slots, unified, last_presence
    )


def window_scenario(
    scenario: EvolvingScenario, lo: int, hi: int
) -> EvolvingScenario:
    """A scenario over the sub-window, preserving source and metadata."""
    unified = extract_window(scenario.unified, lo, hi)
    meta = dict(scenario.metadata)
    meta["window"] = (lo, hi)
    return EvolvingScenario(
        unified,
        source=scenario.source,
        name=f"{scenario.name}[{lo}:{hi}]",
        metadata=meta,
    )
