"""Building evolving-graph windows from timestamped edge events.

Real deployments do not hand you pre-cut batches: they have a log of edge
events — ``(time, src, dst, weight, +/-)`` — and a time window to analyze.
:class:`EvolvingGraphBuilder` ingests such a log, cuts it into the
requested number of snapshots at equal-time (or explicit) boundaries, and
emits the :class:`~repro.evolving.snapshots.EvolvingScenario` the rest of
the library consumes.

CommonGraph semantics require each edge to change state at most once
inside the window (an edge that is added *and* later removed belongs to
neither pure chain — the paper's batches have this property by
construction).  The builder resolves repeated events per edge to their
*net* effect across each snapshot boundary and rejects windows where an
edge both appears and disappears, directing the user to split the window
(the same restriction CommonGraph imposes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.evolving.snapshots import EvolvingScenario
from repro.evolving.unified_csr import UnifiedCSR
from repro.graph.edges import EdgeList, edge_keys

__all__ = ["EdgeEvent", "EvolvingGraphBuilder"]


@dataclass(frozen=True)
class EdgeEvent:
    """One timestamped mutation of the graph."""

    time: float
    src: int
    dst: int
    weight: float = 1.0
    add: bool = True


class EvolvingGraphBuilder:
    """Accumulates edge events and cuts them into a snapshot window."""

    def __init__(self, n_vertices: int, initial: EdgeList | None = None) -> None:
        self.n_vertices = int(n_vertices)
        if initial is not None and initial.n_vertices != n_vertices:
            raise ValueError("initial edges must match the vertex count")
        self._initial = initial
        self._events: list[EdgeEvent] = []

    def add_edge(self, time: float, src: int, dst: int, weight: float = 1.0) -> None:
        self.record(EdgeEvent(time, src, dst, weight, add=True))

    def remove_edge(self, time: float, src: int, dst: int) -> None:
        self.record(EdgeEvent(time, src, dst, add=False))

    def record(self, event: EdgeEvent) -> None:
        if not 0 <= event.src < self.n_vertices:
            raise ValueError(f"src {event.src} out of range")
        if not 0 <= event.dst < self.n_vertices:
            raise ValueError(f"dst {event.dst} out of range")
        self._events.append(event)

    def __len__(self) -> int:
        return len(self._events)

    # -- window cutting ------------------------------------------------------

    def boundaries(self, n_snapshots: int) -> np.ndarray:
        """Equal-time snapshot boundaries over the recorded event span."""
        if not self._events:
            raise ValueError("no events recorded")
        times = np.array([e.time for e in self._events])
        lo, hi = float(times.min()), float(times.max())
        return np.linspace(lo, hi, n_snapshots)[1:]

    def build(
        self,
        n_snapshots: int,
        boundaries: np.ndarray | None = None,
        source: int = 0,
        name: str = "built",
    ) -> EvolvingScenario:
        """Cut the event log into an ``n_snapshots`` window.

        Snapshot 0 is the graph at the window start (the ``initial``
        edges); ``boundaries[j]`` is the observation time of snapshot
        ``j + 1``.  An edge's membership in snapshot ``j + 1`` is its net
        state after the last event at or before ``boundaries[j]``; events
        after the final boundary fall outside the window and are ignored.
        """
        if n_snapshots < 2:
            raise ValueError("a window needs at least two snapshots")
        if boundaries is None:
            boundaries = self.boundaries(n_snapshots)
        boundaries = np.asarray(boundaries, dtype=np.float64)
        if boundaries.shape[0] != n_snapshots - 1:
            raise ValueError(
                f"need {n_snapshots - 1} boundaries, got {boundaries.shape[0]}"
            )
        if np.any(np.diff(boundaries) < 0):
            raise ValueError("boundaries must be non-decreasing")

        # Net state change per edge per transition step.
        initial = self._initial or EdgeList.from_tuples(self.n_vertices, [])
        initial_keys = set(initial.keys.tolist())

        # last event per (edge, step) wins; then per edge, track the state
        # sequence across steps.
        per_edge: dict[int, list[EdgeEvent]] = {}
        for e in sorted(self._events, key=lambda ev: ev.time):
            key = int(
                edge_keys(
                    np.array([e.src]), np.array([e.dst]), self.n_vertices
                )[0]
            )
            per_edge.setdefault(key, []).append(e)

        src_list, dst_list, wt_list = list(initial.src), list(initial.dst), list(initial.wt)
        add_step = [-1] * len(initial)
        del_step = [-1] * len(initial)
        index_of = {int(k): i for i, k in enumerate(initial.keys)}

        for key, events in per_edge.items():
            initially_present = key in initial_keys
            # state after the last event at or before each boundary
            present = initially_present
            states = []
            ei = 0
            weight = None
            for b in boundaries:
                while ei < len(events) and events[ei].time <= b:
                    present = events[ei].add
                    if events[ei].add:
                        weight = events[ei].weight
                    ei += 1
                states.append(present)
            seq = [initially_present] + states
            changes = [
                (j, seq[j + 1]) for j in range(len(states)) if seq[j] != seq[j + 1]
            ]
            if len(changes) > 1:
                src = key // self.n_vertices
                dst = key % self.n_vertices
                raise ValueError(
                    f"edge ({src}, {dst}) changes state more than once in "
                    "the window; CommonGraph windows require one change per "
                    "edge — split the window"
                )
            if not changes:
                continue
            step, became_present = changes[0]
            if became_present:
                if initially_present:  # pragma: no cover - defensive
                    raise AssertionError
                src_list.append(key // self.n_vertices)
                dst_list.append(key % self.n_vertices)
                wt_list.append(weight if weight is not None else 1.0)
                add_step.append(step)
                del_step.append(-1)
            else:
                idx = index_of[key]
                del_step[idx] = step

        pool = EdgeList(
            self.n_vertices,
            np.asarray(src_list, dtype=np.int64),
            np.asarray(dst_list, dtype=np.int64),
            np.asarray(wt_list, dtype=np.float64),
        )
        unified = UnifiedCSR.build(
            pool, np.asarray(add_step), np.asarray(del_step), n_snapshots
        )
        return EvolvingScenario(unified, source=source, name=name)
