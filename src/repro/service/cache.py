"""LRU result cache: one full-window answer per source, sliced by epoch.

An entry is keyed ``(graph, algo, lineage, source)`` and holds the
full-window answer plus the epoch it was computed at.  Every plan runs
its algorithm's full window, and every ingest slides the window by one
snapshot, so within one *lineage* (one history of the graph's log: a
re-sync that installs a log not extending the held one starts a new
lineage) snapshot ``k`` at epoch ``q`` is snapshot ``k + q - e`` of the
window at epoch ``e``, bit for bit (each snapshot's values are the
from-scratch fixpoint on that snapshot's graph, whichever union computed
them).  So the answer held at epoch ``e`` answers window ``(lo, hi)`` at
epoch ``q`` whenever ``(lo + q - e, hi + q - e)`` lies inside the held
window, and no ingest has to re-key anything.  An entry of a replaced
lineage is never dropped eagerly: it is unreachable and ages out through
the LRU.  :meth:`ResultCache.window_of` is the one place that slices,
used by the service's plan completion and by :meth:`ResultCache.get`.
"""

from __future__ import annotations

import threading

from repro.experiments.runner import LRUCache
from repro.service.request import QueryRequest, SnapshotSummary

__all__ = ["ResultCache"]


class ResultCache:
    """Thread-safe LRU of per-source full-window snapshot summaries."""

    def __init__(self, maxsize: int = 512) -> None:
        self._lru = LRUCache(maxsize)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(request: QueryRequest, lineage: int = 0) -> tuple:
        """``(graph, algo, lineage, source)``; the algorithm lower-case,
        as :func:`~repro.algorithms.get_algorithm` resolves it."""
        return (
            request.graph, request.algo.lower(), lineage, int(request.source)
        )

    @staticmethod
    def window_of(
        full: list[SnapshotSummary], window: tuple[int, int] | None
    ) -> list[SnapshotSummary]:
        """A full-window answer's snapshots ``lo..hi``, renumbered
        ``0..hi-lo`` (the whole answer when ``window`` is None)."""
        if window is None:
            return full
        lo, hi = window
        return [
            SnapshotSummary(k, s.reached, s.checksum)
            for k, s in enumerate(full[lo:hi + 1])
        ]

    def get(
        self, request: QueryRequest, epoch: int, lineage: int = 0
    ) -> list[SnapshotSummary] | None:
        """The query's window at ``epoch``, sliced from the held answer
        shifted by ``epoch`` minus its epoch, if the held window covers
        it."""
        with self._lock:
            k = self.key(request, lineage)
            if k in self._lru:
                held_epoch, full = self._lru[k]
                shift = epoch - held_epoch
                lo, hi = request.window or (0, len(full) - 1)
                if lo + shift >= 0 and hi + shift <= len(full) - 1:
                    self.hits += 1
                    return self.window_of(full, (lo + shift, hi + shift))
            self.misses += 1
            return None

    def put(
        self,
        request: QueryRequest,
        epoch: int,
        full: list[SnapshotSummary],
        lineage: int = 0,
    ) -> None:
        """Hold ``full``, the source's full-window answer at ``epoch``,
        unless an answer at a newer epoch is held."""
        with self._lock:
            k = self.key(request, lineage)
            if k not in self._lru or self._lru[k][0] <= epoch:
                self._lru[k] = (epoch, full)

    def rebase_graph(self, graph: str, new_epoch: int) -> int:
        """``graph``'s tip moved to ``new_epoch``: drop its entries at the
        LRU's cold end that the tip has passed by a whole window.

        Stops at the first entry of another graph or one still live, so
        the cost is the entries dropped; the rest age out through the
        LRU.  Returns how many were dropped.
        """
        dropped = 0
        with self._lock:
            while (cold := self._lru.coldest()) is not None:
                key, (epoch, full) = cold
                if key[0] != graph or new_epoch - epoch < len(full):
                    break
                self._lru.pop(key)
                dropped += 1
        return dropped

    def clear(self) -> None:
        with self._lock:
            self._lru.clear()

    def stats(self) -> dict:
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._lru),
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": (self.hits / total) if total else 0.0,
            }
