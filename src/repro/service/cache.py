"""LRU result cache keyed by the history an answer belongs to.

Keys include the graph's *epoch* (how many delta batches have been
ingested) and its *lineage* (which history of the log those epochs are:
a re-sync that installs a log not extending the held one starts a new
lineage).  So a result computed before an ingest, or on a history a
re-sync has since replaced, can never satisfy a query admitted after it.
Such an entry is never dropped eagerly: it is unreachable, and it ages
out through :meth:`ResultCache.rebase_graph` or the LRU.

Every plan runs its algorithm's full window, so a full-window answer
holds every sub-window's: snapshot ``k`` of window ``(lo, hi)`` is
snapshot ``lo + k`` of the full window at the same epoch, bit for bit
(each snapshot's values are the from-scratch fixpoint on that
snapshot's graph, whichever union computed them).
:meth:`ResultCache.window_of` is the one place that slices, used by the
service's plan completion and by :meth:`ResultCache.get`'s containment
lookup.
"""

from __future__ import annotations

import threading

from repro.experiments.runner import LRUCache
from repro.service.request import QueryRequest, SnapshotSummary

__all__ = ["ResultCache"]


class ResultCache:
    """Thread-safe LRU of per-query snapshot summaries."""

    def __init__(self, maxsize: int = 512) -> None:
        self._lru = LRUCache(maxsize)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(
        request: QueryRequest,
        epoch: int,
        lineage: int = 0,
        window: tuple[int, int] | None = None,
    ) -> tuple:
        """``compat_key(epoch) + (lineage, window, source)``; the
        full-window key by default."""
        source = int(request.source)
        return request.compat_key(epoch) + (lineage, window, source)

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
        """The query's own entry, else its window sliced from the
        full-window entry at ``(lineage, epoch)`` (containment)."""
        window = request.window
        with self._lock:
            k = self.key(request, epoch, lineage, window)
            if k in self._lru:
                self.hits += 1
                return self._lru[k]
            k = self.key(request, epoch, lineage)
            if window is not None and k in self._lru:
                self.hits += 1
                return self.window_of(self._lru[k], window)
            self.misses += 1
            return None

    def put(
        self,
        request: QueryRequest,
        epoch: int,
        summaries: list[SnapshotSummary],
        full: list[SnapshotSummary] | None = None,
        lineage: int = 0,
    ) -> None:
        """Store the query's answer under its own key and, for a
        sub-window query, ``full`` (the answer it was sliced from) under
        the full-window key, both at ``(lineage, epoch)``."""
        with self._lock:
            key = self.key(request, epoch, lineage, request.window)
            self._lru[key] = summaries
            if full is not None and request.window is not None:
                self._lru[self.key(request, epoch, lineage)] = full

    def rebase_graph(self, graph: str, new_epoch: int) -> tuple[int, int]:
        """Re-key entries across a window slide instead of dropping them.

        Under sliding-window serving every ingest advances the window by
        one snapshot, so the scenario at the previous epoch restricted to
        window ``(lo, hi)`` is bit-identical to window ``(lo-1, hi-1)``
        at ``new_epoch`` (summaries store window-relative snapshot
        indices, which do not move).  Entries from the previous epoch
        whose shifted window still exists (``lo >= 1``) are re-keyed in
        their own lineage; everything else for ``graph`` — full-window
        results, windows pinned at snapshot 0, older epochs — is dropped.
        Returns ``(rebased, dropped)``.
        """
        with self._lock:
            rebased = dropped = 0
            for k in [k for k in self._lru.keys() if k[0] == graph]:
                # key(): compat_key(epoch) + (lineage, window, source)
                g, algo, mode, epoch, lineage, window, source = k
                movable = (
                    epoch == new_epoch - 1
                    and window is not None
                    and window[0] >= 1
                )
                summaries = self._lru.pop(k)
                if movable:
                    shifted = (window[0] - 1, window[1] - 1)
                    new_key = k[:3] + (new_epoch, lineage, shifted, source)
                    self._lru[new_key] = summaries
                    rebased += 1
                else:
                    dropped += 1
            return rebased, dropped

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
