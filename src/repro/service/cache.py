"""LRU result cache with ingest-driven invalidation.

Keys include the graph's *epoch* (how many delta batches have been
ingested), so a result computed before an ingest can never satisfy a query
admitted after it.  :meth:`ResultCache.invalidate_graph` additionally drops
the now-stale entries eagerly so the LRU capacity is not wasted carrying
results no future query can hit.

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
        window: tuple[int, int] | None = None,
    ) -> tuple:
        """``compat_key(epoch) + (window, source)``; the full-window key
        by default."""
        return request.compat_key(epoch) + (window, int(request.source))

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
        self, request: QueryRequest, epoch: int
    ) -> list[SnapshotSummary] | None:
        """The query's own entry, else its window sliced from the
        full-window entry at ``epoch`` (containment)."""
        window = request.window
        with self._lock:
            k = self.key(request, epoch, window)
            if k in self._lru:
                self.hits += 1
                return self._lru[k]
            k = self.key(request, epoch)
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
    ) -> None:
        """Store the query's answer under its own key and, for a
        sub-window query, ``full`` (the answer it was sliced from) under
        the full-window key."""
        with self._lock:
            self._lru[self.key(request, epoch, request.window)] = summaries
            if full is not None and request.window is not None:
                self._lru[self.key(request, epoch)] = full

    def invalidate_graph(self, graph: str) -> int:
        """Eagerly drop every entry for ``graph`` (any epoch).

        Epoch-keyed entries could only go stale-but-resident; dropping
        them keeps the LRU full of hittable results.  Returns the number
        of entries removed.
        """
        with self._lock:
            stale = [k for k in self._lru.keys() if k[0] == graph]
            for k in stale:
                self._lru.pop(k)
            return len(stale)

    def rebase_graph(self, graph: str, new_epoch: int) -> tuple[int, int]:
        """Re-key entries across a window slide instead of dropping them.

        Under sliding-window serving every ingest advances the window by
        one snapshot, so the scenario at the previous epoch restricted to
        window ``(lo, hi)`` is bit-identical to window ``(lo-1, hi-1)``
        at ``new_epoch`` (summaries store window-relative snapshot
        indices, which do not move).  Entries from the previous epoch
        whose shifted window still exists (``lo >= 1``) are re-keyed;
        everything else for ``graph`` — full-window results, windows
        pinned at snapshot 0, older epochs — is dropped.  Returns
        ``(rebased, dropped)``.
        """
        with self._lock:
            rebased = dropped = 0
            for k in [k for k in self._lru.keys() if k[0] == graph]:
                # key layout: compat_key(epoch) + (window, source), with
                # window None on a full-window entry — see key()
                g, algo, mode, epoch, window, source = k
                movable = (
                    epoch == new_epoch - 1
                    and window is not None
                    and window[0] >= 1
                )
                summaries = self._lru.pop(k)
                if movable:
                    shifted = (window[0] - 1, window[1] - 1)
                    new_key = (g, algo, mode, new_epoch, shifted, source)
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
