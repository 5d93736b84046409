"""Edge-cache model: block-granular LRU via stack-distance approximation.

The per-PE edge caches (1 KB each in Table 3) capture reuse of out-edge
blocks across rounds.  Simulating a precise LRU per access would dominate
the simulator's runtime, so we use the standard stack-distance
approximation: an access hits iff fewer than ``capacity_blocks`` *distinct*
blocks were referenced since the block's previous access.  Accesses arrive
as per-round batches of unique block ids (one fetch per block per round —
within-round sharing across versions is already coalesced by the engine).
"""

from __future__ import annotations

import numpy as np

__all__ = ["EdgeCacheModel"]


class EdgeCacheModel:
    """Approximate-LRU cache over edge blocks."""

    def __init__(self, capacity_blocks: int, n_blocks: int) -> None:
        if capacity_blocks < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity_blocks = int(capacity_blocks)
        self.n_blocks = int(n_blocks)
        # value of the distinct-access counter at each block's last access;
        # -inf (well, a very negative number) = never accessed.  The
        # replay kernel reads and writes the stamps and the counter.
        self.stamp = np.full(n_blocks, -(2**62), dtype=np.int64)
        self.distinct_accesses = 0
        self.hits = 0
        self.misses = 0

    def access_round(self, blocks: np.ndarray) -> tuple[int, int]:
        """Access a round's unique blocks; returns ``(hits, misses)``."""
        hit_mask = self.access_blocks(blocks)
        hits = int(hit_mask.sum())
        return hits, int(hit_mask.size - hits)

    def access_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Access a round's unique blocks; returns which of them hit."""
        if blocks.size == 0:
            return np.zeros(0, dtype=bool)
        blocks = np.asarray(blocks, dtype=np.int64)
        age = self.distinct_accesses - self.stamp[blocks]
        hit_mask = age <= self.capacity_blocks
        hits = int(hit_mask.sum())
        # stamp all accessed blocks at the current position; advance the
        # distinct counter by the number of blocks touched this round.
        self.stamp[blocks] = self.distinct_accesses + blocks.size
        self.distinct_accesses += blocks.size
        self.hits += hits
        self.misses += int(blocks.size - hits)
        return hit_mask

    def flush(self) -> None:
        """Invalidate everything (partition switch / new graph)."""
        self.stamp.fill(-(2**62))

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
