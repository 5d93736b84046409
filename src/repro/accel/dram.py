"""Detailed DRAM timing: a row-buffer-aware DRAMSim2 stand-in.

The default memory model charges pure bandwidth (bytes / peak B-per-cycle)
plus a prefetch-covered latency per round — adequate for the paper's
relative results, which the event counts dominate.  For studies where
access *pattern* matters, this module estimates per-round efficiency from
the block-id stream the traces carry:

* blocks map to DRAM rows (``row_bytes`` per row, interleaved across
  ``n_banks`` banks);
* consecutive accesses to the same row of a bank hit the row buffer and
  stream at full bandwidth; a row change pays precharge + activate;
* the effective bytes-per-cycle follows from the hit/miss mix.

Enable with ``AcceleratorConfig(detailed_dram=True)``; the
``test_ablation_dram_model`` benchmark quantifies the difference.
"""

from __future__ import annotations

import numpy as np

from repro.accel.config import AcceleratorConfig

__all__ = ["RowBufferDram"]


class RowBufferDram:
    """Analytical row-buffer model over per-round unique block streams."""

    def __init__(
        self,
        config: AcceleratorConfig,
        row_bytes: int = 2048,
        n_banks: int = 16,
        t_burst: float = 1.0,
        t_row_miss: float = 12.0,
    ) -> None:
        self.config = config
        self.blocks_per_row = max(1, row_bytes // config.block_bytes)
        self.n_banks = n_banks
        self.t_burst = t_burst
        self.t_row_miss = t_row_miss
        #: open row per bank (-1 = none); the replay kernel reads and
        #: writes it in place
        self.open_rows = np.full(n_banks, -1, dtype=np.int64)
        self.row_hits = 0
        self.row_misses = 0

    def access_round(self, blocks: np.ndarray) -> float:
        """Cycles to fetch one round's unique blocks (64B each).

        The memory controller reorders within a round (FR-FCFS), so the
        model services blocks in sorted order — adjacent block ids in the
        same row become row hits.
        """
        if blocks.size == 0:
            return 0.0
        blocks = np.sort(np.asarray(blocks, dtype=np.int64))
        rows = blocks // self.blocks_per_row
        banks = rows % self.n_banks

        cycles = 0.0
        for row, bank in zip(rows, banks):
            if self.open_rows[bank] == row:
                self.row_hits += 1
                cycles += self.t_burst
            else:
                self.row_misses += 1
                self.open_rows[bank] = row
                cycles += self.t_row_miss + self.t_burst
        # the channels run in parallel; normalize by channel count
        return cycles / max(1, self.config.dram_channels)

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0
