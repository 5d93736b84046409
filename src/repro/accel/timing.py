"""Cycle-approximate timing: replaying round traces against the datapath.

Each asynchronous round's latency is the maximum over the datapath's
parallel resources — PE event execution, event-generation streams, queue
bandwidth, NoC injection, and DRAM traffic — plus a fixed drain/refill
overhead between event waves.  This is the analytical stand-in for the
paper's SST cycle-accurate model (see the substitution table in DESIGN.md):
relative performance between workflows is governed by event counts, fetch
reuse and round structure, which the traces carry exactly.

Deletion events (JetStream only) pay an extra per-event factor for the
dependence-tree check and invalidation logic that MEGA removes from the
datapath ("we remove the expensive event deletion logic", §4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.accel.cache import EdgeCacheModel
from repro.accel.config import AcceleratorConfig
from repro.accel.dram import RowBufferDram
from repro.accel.memory import MemorySystem, PartitionPlan
from repro.accel.noc import CrossbarNoC
from repro.accel.prefetch import PrefetchModel
from repro.accel.stats import SimCounters
from repro.engines.trace import ROW_FIELDS, RoundTrace

__all__ = [
    "ROUND_KINDS",
    "ROUND_PLAIN",
    "ROUND_REPAIR",
    "ROUND_TAG",
    "RoundGroupCost",
    "TimingModel",
]

#: how the timing model treats a round phase: repair rounds read and
#: rebuild the dependence metadata, and tag rounds also pay the deletion
#: factor; every other phase is plain (KIND_* in _kernels.c)
ROUND_PLAIN, ROUND_REPAIR, ROUND_TAG = 0, 1, 2
ROUND_KINDS = {
    "del-tag": ROUND_TAG,
    "del-pull": ROUND_REPAIR,
    "del-recompute": ROUND_REPAIR,
}


@dataclass
class RoundGroupCost:
    """Cycle breakdown of one (possibly merged) round group."""

    pe: float
    queue: float
    noc: float
    dram: float
    overhead: float

    @property
    def total(self) -> float:
        return max(self.pe, self.queue, self.noc, self.dram) + self.overhead


class TimingModel:
    """Costs round groups and accumulates simulation counters."""

    def __init__(
        self,
        config: AcceleratorConfig,
        memory: MemorySystem,
        cache: EdgeCacheModel,
    ) -> None:
        self.config = config
        self.memory = memory
        self.cache = cache
        self.noc = CrossbarNoC(config)
        self.prefetch = PrefetchModel(config)
        self.dram_model = RowBufferDram(config) if config.detailed_dram else None

    def round_group_cost(
        self,
        rounds: list[tuple[RoundTrace, PartitionPlan]],
        counters: SimCounters,
    ) -> RoundGroupCost:
        """Cost of concurrently executing one round from several streams.

        Resources are shared: event/edge work sums across the streams, and
        the group pays a single drain overhead — this is exactly why
        concurrent snapshots and batch pipelining help.  The one-group
        formula that :meth:`group_cost` applies to trace rows.
        """
        return self.group_cost(
            [
                (
                    r.phase,
                    [getattr(r, name) for name in ROW_FIELDS[:-1]]
                    + [r.edge_blocks.size],
                    r.edge_blocks,
                )
                for r, __ in rounds
            ],
            counters,
        )

    def group_cost(
        self,
        group: list[tuple[str, Sequence[int], np.ndarray]],
        counters: SimCounters,
    ) -> RoundGroupCost:
        """:meth:`round_group_cost` over ``(round phase, trace row, edge
        blocks)`` triples, the row in the :data:`ROW_FIELDS` layout (a
        round reads its popped plus generated events' vertices).  The
        Python reference of the compiled replay kernel, which repeats it
        operation for operation."""
        cfg = self.config
        pe_events = 0.0
        gen_events = 0.0
        queue_ops = 0.0
        messages = 0.0
        dram_bytes = 0.0
        raw_events = 0.0  # un-factored, for prefetch lookahead

        for phase, row, blocks in group:
            (events_popped, events_generated, fetched, writes,
             version_popped, version_generated) = row[:6]
            kind = ROUND_KINDS.get(phase, ROUND_PLAIN)
            factor = cfg.deletion_event_factor if kind == ROUND_TAG else 1.0
            if cfg.row_wide_versions:
                popped, generated = events_popped, events_generated
            else:
                popped, generated = version_popped, version_generated
            pe_events += popped * factor
            gen_events += generated * factor
            queue_ops += popped + generated
            messages += generated
            raw_events += popped
            hit_mask = self.cache.access_blocks(blocks)
            hits = int(hit_mask.sum())
            misses = int(hit_mask.size - hits)
            counters.edge_block_hits += hits
            counters.edge_block_misses += misses
            dram_bytes += misses * cfg.block_bytes
            if self.dram_model is not None and misses:
                # row-buffer-aware service time for the missed blocks; the
                # bandwidth term below still covers non-block traffic
                detailed_cycles = self.dram_model.access_round(
                    blocks[~hit_mask]
                )
                dram_bytes += max(
                    0.0,
                    detailed_cycles * cfg.dram_bytes_per_cycle
                    - misses * cfg.block_bytes,
                )
            if not cfg.row_wide_versions and events_generated:
                # without the unified value array, versions are not
                # co-scheduled per vertex and each re-fetches its edges:
                # scale miss traffic by the average version multiplicity
                dup = version_generated / events_generated
                dram_bytes += misses * cfg.block_bytes * max(0.0, dup - 1.0)
            if kind != ROUND_PLAIN:
                # KickStarter-style repair consults and rebuilds the
                # per-vertex dependence (approximation) metadata for every
                # event of the repair — off-chip state at real graph sizes.
                meta = events_generated * cfg.dependence_bytes
                dram_bytes += meta

            counters.events_popped += events_popped
            counters.events_generated += events_generated
            counters.edges_fetched += fetched
            counters.vertex_reads += events_popped + events_generated
            counters.vertex_writes += writes
            counters.rounds += 1

        counters.dram_bytes += dram_bytes
        pe = pe_events / cfg.n_pes + gen_events / cfg.generation_throughput_per_cycle
        queue = queue_ops / (cfg.n_queue_bins * cfg.queue_ports_per_bin)
        noc = self.noc.cycles(int(messages))
        dram = self.memory.dram_cycles(dram_bytes)
        if dram_bytes > 0:
            # the prefetchers (Fig. 12) hide DRAM latency behind compute
            # when enough events are queued ahead of the PEs
            dram += self.prefetch.latency_cycles(int(raw_events))
        return RoundGroupCost(
            pe=pe,
            queue=queue,
            noc=noc,
            dram=dram,
            overhead=cfg.round_overhead_cycles,
        )

    def kernel_config(self) -> tuple[np.ndarray, np.ndarray]:
        """The model's scalars as the replay kernel reads them: int64 and
        float64 arrays in the ``RI_*``/``RD_*`` layouts of ``_kernels.c``."""
        cfg = self.config
        dram = self.dram_model
        ints = [
            cfg.n_pes,
            cfg.generation_throughput_per_cycle,
            cfg.n_queue_bins * cfg.queue_ports_per_bin,
            self.noc.ports,
            cfg.block_bytes,
            cfg.dram_latency_cycles,
            cfg.round_overhead_cycles,
            cfg.dependence_bytes,
            cfg.event_bytes,
            self.prefetch.saturation_events,
            cfg.row_wide_versions,
            self.cache.capacity_blocks,
            dram is not None,
            1 if dram is None else dram.blocks_per_row,
            1 if dram is None else dram.n_banks,
            max(1, cfg.dram_channels),
        ]
        doubles = [
            cfg.deletion_event_factor,
            cfg.dram_bytes_per_cycle,
            self.memory.config.dram_bytes_per_cycle,
            self.prefetch.max_coverage,
            0.0 if dram is None else dram.t_burst,
            0.0 if dram is None else dram.t_row_miss,
        ]
        return (
            np.array(ints, dtype=np.int64),
            np.array(doubles, dtype=np.float64),
        )

    def execution_spill_cycles(
        self,
        touched_dst_count: int,
        part: PartitionPlan,
        counters: SimCounters,
    ) -> float:
        """Partition spill traffic for one batch execution (Fig. 9).

        Events destined to inactive partitions spill to in-memory bins and
        replay at activation.  The bins coalesce per queue cell — at most
        one live event per vertex row — so traffic is bounded by the
        execution's unique destination rows, each paying a spill write,
        a replay read, and the destination's value-row access.
        """
        if part.n_partitions <= 1 or touched_dst_count == 0:
            return 0.0
        cfg = self.config
        # spill write + replay read; the replayed event's value row is
        # on-chip by construction (its partition is active at replay time)
        spill = touched_dst_count * part.cross_fraction * (
            2.0 * cfg.event_bytes
        )
        counters.spill_bytes += spill
        counters.dram_bytes += spill
        return self.memory.dram_cycles(spill)

    def partition_sweep_cycles(
        self, part: PartitionPlan, counters: SimCounters
    ) -> float:
        """Per-wave cost of sweeping the partitions (Fig. 9 scheduling).

        Only value rows that are actually touched move on/off chip (dirty
        write-back), and that traffic is charged per spilled event in
        :meth:`round_group_cost`; the sweep itself pays an activation
        latency per partition switch and flushes the edge cache.
        """
        if part.n_partitions <= 1:
            return 0.0
        self.cache.flush()
        switch_bytes = part.n_partitions * self.config.block_bytes
        counters.partition_switch_bytes += switch_bytes
        return part.n_partitions * (
            self.config.dram_latency_cycles + self.config.round_overhead_cycles
        )
