"""Memory-system model: on-chip capacity, partitioning, DRAM traffic.

Models the paper's §3.2 partitioning behaviour: the 64 MB on-chip eDRAM
holds the event-queue cells and vertex values of every *active* snapshot
version; when that state exceeds capacity the graph is split into vertex
partitions (Fig. 9), events crossing into inactive partitions spill to
DRAM, and partition activations stream vertex/queue state on and off chip.
DRAM time is bandwidth-dominated (DRAMSim2 stand-in): bytes divided by the
aggregate channel bandwidth, plus a per-round latency charge applied by
the timing model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accel.config import AcceleratorConfig
from repro.graph.csr import CSRGraph

__all__ = ["PartitionPlan", "MemorySystem"]


@dataclass(frozen=True)
class PartitionPlan:
    """Partitioning decision for a given number of active versions."""

    n_partitions: int
    state_bytes: float
    #: DRAM bytes to save+restore state across one full partition sweep
    sweep_bytes: float
    #: fraction of generated events whose destination lies in another
    #: partition and must spill to DRAM
    cross_fraction: float


class MemorySystem:
    """On-chip capacity accounting plus DRAM bandwidth model."""

    def __init__(self, config: AcceleratorConfig, union_graph: CSRGraph) -> None:
        self.config = config
        self.graph = union_graph
        self.n_vertices = union_graph.n_vertices

    # -- partitioning --------------------------------------------------------

    def state_bytes(self, n_versions: int) -> float:
        """On-chip bytes needed for ``n_versions`` resident snapshots.

        Each (vertex, version) pair needs a value slot (the direct-mapped
        queue cells of Fig. 13 share the same direct-mapped layout and are
        only live for active events, so the value array dominates — this
        matches the paper's LiveJournal example: 16 snapshots of a 4M-vertex
        graph against 64 MB yields four partitions).
        """
        return float(self.n_vertices * max(1, n_versions) * self.config.value_bytes)

    def n_partitions(self, n_versions: int) -> int:
        state = self.state_bytes(n_versions)
        capacity = max(1.0, self.config.onchip_bytes)
        return max(1, min(int(np.ceil(state / capacity)), self.n_vertices))

    def partition_plan(self, n_versions: int) -> PartitionPlan:
        state = self.state_bytes(n_versions)
        n_parts = self.n_partitions(n_versions)
        if n_parts == 1:
            return PartitionPlan(1, state, 0.0, 0.0)
        # One sweep = activate every partition once: stream its vertex
        # values + queue cells in and the previous partition's out.
        return PartitionPlan(
            n_parts,
            state,
            2.0 * state,
            self.graph.partition_cross_fraction(n_parts),
        )

    # -- DRAM timing -----------------------------------------------------------

    def dram_cycles(self, total_bytes: float) -> float:
        return total_bytes / self.config.dram_bytes_per_cycle
