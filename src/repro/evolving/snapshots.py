"""Evolving-graph scenario synthesis.

The paper synthesizes 16 snapshots per input by "randomly creating batches
consisting of 1% of the edges (half additions and half deletions) to mimic
the evolution of the graph" (§5.1).  :func:`synthesize_scenario` reproduces
that workload generator, including the batch-size imbalance knob used by
Fig. 21, and packages the result as an :class:`EvolvingScenario` backed by
the unified CSR representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.evolving.batches import BatchId, BatchKind, EdgeBatch
from repro.evolving.unified_csr import UnifiedCSR
from repro.graph.csr import CSRGraph
from repro.graph.edges import EdgeList

__all__ = ["EvolvingScenario", "synthesize_scenario", "batch_sizes"]


@dataclass
class EvolvingScenario:
    """A full evolving-graph workload: unified CSR + query source.

    ``unified`` holds the union graph and snapshot tags; helper accessors
    delegate to it so client code can treat the scenario as the single
    entry point.
    """

    unified: UnifiedCSR
    source: int = 0
    name: str = "scenario"
    metadata: dict = field(default_factory=dict)

    @property
    def n_vertices(self) -> int:
        return self.unified.n_vertices

    @property
    def n_snapshots(self) -> int:
        return self.unified.n_snapshots

    def snapshot_graph(self, k: int) -> CSRGraph:
        return self.unified.snapshot_graph(k)

    def common_graph(self) -> CSRGraph:
        return self.unified.common_graph()

    def batch(self, batch_id: BatchId) -> EdgeBatch:
        return self.unified.batch(batch_id)

    def addition_batch(self, j: int) -> EdgeBatch:
        return self.unified.batch(BatchId(BatchKind.ADDITION, j))

    def deletion_batch(self, j: int) -> EdgeBatch:
        return self.unified.batch(BatchId(BatchKind.DELETION, j))

    def all_batches(self) -> list[EdgeBatch]:
        return self.unified.deletion_batches() + self.unified.addition_batches()


def batch_sizes(
    total: int, n_batches: int, imbalance: float, rng: np.random.Generator
) -> np.ndarray:
    """Split ``total`` edges into ``n_batches`` batch sizes.

    ``imbalance`` is the paper's Fig. 21 knob: the ratio between the largest
    and smallest batch.  ``1.0`` produces equal batches; larger values draw
    sizes uniformly between ``s`` and ``imbalance * s`` and rescale so the
    batches still sum to ``total``.
    """
    if n_batches <= 0:
        return np.zeros(0, dtype=np.int64)
    if imbalance < 1.0:
        raise ValueError("imbalance must be >= 1.0")
    if n_batches == 0:
        return np.zeros(0, dtype=np.int64)
    if imbalance == 1.0:
        raw = np.full(n_batches, total / n_batches)
    else:
        raw = rng.uniform(1.0, imbalance, size=n_batches)
        raw = raw * (total / raw.sum())
    sizes = np.floor(raw).astype(np.int64)
    # distribute the rounding remainder deterministically
    remainder = total - int(sizes.sum())
    sizes[:remainder] += 1
    return sizes


def synthesize_scenario(
    pool: EdgeList,
    n_snapshots: int = 16,
    batch_pct: float = 0.01,
    add_fraction: float = 0.5,
    imbalance: float = 1.0,
    source: int = 0,
    seed: int = 0,
    name: str = "scenario",
) -> EvolvingScenario:
    """Synthesize an evolving-graph scenario from an edge pool.

    The pool is split into three disjoint groups:

    * *future additions* — absent from ``G_0``, each assigned to one
      addition batch ``Δ+_j``;
    * *future deletions* — present in ``G_0``, each assigned to one
      deletion batch ``Δ-_j``;
    * *common edges* — present in every snapshot (the CommonGraph).

    Each transition batch moves ``batch_pct`` of the initial snapshot's
    edges, split ``add_fraction`` additions / ``1 - add_fraction``
    deletions, mirroring the paper's §5.1 workload.
    """
    if not 0 < batch_pct <= 0.5:
        raise ValueError("batch_pct must be in (0, 0.5]")
    if not 0.0 <= add_fraction <= 1.0:
        raise ValueError("add_fraction must be in [0, 1]")
    if n_snapshots < 1:
        raise ValueError("a scenario needs at least one snapshot")
    if not pool.has_unique_pairs():
        raise ValueError("edge pool must not contain duplicate (src, dst) pairs")

    rng = np.random.default_rng(seed)
    n_transitions = n_snapshots - 1
    m_pool = len(pool)

    # |E_0| satisfies: pool = E_0 + total additions; additions and deletions
    # are each a fraction of |E_0| per transition.
    add_share = batch_pct * add_fraction * n_transitions
    m_initial = int(round(m_pool / (1.0 + add_share)))
    per_batch = batch_pct * m_initial
    total_adds = int(round(per_batch * add_fraction * n_transitions))
    total_dels = int(round(per_batch * (1 - add_fraction) * n_transitions))
    if total_adds + total_dels > m_pool:
        raise ValueError("edge pool too small for the requested batches")

    perm = rng.permutation(m_pool)
    add_edges = perm[:total_adds]
    del_edges = perm[total_adds: total_adds + total_dels]

    add_step = np.full(m_pool, -1, dtype=np.int32)
    del_step = np.full(m_pool, -1, dtype=np.int32)

    add_sz = batch_sizes(total_adds, n_transitions, imbalance, rng)
    del_sz = batch_sizes(total_dels, n_transitions, imbalance, rng)
    add_step[add_edges] = np.repeat(np.arange(n_transitions, dtype=np.int32), add_sz)
    del_step[del_edges] = np.repeat(np.arange(n_transitions, dtype=np.int32), del_sz)

    # Build the union CSR: one sort of the pool carries the tags along.
    unified = UnifiedCSR.build(pool, add_step, del_step, n_snapshots)

    # Pick a source with nonzero out-degree in the CommonGraph so every
    # workflow starts from a meaningful query.
    if source == 0:
        common = unified.common_graph()
        degrees = np.diff(common.indptr)
        if degrees[0] == 0 and degrees.max() > 0:
            source = int(np.argmax(degrees))

    return EvolvingScenario(
        unified,
        source=source,
        name=name,
        metadata={
            "batch_pct": batch_pct,
            "add_fraction": add_fraction,
            "imbalance": imbalance,
            "seed": seed,
            "initial_edges": m_initial,
        },
    )
