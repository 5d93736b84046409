"""The streaming workflow (KickStarter/JetStream baseline).

Evaluate the query on ``G_0`` from scratch, then stream batch pairs
``(Δ+_j, Δ-_j)`` snapshot by snapshot, incrementally repairing the results.
This is the sequential baseline MEGA's deletion-free workflows are measured
against (paper §2, Fig. 2 and Table 4 "JetStream Time").
"""

from __future__ import annotations

from repro.evolving.batches import BatchId, BatchKind
from repro.evolving.unified_csr import UnifiedCSR
from repro.schedule.plan import (
    ApplyEdges,
    DeleteEdges,
    EvalFull,
    MarkSnapshot,
    Plan,
)

__all__ = ["streaming_plan"]


def streaming_plan(unified: UnifiedCSR) -> Plan:
    """Sequential snapshot-by-snapshot plan with additions and deletions."""
    n = unified.n_snapshots
    plan = Plan(name="streaming", n_states=1, initial_graph="snapshot0")
    state = 0
    plan.steps.append(EvalFull(state, label="eval-G0"))
    plan.steps.append(MarkSnapshot(state, 0))
    for j in range(n - 1):
        add_id = BatchId(BatchKind.ADDITION, j)
        del_id = BatchId(BatchKind.DELETION, j)
        add_idx = unified.batch_edges(add_id)
        del_idx = unified.batch_edges(del_id)
        plan.steps.append(
            ApplyEdges((state,), add_idx, (add_id,), label=f"stream-{add_id}")
        )
        plan.steps.append(
            DeleteEdges(state, del_idx, (del_id,), label=f"stream-{del_id}")
        )
        plan.steps.append(MarkSnapshot(state, j + 1))
    return plan
