"""Batch-Oriented-Execution schedule generation (paper §3.1, Algorithm 1).

BOE processes one batch at a time and applies it to *every* snapshot that
needs it, simultaneously:

* stages run ``i = N-2 .. 0``; each stage handles the pair
  ``(Δ+_i, Δ-_i)`` (Algorithm 1's main loop);
* the deletion batch ``Δ-_i`` (an addition from the CommonGraph) is shared
  by snapshots ``0..i``, which at stage ``i`` are still *identical* — it is
  computed once on the shared chain state and the result is used by all of
  them (Algorithm 1 lines 18-23: one ``incremental-Query`` then copies);
* the addition batch ``Δ+_i`` targets snapshots ``i+1..N-1``, which have
  diverged — it is computed for each concurrently with shared edge fetches
  (Algorithm 1 lines 14-17, one multi-target ``ApplyEdges`` step).

Snapshot ``i+1`` "peels off" the shared chain at stage ``i``: it already
holds all its deletion batches (``j >= i+1``) and from now on only receives
addition batches.
"""

from __future__ import annotations

from repro.evolving.batches import BatchId, BatchKind
from repro.evolving.unified_csr import UnifiedCSR
from repro.schedule.plan import ApplyEdges, CopyState, EvalFull, MarkSnapshot, Plan

__all__ = ["boe_plan"]


def boe_plan(unified: UnifiedCSR) -> Plan:
    """Algorithm 1: the offline BOE schedule for ``N`` snapshots.

    State layout: state ``0`` is the shared chain (ends as snapshot 0);
    state ``k`` (``1 <= k <= N-1``) is snapshot ``k`` once peeled off.
    """
    n = unified.n_snapshots
    plan = Plan(name="boe", n_states=n, initial_graph="common")
    chain = 0
    plan.steps.append(EvalFull(chain, label="eval-Gc"))
    if n == 1:
        plan.steps.append(MarkSnapshot(chain, 0))
        return plan

    for i in range(n - 2, -1, -1):
        # Peel snapshot i+1 off the shared chain before this stage's
        # addition batch diverges it from snapshots <= i.
        plan.steps.append(CopyState(chain, i + 1))

        add_id = BatchId(BatchKind.ADDITION, i)
        add_idx = unified.batch_edges(add_id)
        targets = tuple(range(i + 1, n))
        plan.steps.append(
            ApplyEdges(targets, add_idx, (add_id,), label=f"boe-{add_id}", stage=i)
        )

        del_id = BatchId(BatchKind.DELETION, i)
        del_idx = unified.batch_edges(del_id)
        plan.steps.append(
            ApplyEdges((chain,), del_idx, (del_id,), label=f"boe-{del_id}", stage=i)
        )

    plan.steps.append(MarkSnapshot(chain, 0))
    for k in range(1, n):
        plan.steps.append(MarkSnapshot(k, k))
    return plan
