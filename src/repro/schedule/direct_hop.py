"""The Direct-Hop workflow (paper Fig. 1b).

From the CommonGraph, hop to every snapshot directly by adding all of its
missing edges in one incremental step.  Deletion-free and embarrassingly
parallel across snapshots, but each hop repeats work other hops also do —
Fig. 3 shows ~``N/2`` times more applied additions than streaming.
"""

from __future__ import annotations

from repro.evolving.common_graph import batches_for_snapshot
from repro.evolving.unified_csr import UnifiedCSR
from repro.schedule.plan import ApplyEdges, CopyState, EvalFull, MarkSnapshot, Plan

__all__ = ["direct_hop_plan"]


def direct_hop_plan(unified: UnifiedCSR) -> Plan:
    """One shared CommonGraph evaluation, then one hop per snapshot."""
    n = unified.n_snapshots
    plan = Plan(name="direct-hop", n_states=n + 1, initial_graph="common")
    common_state = 0
    plan.steps.append(EvalFull(common_state, label="eval-Gc"))
    for k in range(n):
        state = k + 1
        plan.steps.append(CopyState(common_state, state))
        # Fig. 7(b): each snapshot's hop is a *chain* of per-batch
        # incremental updates from the CommonGraph results.  Chains for
        # different snapshots are mutually independent and may execute
        # concurrently on MEGA (stage groups per chain position).
        for pos, batch_id in enumerate(batches_for_snapshot(unified, k)):
            edge_idx = unified.batch_edges(batch_id)
            plan.steps.append(
                ApplyEdges(
                    (state,),
                    edge_idx,
                    (batch_id,),
                    label=f"hop-G{k}-{batch_id}",
                    stage=pos + 1,
                )
            )
        plan.steps.append(MarkSnapshot(state, k))
    return plan
