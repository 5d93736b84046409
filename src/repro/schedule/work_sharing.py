"""The Work-Sharing workflow (paper Fig. 1c).

Walk the triangular grid: recursively bisect the snapshot window, hopping
from each intermediate common graph to the common graphs of its two halves,
sharing each hop's incremental computation among all snapshots below it.
Applied-edge totals land at roughly twice the streaming count (Fig. 3), in
exchange for eliminating deletions entirely.
"""

from __future__ import annotations

from repro.evolving.batches import BatchId, BatchKind
from repro.evolving.triangular_grid import GridNode, TriangularGrid
from repro.evolving.unified_csr import UnifiedCSR
from repro.schedule.plan import ApplyEdges, CopyState, EvalFull, MarkSnapshot, Plan

__all__ = ["work_sharing_plan", "hop_batch_ids"]


def hop_batch_ids(parent: GridNode, child: GridNode, n_snapshots: int) -> tuple[BatchId, ...]:
    """Logical batches applied when hopping from parent ICG to child ICG.

    Narrowing ``[lo, hi]`` to the left half adds the deletion batches
    ``Δ-_j`` for ``j in [child.hi, parent.hi - 1]`` (edges that are deleted
    later than the child's window, hence common to it); narrowing to the
    right half adds the addition batches ``Δ+_j`` for
    ``j in [parent.lo, child.lo - 1]``.
    """
    if child.lo == parent.lo:  # left child: extra deletion batches
        return tuple(
            BatchId(BatchKind.DELETION, j)
            for j in range(parent.hi - 1, child.hi - 1, -1)
        )
    return tuple(
        BatchId(BatchKind.ADDITION, j) for j in range(parent.lo, child.lo)
    )


def work_sharing_plan(unified: UnifiedCSR) -> Plan:
    """Depth-first triangular-grid plan with one state per grid node."""
    grid = TriangularGrid(unified)
    plan = Plan(name="work-sharing", n_states=0, initial_graph="common")

    state_of: dict[int, int] = {}

    def state_for(node: GridNode) -> int:
        key = id(node)
        if key not in state_of:
            state_of[key] = len(state_of)
        return state_of[key]

    root_state = state_for(grid.root)
    plan.steps.append(EvalFull(root_state, label="eval-Gc"))
    if grid.root.is_leaf:
        plan.steps.append(MarkSnapshot(root_state, grid.root.snapshot))

    def visit(node: GridNode, depth: int = 1) -> None:
        for child in node.children:
            child_state = state_for(child)
            plan.steps.append(CopyState(state_for(node), child_state))
            batch_ids = hop_batch_ids(node, child, unified.n_snapshots)
            # Each hop is a chain of per-batch incremental updates
            # (Fig. 1c's "Δ-_{i+2} + Δ-_{i+1}" labels).  The two sibling
            # hops under one grid node are independent and share a
            # scheduler wave position by position; positions within a hop
            # are ordered (they chain through the same state).
            for pos, batch_id in enumerate(batch_ids):
                edge_idx = unified.batch_edges(batch_id)
                plan.steps.append(
                    ApplyEdges(
                        (child_state,),
                        edge_idx,
                        (batch_id,),
                        label=f"ws-hop[{child.lo},{child.hi}]-{batch_id}",
                        stage=(node.lo, node.hi, pos),
                    )
                )
            if child.is_leaf:
                plan.steps.append(MarkSnapshot(child_state, child.snapshot))
            else:
                visit(child, depth + 1)

    visit(grid.root)
    plan.n_states = len(state_of)
    return plan
