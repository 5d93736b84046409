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

With ``Q`` query sources (the multi-query extension,
:mod:`repro.core.multi_query`) each query owns a chain and its peeled
snapshots, and every batch step targets the states of all queries, so a
batch is fetched once for the whole ``(query, snapshot)`` matrix.
"""

from __future__ import annotations

from repro.evolving.batches import BatchId, BatchKind
from repro.evolving.unified_csr import UnifiedCSR
from repro.schedule.plan import ApplyEdges, CopyState, EvalFull, MarkSnapshot, Plan

__all__ = ["boe_plan"]


def boe_plan(unified: UnifiedCSR, sources: list[int] | None = None) -> Plan:
    """Algorithm 1: the offline BOE schedule for ``N`` snapshots and one
    query per source (``None``: one query from the scenario's source).

    State layout: query ``q`` owns states ``q*N .. q*N + N-1``; state
    ``q*N`` is its shared chain (ends as snapshot 0), state ``q*N + k``
    (``1 <= k <= N-1``) is snapshot ``k`` once peeled off.  Only the
    ``EvalFull`` steps name the sources: the rest of the schedule depends
    on the union and ``Q`` alone, so it is built once per union and ``Q``
    and shared (the plan's ``key`` says so to the executor).
    """
    if sources is not None and not sources:
        raise ValueError("need at least one query source")
    roots = [None] if sources is None else list(sources)
    n = unified.n_snapshots
    q_count = len(roots)
    key = ("boe", q_count)
    evals = [
        EvalFull(q * n, label="eval-Gc" if sources is None else f"eval-Gc-q{q}",
                 source=root)
        for q, root in enumerate(roots)
    ]
    return Plan(
        name="boe" if sources is None else f"boe-multiquery[{q_count}]",
        n_states=q_count * n,
        steps=evals + unified.memo(key, lambda: _shared_steps(unified, q_count)),
        initial_graph="common",
        key=key,
    )


def _shared_steps(unified: UnifiedCSR, q_count: int) -> list:
    """The batch and mark steps of a ``q_count``-query BOE plan."""
    n = unified.n_snapshots
    chains = [q * n for q in range(q_count)]
    steps: list = []
    for i in range(n - 2, -1, -1):
        # Peel snapshot i+1 off each shared chain before this stage's
        # addition batch diverges it from snapshots <= i.
        steps += [CopyState(chain, chain + i + 1) for chain in chains]

        add_id = BatchId(BatchKind.ADDITION, i)
        targets = tuple(chain + k for chain in chains for k in range(i + 1, n))
        steps.append(ApplyEdges(
            targets, unified.batch_edges(add_id), (add_id,),
            label=f"boe-{add_id}", stage=i,
        ))

        del_id = BatchId(BatchKind.DELETION, i)
        steps.append(ApplyEdges(
            tuple(chains), unified.batch_edges(del_id), (del_id,),
            label=f"boe-{del_id}", stage=i,
        ))

    steps += [
        MarkSnapshot(chain + k, chain + k) for chain in chains for k in range(n)
    ]
    return steps
