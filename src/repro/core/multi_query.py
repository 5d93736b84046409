"""Multi-query Batch-Oriented-Execution (extension).

The related-work section contrasts MEGA with systems that evaluate multiple
*queries* concurrently on a single graph (Krill, GraphM, Glign); MEGA is
the first to exploit parallelism across *snapshots*.  The two compose: the
unified value array generalizes from one row per snapshot to one row per
``(query, snapshot)`` pair, so one addition batch is fetched **once** and
its incremental computation is shared across every query *and* every
snapshot that needs it.

Queries must share the algorithm (the PE's edge function is fixed per run,
Table 1) but each has its own source vertex — e.g. shortest paths from
many depots over the whole history in one pass.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import Algorithm
from repro.engines.executor import PlanExecutor, WorkflowResult
from repro.evolving.batches import BatchId, BatchKind
from repro.evolving.snapshots import EvolvingScenario
from repro.evolving.unified_csr import UnifiedCSR
from repro.schedule.plan import ApplyEdges, CopyState, EvalFull, MarkSnapshot, Plan

__all__ = ["multi_query_boe_plan", "MultiQueryResult", "evaluate_multi_query"]


def multi_query_boe_plan(unified: UnifiedCSR, sources: list[int]) -> Plan:
    """Algorithm 1 generalized to ``Q`` concurrent sources.

    State layout: query ``q`` owns states ``q*N .. q*N + N-1`` with the
    same chain/peel structure as the single-query BOE plan; every batch
    step carries the targets of *all* queries so the executor fetches the
    batch once for the whole ``(query, snapshot)`` matrix.  Only the
    ``Q`` ``EvalFull`` steps name the sources: the rest of the schedule
    depends on the union and ``Q`` alone, so it is built once per union
    and ``Q`` and shared (the plan's ``key`` says so to the executor).
    """
    if not sources:
        raise ValueError("need at least one query source")
    n = unified.n_snapshots
    q_count = len(sources)
    key = ("boe-multiquery", q_count)
    shared = unified.memo(key, lambda: _shared_steps(unified, q_count))
    return Plan(
        name=f"boe-multiquery[{q_count}]",
        n_states=q_count * n,
        steps=[
            EvalFull(q * n, label=f"eval-Gc-q{q}", source=source)
            for q, source in enumerate(sources)
        ] + shared,
        initial_graph="common",
        key=key,
    )


def _shared_steps(unified: UnifiedCSR, q_count: int) -> list:
    """The batch and mark steps of a ``q_count``-source BOE plan."""
    n = unified.n_snapshots
    steps: list = []

    def state(q: int, k: int) -> int:
        return q * n + k

    for i in range(n - 2, -1, -1):
        for q in range(q_count):
            steps.append(CopyState(state(q, 0), state(q, i + 1)))

        add_id = BatchId(BatchKind.ADDITION, i)
        add_idx = unified.batch_edges(add_id)
        add_targets = tuple(
            state(q, k) for q in range(q_count) for k in range(i + 1, n)
        )
        steps.append(
            ApplyEdges(
                add_targets, add_idx, (add_id,), label=f"mq-{add_id}", stage=i
            )
        )

        del_id = BatchId(BatchKind.DELETION, i)
        del_idx = unified.batch_edges(del_id)
        del_targets = tuple(state(q, 0) for q in range(q_count))
        steps.append(
            ApplyEdges(
                del_targets, del_idx, (del_id,), label=f"mq-{del_id}", stage=i
            )
        )

    steps += [
        MarkSnapshot(state(q, k), state(q, k))
        for q in range(q_count) for k in range(n)
    ]
    return steps


class MultiQueryResult:
    """Values per (query, snapshot), plus the underlying traces."""

    def __init__(
        self, n_snapshots: int, sources: list[int], raw: WorkflowResult
    ) -> None:
        self.n_snapshots = n_snapshots
        self.sources = list(sources)
        self.raw = raw

    def values(self, query: int, snapshot: int) -> np.ndarray:
        if not 0 <= query < len(self.sources):
            raise IndexError(f"query {query} out of range")
        return self.raw.snapshot_values[query * self.n_snapshots + snapshot]

    def matrix(self) -> np.ndarray:
        """Every (query, snapshot) value row, query-major:
        ``(queries * n_snapshots, n)``."""
        rows = self.raw.snapshot_values
        return np.stack([rows[i] for i in range(len(rows))])

    @property
    def collector(self):
        return self.raw.collector


def evaluate_multi_query(
    scenario: EvolvingScenario,
    algorithm: Algorithm,
    sources: list[int],
    budget=None,
) -> MultiQueryResult:
    """Evaluate one algorithm from many sources over every snapshot.

    All queries share each batch's edge fetches (one multi-target step per
    batch), so the trace-level fetch cost is independent of the number of
    queries — the multi-query analogue of Fig. 5's ~98% reuse.

    ``budget`` (a :class:`repro.resilience.Budget`) watchdogs the run; the
    query service uses it so one pathological plan breaches loudly instead
    of stalling a worker.
    """
    plan = multi_query_boe_plan(scenario.unified, sources)
    result = PlanExecutor(scenario, algorithm, budget=budget).run(plan)
    return MultiQueryResult(scenario.n_snapshots, sources, result)


def simulate_multi_query(
    scenario: EvolvingScenario,
    algorithm: Algorithm,
    sources: list[int],
    config=None,
    pipeline: bool = True,
    budget=None,
):
    """Run the multi-query plan on the MEGA accelerator model.

    Returns ``(SimReport, MultiQueryResult)``.  The resident-version count
    is queries x snapshots, so partitioning pressure grows with the query
    count while batch fetches stay shared — the throughput trade the
    ``ext-multiquery`` experiment quantifies.
    """
    from repro.accel.config import mega_config
    from repro.accel.simulate import simulate_plan

    plan = multi_query_boe_plan(scenario.unified, sources)
    report, raw = simulate_plan(
        scenario,
        algorithm,
        plan,
        config if config is not None else mega_config(),
        concurrent=True,
        pipeline=pipeline,
        budget=budget,
    )
    return report, MultiQueryResult(scenario.n_snapshots, sources, raw)
