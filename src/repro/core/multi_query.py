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

from typing import NamedTuple

import numpy as np

from repro.algorithms.base import Algorithm
from repro.engines.executor import PlanExecutor, WorkflowResult
from repro.evolving.snapshots import EvolvingScenario
from repro.schedule.boe import boe_plan

__all__ = [
    "MultiQueryResult",
    "MultiQuerySummary",
    "evaluate_multi_query",
    "summarize",
    "summarize_multi_query",
]


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
    plan = boe_plan(scenario.unified, sources)
    result = PlanExecutor(scenario, algorithm, budget=budget).run(plan)
    return MultiQueryResult(scenario.n_snapshots, sources, result)


def summarize(
    algorithm: Algorithm, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a ``(rows, n)`` value matrix: the vertices reached, and
    the sum of its finite values.

    The reference the worklist kernel's summaries equal bit for bit.
    Each row's finite values are compacted before the sum: numpy's
    pairwise sum groups by position, so zeros in place of the rest would
    not give the same checksum.
    """
    reached = algorithm.reached(values).sum(axis=1)
    checksum = np.array(
        [float(row[keep].sum()) for row, keep in
         zip(values, np.isfinite(values))],
        dtype=np.float64,
    )
    return reached, checksum


class MultiQuerySummary(NamedTuple):
    """Each (query, snapshot)'s summary: :func:`summarize`'s figures."""

    #: ``(queries, n_snapshots)`` vertices reached
    reached: np.ndarray
    #: ``(queries, n_snapshots)`` sums of the finite values
    checksum: np.ndarray
    #: the worklist kernel's pops and edge relaxations (0 on the round
    #: loop, which does not count them)
    worklist_pops: int
    edges_relaxed: int
    #: the plan ran on the round loop: the numpy tier, or a plan the
    #: worklist kernel refused
    round_loop: bool


def summarize_multi_query(
    scenario: EvolvingScenario,
    algorithm: Algorithm,
    sources: list[int],
    budget=None,
) -> MultiQuerySummary:
    """:func:`evaluate_multi_query`'s answer, summarised per (query,
    snapshot).

    On the compiled tier the whole plan — the common-graph evaluations,
    the batch applies and the summaries — is one worklist kernel call
    (:meth:`~repro.engines.executor.PlanExecutor.summarize`).  Where it
    does not run (the numpy tier, a NaN candidate, a pass past its pop
    ceiling) the plan runs on the round loop and :func:`summarize`
    summarises its values: the same figures, bit for bit.
    """
    n = scenario.n_snapshots
    executor = PlanExecutor(scenario, algorithm, budget=budget)
    plan = boe_plan(scenario.unified, sources)
    run = executor.summarize(plan)
    if run is not None:
        return MultiQuerySummary(
            run.reached.reshape(-1, n), run.checksum.reshape(-1, n),
            run.pops, run.edges_relaxed, False,
        )
    result = MultiQueryResult(n, sources, executor.run(plan))
    reached, checksum = summarize(algorithm, result.matrix())
    return MultiQuerySummary(
        reached.reshape(-1, n), checksum.reshape(-1, n), 0, 0, True
    )


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

    plan = boe_plan(scenario.unified, sources)
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
