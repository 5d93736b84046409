"""Fig. 2 — the high cost of deletions in JetStream.

For every graph and algorithm, process one batch of edge additions and one
equally-sized batch of edge deletions on the JetStream model, starting from
converged results.  The paper's point: deletions are several times more
expensive, which is what CommonGraph's deletion-free execution removes.
"""

from __future__ import annotations

from repro.accel.config import jetstream_config
from repro.accel.simulate import simulate_plan
from repro.algorithms import get_algorithm
from repro.evolving.batches import BatchId, BatchKind
from repro.experiments.runner import (
    ALGOS,
    GRAPHS,
    ExperimentResult,
    default_scale,
    scenario_cache,
)
from repro.schedule.plan import ApplyEdges, DeleteEdges, EvalFull, Plan

__all__ = ["run"]


def _single_batch_plan(unified, kind: BatchKind) -> Plan:
    """Evaluate on snapshot 0, then process exactly one batch."""
    plan = Plan(name=f"one-{kind.value}", n_states=1, initial_graph="snapshot0")
    plan.steps.append(EvalFull(0, label="eval-G0"))
    batch = BatchId(kind, 0)
    idx = unified.batch_edges(batch)
    if kind is BatchKind.ADDITION:
        plan.steps.append(ApplyEdges((0,), idx, (batch,), label=str(batch)))
    else:
        plan.steps.append(DeleteEdges(0, idx, (batch,), label=str(batch)))
    return plan


def run(scale: str | None = None) -> ExperimentResult:
    scale = scale or default_scale()
    result = ExperimentResult(
        "Fig. 2",
        "addition vs deletion batch cost on JetStream (ms)",
        ["algorithm", "graph", "add_ms", "del_ms", "del/add"],
    )
    for algo_name in ALGOS:
        for graph in GRAPHS:
            scenario = scenario_cache(graph, scale)
            algo = get_algorithm(algo_name)
            times = {}
            for kind in (BatchKind.ADDITION, BatchKind.DELETION):
                plan = _single_batch_plan(scenario.unified, kind)
                report, __ = simulate_plan(
                    scenario, algo, plan, jetstream_config(), concurrent=False
                )
                times[kind] = report.update_time_ms
            ratio = (
                times[BatchKind.DELETION] / times[BatchKind.ADDITION]
                if times[BatchKind.ADDITION]
                else float("inf")
            )
            result.add(
                algo_name,
                graph,
                times[BatchKind.ADDITION],
                times[BatchKind.DELETION],
                ratio,
            )
    result.notes.append(
        "paper: deletions are substantially more expensive than additions "
        "across all algorithms and graphs"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run())
