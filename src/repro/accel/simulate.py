"""End-to-end simulation: run a workflow plan and cost it on an accelerator.

``simulate_plan`` is the single entry point both accelerator frontends use:

1. execute the plan functionally (producing correct snapshot values and
   per-round traces);
2. derive the scheduler waves from the plan's stage structure;
3. replay the traces through the timing model.

The returned :class:`~repro.accel.stats.SimReport` carries the cycle count,
activity counters, and per-phase breakdown used by the paper's figures.
"""

from __future__ import annotations

from repro.accel.cache import EdgeCacheModel
from repro.accel.config import AcceleratorConfig
from repro.accel.memory import MemorySystem
from repro.accel.scheduler import Wave, WaveScheduler
from repro.accel.stats import SimReport
from repro.accel.timing import TimingModel
from repro.algorithms.base import Algorithm
from repro.engines.executor import PlanExecutor, WorkflowResult
from repro.engines.trace import ExecutionTrace
from repro.evolving.snapshots import EvolvingScenario
from repro.resilience.budget import Budget
from repro.schedule.plan import ApplyEdges, DeleteEdges, EvalFull, Plan

__all__ = ["simulate_plan", "build_waves", "config_for_scenario"]


def config_for_scenario(
    scenario: EvolvingScenario, base: AcceleratorConfig
) -> AcceleratorConfig:
    """Apply the scenario's proxy capacity scale to a configuration."""
    if base.capacity_scale is not None:
        return base
    scale = scenario.metadata.get("capacity_scale", 1.0)
    return base.scaled(float(scale))


def build_waves(
    plan: Plan,
    executions: list[ExecutionTrace],
    memory: MemorySystem,
    concurrent: bool,
) -> list[Wave]:
    """Group a plan's executions into scheduler waves.

    Steps sharing a ``stage`` value are mutually independent (Algorithm 1's
    ``parallel for``, Direct-Hop's hops, same-depth Work-Sharing hops) and
    form one wave; un-staged steps run alone.  With ``concurrent=False``
    (the JetStream baseline: one graph at a time) every execution is its
    own wave.
    """
    work_steps = [
        s
        for s in plan.steps
        if isinstance(s, (EvalFull, ApplyEdges, DeleteEdges))
    ]
    if len(work_steps) != len(executions):
        raise ValueError(
            f"plan has {len(work_steps)} work steps but the run produced "
            f"{len(executions)} executions"
        )

    groups: dict[object, list[tuple]] = {}
    order: list[object] = []
    for i, (step, e) in enumerate(zip(work_steps, executions)):
        stage = getattr(step, "stage", None)
        key = ("stage", stage) if (concurrent and stage is not None) else ("solo", i)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append((step, e))

    waves = []
    for key in order:
        members = groups[key]
        # All the wave's target versions are resident together (MEGA keeps
        # multiple active snapshots in the unified value array, §4.2);
        # the wave partitions the graph when they do not fit (Fig. 9).
        n_versions = sum(
            len(step.targets) if isinstance(step, ApplyEdges) else 1
            for step, __ in members
        )
        waves.append(
            Wave(
                executions=[e for __, e in members],
                partition=memory.partition_plan(n_versions),
                label=str(key[1]),
            )
        )
    return waves


def simulate_plan(
    scenario: EvolvingScenario,
    algorithm: Algorithm,
    plan: Plan,
    config: AcceleratorConfig,
    concurrent: bool,
    pipeline: bool = False,
    validate: bool = False,
    budget: Budget | None = None,
) -> tuple[SimReport, WorkflowResult]:
    """Execute a plan functionally and replay it on the modelled hardware.

    ``budget`` (optional) watchdogs the functional execution: total rounds,
    generated events, and wall clock, breached as a structured
    :class:`~repro.resilience.budget.BudgetExceeded`.
    """
    config = config_for_scenario(scenario, config)
    executor = PlanExecutor(
        scenario,
        algorithm,
        edges_per_block=config.edges_per_block,
        budget=budget,
        record_traces=True,
    )
    result = executor.run(plan)
    if validate:
        from repro.engines.validation import validate_workflow

        validate_workflow(scenario, algorithm, result)

    memory = MemorySystem(config, scenario.unified.graph)
    fwd_blocks = (
        scenario.unified.n_union_edges + config.edges_per_block - 1
    ) // config.edges_per_block
    # the transpose (CSC) arrays used by deletion repair occupy their own
    # block region above the forward CSR blocks
    cache = EdgeCacheModel(
        capacity_blocks=int(config.edge_cache_bytes // config.block_bytes),
        n_blocks=max(1, 2 * fwd_blocks + 1),
    )
    timing = TimingModel(config, memory, cache)
    scheduler = WaveScheduler(timing, pipeline=pipeline)
    waves = build_waves(plan, result.collector.executions, memory, concurrent)
    outcome = scheduler.run(waves)

    max_parts = max((w.partition.n_partitions for w in waves), default=1)
    report = SimReport(
        system=config.name,
        workflow=plan.name,
        cycles=outcome.cycles,
        counters=outcome.counters,
        n_partitions=max_parts,
        pipelined=pipeline,
        phase_cycles=outcome.phase_cycles,
        round_series=[
            e.events_per_round() for e in result.collector.executions
        ],
        wave_cycles=outcome.wave_cycles,
    )
    return report, result
