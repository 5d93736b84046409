"""The paper's argument, end to end, on one workload.

Replays MEGA's narrative arc on a single proxy scenario:

  1. §2.2 motivation — deletions are expensive on a streaming accelerator
     (Fig. 2) and the CommonGraph workflows multiply operations (Fig. 3);
  2. the locality asymmetry that justifies Batch-Oriented-Execution
     (Figs. 4/5);
  3. the payoff — one Table 4 row: Direct-Hop, Work-Sharing, BOE and
     BOE+BP speedups over JetStream, all validated against ground truth;
  4. the price — Table 5's power/area overhead of the version machinery.

Run:  python examples/paper_walkthrough.py
"""

from repro.accel import PowerAreaModel, jetstream_config, mega_config
from repro.accel.simulate import simulate_plan
from repro.core import EvolvingGraphEngine
from repro.evolving.batches import BatchId, BatchKind
from repro.metrics import applied_edge_counts
from repro.schedule.plan import ApplyEdges, DeleteEdges, EvalFull, Plan
from repro.workloads import load_scenario


def step1_deletions(scenario, engine) -> None:
    print("1) Fig. 2 — why CommonGraph kills deletions")
    times = {}
    for kind in (BatchKind.ADDITION, BatchKind.DELETION):
        plan = Plan(name="one", n_states=1, initial_graph="snapshot0")
        plan.steps.append(EvalFull(0))
        batch = BatchId(kind, 0)
        idx = scenario.unified.batch_edges(batch)
        step = (
            ApplyEdges((0,), idx, (batch,))
            if kind is BatchKind.ADDITION
            else DeleteEdges(0, idx, (batch,))
        )
        plan.steps.append(step)
        report, __ = simulate_plan(
            scenario, engine.algorithm, plan, jetstream_config(), concurrent=False
        )
        times[kind.value] = report.update_time_ms * 1000
    print(
        f"   one batch on JetStream: additions {times['add']:.2f} us, "
        f"deletions {times['del']:.2f} us "
        f"({times['del'] / times['add']:.1f}x more expensive)\n"
    )


def step2_operation_counts(scenario) -> None:
    print("2) Fig. 3 — but deletion-free workflows repeat work")
    counts = applied_edge_counts(scenario)
    s = counts["streaming"]
    print(
        f"   edges applied: streaming {s}, work-sharing {counts['work-sharing']} "
        f"({counts['work-sharing'] / s:.1f}x), direct-hop {counts['direct-hop']} "
        f"({counts['direct-hop'] / s:.1f}x)\n"
    )


def step3_reuse(engine) -> None:
    print("3) Figs. 4/5 — the locality asymmetry BOE exploits")
    profile = engine.reuse_profile()
    print(
        f"   fetched-edge overlap: {profile['same_snapshot']:.1%} between "
        f"batches on one snapshot vs {profile['across_snapshots']:.1%} for "
        f"one batch across snapshots\n"
    )


def step4_speedups(engine) -> None:
    print("4) Table 4 — the payoff on the accelerator")
    reports = engine.compare_accelerators()
    js = reports["jetstream"]
    print(f"   JetStream streaming: {js.update_time_ms * 1000:.1f} us")
    for name in ("direct-hop", "work-sharing", "boe", "boe+bp"):
        r = reports[name]
        print(
            f"   MEGA {name:12s}: {r.speedup_over(js):4.2f}x "
            f"({r.n_partitions} partition(s))"
        )
    print()


def step5_cost() -> None:
    print("5) Table 5 — what the version machinery costs")
    model = PowerAreaModel(mega_config())
    total = model.total()
    over = model.overhead_over_jetstream()["Total"]
    print(
        f"   MEGA: {total.total_mw / 1000:.2f} W, {total.area_mm2:.0f} mm^2 "
        f"(+{over[0]:.1f}% power, +{over[1]:.1f}% area over JetStream)"
    )


def main() -> None:
    scenario = load_scenario("LJ", "small")
    engine = EvolvingGraphEngine(scenario, "sssp")
    print(
        f"workload: {scenario.name}, {scenario.n_vertices} vertices, "
        f"{scenario.unified.n_union_edges} union edges, "
        f"{scenario.n_snapshots} snapshots (SSSP)\n"
    )
    step1_deletions(scenario, engine)
    step2_operation_counts(scenario)
    step3_reuse(engine)
    step4_speedups(engine)
    step5_cost()


if __name__ == "__main__":
    main()
