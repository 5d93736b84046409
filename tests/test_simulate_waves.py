"""Unit tests for wave construction and the simulate entry point."""

import pytest

from repro.accel import SimCounters, SimReport, mega_config
from repro.accel.memory import MemorySystem
from repro.accel.simulate import build_waves, config_for_scenario, simulate_plan
from repro.algorithms import get_algorithm
from repro.engines import PlanExecutor
from repro.schedule import (
    boe_plan,
    direct_hop_plan,
    streaming_plan,
    work_sharing_plan,
)

from repro.workloads import load_scenario


@pytest.fixture(scope="module")
def scenario():
    return load_scenario("PK", "tiny", n_snapshots=6)


def run_and_waves(scenario, plan, concurrent, capacity_scale=1.0):
    result = PlanExecutor(
        scenario, get_algorithm("sssp"), record_traces=True
    ).run(plan)
    memory = MemorySystem(
        mega_config(capacity_scale=capacity_scale), scenario.unified.graph
    )
    return build_waves(plan, result.collector.executions, memory, concurrent)


def test_jetstream_waves_are_sequential(scenario):
    plan = streaming_plan(scenario.unified)
    waves = run_and_waves(scenario, plan, concurrent=False)
    assert all(len(w.executions) == 1 for w in waves)
    # eval + (add + del) per transition
    assert len(waves) == 1 + 2 * (scenario.n_snapshots - 1)


def test_boe_waves_pair_add_and_del(scenario):
    plan = boe_plan(scenario.unified)
    waves = run_and_waves(scenario, plan, concurrent=True)
    # one eval wave + one wave per Algorithm 1 stage
    stage_waves = waves[1:]
    assert len(stage_waves) == scenario.n_snapshots - 1
    assert all(len(w.executions) == 2 for w in stage_waves)


def test_direct_hop_waves_group_chain_positions(scenario):
    plan = direct_hop_plan(scenario.unified)
    waves = run_and_waves(scenario, plan, concurrent=True)
    # position 1 of every snapshot chain shares the first staged wave
    first_staged = waves[1]
    assert len(first_staged.executions) > 1


def test_work_sharing_waves_pair_siblings(scenario):
    plan = work_sharing_plan(scenario.unified)
    waves = run_and_waves(scenario, plan, concurrent=True)
    staged = [w for w in waves if len(w.executions) == 2]
    assert staged  # sibling hops share waves position by position


def test_concurrent_false_splits_everything(scenario):
    plan = boe_plan(scenario.unified)
    waves = run_and_waves(scenario, plan, concurrent=False)
    assert all(len(w.executions) == 1 for w in waves)


def test_wave_partition_counts_total_targets(scenario):
    plan = boe_plan(scenario.unified)
    # shrink capacity so multi-version waves partition
    scale = scenario.n_vertices / 4_000_000
    waves = run_and_waves(scenario, plan, True, capacity_scale=scale)
    multi = [
        w
        for w in waves
        if sum(len(e.targets) for e in w.executions) > 4
    ]
    assert multi
    assert any(w.partition.n_partitions > 1 for w in multi)


def test_config_for_scenario_uses_metadata(scenario):
    cfg = config_for_scenario(scenario, mega_config())
    assert cfg.capacity_scale == pytest.approx(
        scenario.metadata["capacity_scale"]
    )
    explicit = mega_config(capacity_scale=0.5)
    assert config_for_scenario(scenario, explicit).capacity_scale == 0.5


def test_simulate_plan_returns_consistent_report(scenario):
    algo = get_algorithm("bfs")
    plan = boe_plan(scenario.unified)
    report, result = simulate_plan(
        scenario, algo, plan, mega_config(), concurrent=True
    )
    assert isinstance(report, SimReport)
    assert isinstance(report.counters, SimCounters)
    assert report.workflow == "boe"
    assert len(result.snapshot_values) == scenario.n_snapshots
    assert report.cycles >= report.update_cycles > 0
    assert len(report.round_series) == len(result.collector.executions)


def test_simulate_plan_validate_flag(scenario):
    algo = get_algorithm("sssp")
    plan = boe_plan(scenario.unified)
    # must not raise with validation on
    simulate_plan(
        scenario, algo, plan, mega_config(), concurrent=True, validate=True
    )


def test_sim_counters_merge():
    a = SimCounters(events_popped=1, dram_bytes=10.0)
    b = SimCounters(events_popped=2, dram_bytes=5.0, rounds=3)
    a.merge(b)
    assert a.events_popped == 3
    assert a.dram_bytes == 15.0
    assert a.rounds == 3


def test_sim_report_speedup_math():
    fast = SimReport("x", "boe", cycles=100.0, counters=SimCounters())
    slow = SimReport("y", "stream", cycles=400.0, counters=SimCounters())
    assert fast.speedup_over(slow) == pytest.approx(4.0)
    assert slow.speedup_over(fast) == pytest.approx(0.25)


def test_sim_report_update_excludes_full_phase():
    r = SimReport(
        "x",
        "boe",
        cycles=100.0,
        counters=SimCounters(),
        phase_cycles={"full": 30.0, "add": 70.0},
    )
    assert r.initial_eval_cycles == 30.0
    assert r.update_cycles == 70.0
    assert r.update_time_ms == pytest.approx(70e-6)


def test_sim_report_detailed_and_dict(scenario):
    from repro.accel import MegaSimulator

    report = MegaSimulator("boe").run(scenario, get_algorithm("sssp"))
    text = report.detailed()
    assert "DRAM" in text and "rounds" in text and "phase cycles" in text
    payload = report.to_dict()
    assert payload["workflow"] == "boe"
    assert payload["counters"]["events_generated"] > 0
    assert payload["update_cycles"] <= payload["cycles"]


def test_wave_cycles_cover_total(scenario):
    from repro.accel import JetStreamSimulator

    report = JetStreamSimulator().run(scenario, get_algorithm("sssp"))
    assert report.wave_cycles
    total = sum(c for __, c in report.wave_cycles)
    assert total == pytest.approx(report.cycles, rel=1e-9)
