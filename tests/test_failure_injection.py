"""Failure injection: malformed inputs and corrupted state must be caught.

A reproduction's validation machinery is only trustworthy if it actually
fires; these tests corrupt values, traces, plans and inputs on purpose and
assert the library refuses or detects them rather than silently producing
wrong numbers.
"""

import numpy as np
import pytest

from repro.accel.simulate import build_waves
from repro.accel.memory import MemorySystem
from repro.accel.config import mega_config
from repro.algorithms import SSSP, get_algorithm
from repro.engines import (
    DeletionRepair,
    MultiVersionEngine,
    PlanExecutor,
    TraceCollector,
)
from repro.engines.validation import validate_workflow
from repro.evolving import synthesize_scenario
from repro.evolving.unified_csr import UnifiedCSR
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_edges
from repro.resilience import FAULT_POINTS
from repro.schedule import boe_plan, plan_for
from repro.schedule.plan import Plan


# -- corrupted results are detected ------------------------------------------


def test_validation_catches_single_vertex_corruption(tiny_scenario):
    algo = get_algorithm("sssp")
    result = PlanExecutor(tiny_scenario, algo).run(
        boe_plan(tiny_scenario.unified)
    )
    result.snapshot_values[0][5] *= 2.0 if np.isfinite(
        result.snapshot_values[0][5]
    ) else 1.0
    result.snapshot_values[0][5] += 1.0
    with pytest.raises(AssertionError, match="wrong on snapshot 0"):
        validate_workflow(tiny_scenario, algo, result)


def test_validation_catches_swapped_snapshots(tiny_scenario):
    algo = get_algorithm("sssp")
    result = PlanExecutor(tiny_scenario, algo).run(
        boe_plan(tiny_scenario.unified)
    )
    a = result.snapshot_values[0]
    b = result.snapshot_values[tiny_scenario.n_snapshots - 1]
    if np.allclose(a, b, equal_nan=True):
        pytest.skip("snapshots coincide for this seed")
    result.snapshot_values[0], result.snapshot_values[
        tiny_scenario.n_snapshots - 1
    ] = b, a
    with pytest.raises(AssertionError):
        validate_workflow(tiny_scenario, algo, result)


# -- malformed structural inputs ----------------------------------------------


def test_unified_rejects_wrong_tag_lengths():
    g = CSRGraph.from_tuples(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        UnifiedCSR(g, np.array([-1]), np.array([-1, -1]), 2)


def test_executor_rejects_unknown_step(tiny_scenario):
    class Rogue:
        pass

    plan = Plan(name="rogue", n_states=1)
    plan.steps.append(Rogue())
    with pytest.raises(TypeError):
        PlanExecutor(tiny_scenario, SSSP()).run(plan)


def test_build_waves_rejects_mismatched_executions(tiny_scenario):
    plan = plan_for("boe", tiny_scenario.unified)
    result = PlanExecutor(tiny_scenario, SSSP(), record_traces=True).run(plan)
    memory = MemorySystem(
        mega_config(capacity_scale=1.0), tiny_scenario.unified.graph
    )
    with pytest.raises(ValueError, match="work steps"):
        build_waves(
            plan, result.collector.executions[:-1], memory, concurrent=True
        )


def test_deletion_repair_rejects_live_presence():
    g = CSRGraph.from_edges(rmat_edges(16, 60, seed=1))
    none = np.full(g.n_edges, -1, dtype=np.int32)
    u = UnifiedCSR(g, none, none.copy(), 1)
    engine = MultiVersionEngine(SSSP(), u, track_parents=True)
    vals = engine.evaluate_full(
        np.ones(g.n_edges, dtype=bool), 0, parent_row=0
    )
    repair = DeletionRepair(engine)
    with pytest.raises(ValueError, match="presence_after"):
        repair.apply_deletions(
            vals, np.array([0]), np.ones(g.n_edges, dtype=bool), 0
        )


def test_collector_rejects_nested_and_orphan_usage():
    c = TraceCollector(4)
    c.begin("a", "add", (0,))
    with pytest.raises(RuntimeError):
        c.begin("b", "add", (0,))
    c.end()
    with pytest.raises(RuntimeError):
        c.end()
    from repro.engines.trace import TRACE_ROW

    with pytest.raises(RuntimeError):
        c.record(
            "add", 1, np.zeros((1, TRACE_ROW), dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )


# -- corrupted scenario construction -----------------------------------------------


def test_corrupted_plan_breaks_membership_reconstruction():
    """A plan whose batches are swapped no longer reconstructs the true
    snapshot membership — the structural invariant the plan tests enforce."""
    pool = rmat_edges(32, 200, seed=3)
    scenario = synthesize_scenario(pool, n_snapshots=3, batch_pct=0.05, seed=2)
    u = scenario.unified
    plan = plan_for("boe", u)
    from repro.schedule.plan import ApplyEdges, CopyState, EvalFull, MarkSnapshot

    adds = [s for s in plan.steps if isinstance(s, ApplyEdges)]
    adds[0].edge_idx, adds[-1].edge_idx = adds[-1].edge_idx, adds[0].edge_idx

    masks = {}
    mismatch = False
    for step in plan.steps:
        if isinstance(step, EvalFull):
            masks[step.state] = u.common_mask.copy()
        elif isinstance(step, CopyState):
            masks[step.dst] = masks[step.src].copy()
        elif isinstance(step, ApplyEdges):
            for t in step.targets:
                masks[t][step.edge_idx] = True
        elif isinstance(step, MarkSnapshot):
            if not np.array_equal(
                masks[step.state], u.presence_mask(step.snapshot)
            ):
                mismatch = True
    assert mismatch


# -- seeded fault campaign: every fault point fires, none escapes -------------


def test_fault_plan_counts_opportunities():
    from repro.resilience import FaultPlan, inject, maybe_fire

    plan = FaultPlan(["eventsim.drop-event"], seed=3, skip=2, max_fires=1)
    assert maybe_fire("eventsim.drop-event") is None  # nothing armed yet
    with inject(plan):
        fires = [maybe_fire("eventsim.drop-event") for __ in range(5)]
        assert maybe_fire("eventsim.duplicate-event") is None  # not armed
    assert [f is not None for f in fires] == [
        False, False, True, False, False  # skip=2, then the max_fires cap
    ]
    assert len(plan.fired) == 1
    assert plan.fired[0].detail["opportunity"] == 2
    assert maybe_fire("eventsim.drop-event") is None  # disarmed on exit


def test_fault_draws_do_not_depend_on_the_hash_seed():
    """A seeded fire picks the same victim in every process: str hashes
    are salted per interpreter, so the fire's RNG must not seed on them."""
    import os
    import pathlib
    import subprocess
    import sys

    import repro

    code = (
        "from repro.resilience import FaultPlan\n"
        "fire = FaultPlan(['executor.bitflip-value'], seed=3)"
        ".maybe_fire('executor.bitflip-value')\n"
        "print(int(fire.rng.integers(0, 2**30)))"
    )
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    draws = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        draws.append(int(proc.stdout))
    assert draws[0] == draws[1], draws


def test_inject_is_not_reentrant():
    from repro.resilience import FaultPlan, inject

    with inject(FaultPlan(["eventsim.drop-event"])):
        with pytest.raises(RuntimeError, match="already active"):
            with inject(FaultPlan(["eventsim.drop-event"])):
                pass  # pragma: no cover


def test_unknown_fault_point_rejected():
    from repro.resilience import FaultPlan
    from repro.resilience.campaign import run_trial

    with pytest.raises(KeyError, match="unknown fault point"):
        FaultPlan(["nonsense"])
    with pytest.raises(KeyError, match="unknown fault point"):
        run_trial(None, None, "nonsense")


@pytest.mark.parametrize("point", sorted(FAULT_POINTS))
def test_fault_point_fires_and_never_escapes(tiny_scenario, point):
    """Each registered fault point is injectable on the tiny workload, the
    fault is either detected (and then recovered) or provably masked, and
    nothing escapes."""
    from repro.resilience.campaign import run_trial

    outcome = run_trial(tiny_scenario, get_algorithm("sssp"), point, seed=1)
    assert outcome.injected, f"{point} never fired on the tiny workload"
    assert not outcome.escaped
    assert outcome.detected or outcome.masked
    if outcome.detected:
        assert outcome.recovered, f"{point} detected but not repaired"
    assert outcome.verdict in ("recovered", "detected-only", "masked")


def test_bitflip_corruption_detected_and_repaired(tiny_scenario):
    """The bit flip materially corrupts a snapshot; detect-and-recover
    repairs it by recomputing from the common graph."""
    from repro.resilience.campaign import run_trial

    outcome = run_trial(
        tiny_scenario, get_algorithm("sssp"), "executor.bitflip-value",
        seed=0, skip=0,
    )
    assert outcome.injected and outcome.detected and outcome.recovered
    assert outcome.detail.get("corrupted_snapshots")


def test_campaign_summary_counts(tiny_scenario):
    from repro.resilience.campaign import run_campaign

    campaign = run_campaign(tiny_scenario, get_algorithm("sssp"), seed=2)
    assert len(campaign.trials) >= 4
    assert campaign.injected == len(campaign.trials)
    assert campaign.escaped == 0
    assert campaign.detected + campaign.masked == campaign.injected
    line = campaign.summary_line()
    assert f"injected {campaign.injected}" in line
    assert "escaped 0" in line
    table = campaign.format_table()
    for trial in campaign.trials:
        assert trial.point in table


def test_campaign_is_deterministic(tiny_scenario):
    from repro.resilience.campaign import run_trial

    algo = get_algorithm("sssp")
    a = run_trial(tiny_scenario, algo, "executor.bitflip-value", seed=5)
    b = run_trial(tiny_scenario, algo, "executor.bitflip-value", seed=5)
    assert a.verdict == b.verdict
    assert {k: v for k, v in a.detail.items()} == b.detail


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_nan_weights_poison_visibly():
    """NaN edge weights surface as NaN values — poison stays visible
    instead of being silently replaced by a plausible number."""
    g = CSRGraph.from_tuples(3, [(0, 1, float("nan")), (1, 2, 1.0)])
    none = np.full(2, -1, dtype=np.int32)
    u = UnifiedCSR(g, none, none.copy(), 1)
    engine = MultiVersionEngine(SSSP(), u)
    vals = engine.evaluate_full(np.ones(2, dtype=bool), 0)
    assert np.isnan(vals[1])
