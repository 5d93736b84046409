"""Budgets, watchdogs, retry taxonomy, checkpoint/resume, degradation."""

import json

import numpy as np
import pytest

from repro.accel.eventsim import EventLevelSimulator
from repro.algorithms import SSSP, get_algorithm
from repro.engines import MultiVersionEngine, PlanExecutor
from repro.evolving.unified_csr import UnifiedCSR
from repro.experiments.runner import ExperimentResult, LRUCache
from repro.graph.csr import CSRGraph
from repro.resilience import (
    Budget,
    BudgetExceeded,
    FatalError,
    RunCheckpoint,
    TransientError,
    retry_with_backoff,
)
from repro.schedule import boe_plan


def make_static(graph: CSRGraph) -> UnifiedCSR:
    none = np.full(graph.n_edges, -1, dtype=np.int32)
    return UnifiedCSR(graph, none, none.copy(), 1)


def chain_graph(n: int) -> CSRGraph:
    """A long path 0 -> 1 -> ... -> n-1: one frontier hop per round, so an
    under-provisioned round budget must trip before convergence."""
    return CSRGraph.from_tuples(n, [(i, i + 1, 1.0) for i in range(n - 1)])


# -- budgets and watchdogs ----------------------------------------------------


def test_eventsim_round_budget_terminates_adversarial_run():
    g = chain_graph(200)
    sim = EventLevelSimulator(SSSP(), make_static(g))
    sim.set_graph(0, np.ones(g.n_edges, dtype=bool))
    sim.set_source(0)
    with pytest.raises(BudgetExceeded) as exc_info:
        sim.run(budget=Budget(max_rounds=10))
    exc = exc_info.value
    assert exc.resource == "rounds"
    assert exc.limit == 10
    assert exc.spent > exc.limit
    # partial stats survive the breach for diagnosis
    assert exc.stats is not None and exc.stats.rounds == 10


def test_eventsim_event_budget():
    g = chain_graph(100)
    sim = EventLevelSimulator(SSSP(), make_static(g))
    sim.set_graph(0, np.ones(g.n_edges, dtype=bool))
    sim.set_source(0)
    with pytest.raises(BudgetExceeded, match="event budget"):
        sim.run(budget=Budget(max_events=5))


def test_eventsim_legacy_max_rounds_still_raises_runtimeerror():
    g = chain_graph(50)
    sim = EventLevelSimulator(SSSP(), make_static(g))
    sim.set_graph(0, np.ones(g.n_edges, dtype=bool))
    sim.set_source(0)
    with pytest.raises(RuntimeError):
        sim.run(max_rounds=2)


def test_eventsim_unbudgeted_run_unaffected():
    g = chain_graph(30)
    sim = EventLevelSimulator(SSSP(), make_static(g))
    sim.set_graph(0, np.ones(g.n_edges, dtype=bool))
    sim.set_source(0)
    values = sim.run()
    assert np.allclose(values[0], np.arange(30, dtype=float))


def test_wall_clock_deadline_uses_injected_clock():
    now = [0.0]
    clock = lambda: now[0]  # noqa: E731
    meter = Budget(wall_clock_s=5.0).start(clock=clock)
    meter.charge(rounds=1)
    now[0] = 5.5
    with pytest.raises(BudgetExceeded) as exc_info:
        meter.charge(rounds=1)
    assert exc_info.value.resource == "wall_clock"
    assert exc_info.value.spent == pytest.approx(5.5)


def test_engine_budget_caps_propagation():
    g = chain_graph(300)
    engine = MultiVersionEngine(
        SSSP(), make_static(g), budget=Budget(max_rounds=20)
    )
    with pytest.raises(BudgetExceeded) as exc_info:
        engine.evaluate_full(np.ones(g.n_edges, dtype=bool), 0)
    assert exc_info.value.resource == "rounds"


def test_executor_budget_flows_to_engine(tiny_scenario):
    with pytest.raises(BudgetExceeded):
        PlanExecutor(
            tiny_scenario, get_algorithm("sssp"), budget=Budget(max_rounds=1)
        ).run(boe_plan(tiny_scenario.unified))


# -- retry taxonomy -----------------------------------------------------------


def test_retry_recovers_from_transient_failures():
    sleeps = []
    calls = []

    def flaky():
        calls.append(1)
        if len(calls) < 3:
            raise TransientError("hiccup")
        return "ok"

    assert (
        retry_with_backoff(
            flaky, retries=3, base_delay=0.5, sleep=sleeps.append
        )
        == "ok"
    )
    assert len(calls) == 3
    assert sleeps == [0.5, 1.0]  # exponential backoff


def test_retry_gives_up_after_budgeted_attempts():
    sleeps = []

    def always():
        raise TransientError("still down")

    with pytest.raises(TransientError):
        retry_with_backoff(always, retries=2, sleep=sleeps.append)
    assert len(sleeps) == 2


@pytest.mark.parametrize(
    "error",
    [
        FatalError("deterministic"),
        BudgetExceeded("deadline", resource="rounds", limit=1, spent=2),
        ValueError("not in the transient set"),
    ],
    ids=["fatal", "budget", "other"],
)
def test_retry_propagates_non_transient_immediately(error):
    calls = []

    def doomed():
        calls.append(1)
        raise error

    with pytest.raises(type(error)):
        retry_with_backoff(doomed, retries=5, sleep=lambda s: None)
    assert len(calls) == 1


# -- checkpoint/resume --------------------------------------------------------


def sample_result(name: str = "fig99") -> ExperimentResult:
    r = ExperimentResult(
        name=name,
        title="A made-up figure",
        headers=["graph", "speedup"],
        notes=["synthetic"],
    )
    r.add("PK", 2.5)
    r.add("LJ", np.float64(3.25))  # numpy scalars must serialize too
    return r


def test_checkpoint_round_trip(tmp_path):
    ckpt = RunCheckpoint(tmp_path / "run")
    assert not ckpt.has_result("fig99")
    ckpt.save_result("fig99", sample_result())
    assert ckpt.has_result("fig99")
    loaded = ckpt.load_result("fig99")
    assert loaded.name == "fig99"
    assert loaded.headers == ["graph", "speedup"]
    assert loaded.rows == [["PK", 2.5], ["LJ", 3.25]]
    assert loaded.notes == ["synthetic"]
    assert loaded.format_table() == sample_result().format_table()
    assert ckpt.completed() == ["fig99"]
    assert not list((tmp_path / "run").rglob("*.tmp"))  # atomic writes


def test_checkpoint_failures_cleared_by_success(tmp_path):
    ckpt = RunCheckpoint(tmp_path)
    ckpt.record_failure("fig99", ValueError("boom"), 1.234)
    failures = ckpt.failures()
    assert failures["fig99"]["error_type"] == "ValueError"
    assert failures["fig99"]["message"] == "boom"
    assert failures["fig99"]["elapsed_s"] == pytest.approx(1.234)
    ckpt.save_result("fig99", sample_result())  # success supersedes failure
    assert ckpt.failures() == {}


def test_checkpoint_sanitizes_names(tmp_path):
    ckpt = RunCheckpoint(tmp_path)
    path = ckpt.save_result("../evil name", sample_result())
    assert path.parent == ckpt.results_dir
    assert "/" not in path.stem and " " not in path.stem


def test_checkpoint_manifest_and_summary(tmp_path):
    ckpt = RunCheckpoint(tmp_path)
    ckpt.write_manifest(experiment="all", scale="tiny")
    assert ckpt.manifest() == {"experiment": "all", "scale": "tiny"}
    ckpt.write_summary({"a": "ok", "b": "failed", "c": "restored"})
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["n_ok"] == 2 and summary["n_failed"] == 1


# -- bounded harness caches ---------------------------------------------------


def test_lru_cache_bounds_and_recency():
    cache = LRUCache(2)
    cache["a"] = 1
    cache["b"] = 2
    assert cache["a"] == 1  # refresh "a"; "b" is now the oldest
    assert cache.coldest() == ("b", 2)
    cache["c"] = 3
    assert "b" not in cache and "a" in cache and "c" in cache
    assert len(cache) == 2
    cache.clear()
    assert len(cache) == 0
    with pytest.raises(ValueError):
        LRUCache(0)


def test_clear_caches_resets_harness_state():
    from repro.experiments import runner

    runner.scenario_cache("PK", "tiny", n_snapshots=4)
    assert len(runner._scenarios) > 0
    runner.clear_caches()
    assert len(runner._scenarios) == 0 and len(runner._reports) == 0


# -- CLI: validation, sweep isolation, resume ---------------------------------


def test_cli_rejects_unknown_graph(capsys):
    from repro.cli import main

    assert main(["simulate", "--graph", "NOPE"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "PK" in err


def test_cli_rejects_unknown_algo(capsys):
    from repro.cli import main

    assert main(["faults", "--algo", "nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown algorithm" in err and "SSSP" in err


def test_cli_rejects_unknown_fault_point(capsys):
    from repro.cli import main

    assert main(["faults", "--points", "bogus"]) == 2
    assert "unknown fault point" in capsys.readouterr().err


def test_cli_faults_campaign_smoke(capsys):
    from repro.cli import main

    rc = main(
        [
            "faults",
            "--scale",
            "tiny",
            "--snapshots",
            "3",
            "--points",
            "eventsim.drop-event",
            "executor.bitflip-value",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "fault campaign" in out
    assert "escaped 0" in out


def fake_sweep(monkeypatch, experiments):
    """Install a tiny fake experiment registry for sweep tests."""
    import repro.cli
    import repro.experiments

    monkeypatch.setattr(repro.experiments, "ALL_EXPERIMENTS", experiments)
    monkeypatch.setattr(repro.cli, "ALL_EXPERIMENTS", experiments)


def test_run_all_keeps_going_and_records_failures(tmp_path, monkeypatch, capsys):
    from repro.cli import main

    def bad(scale=None):
        raise FatalError("rigged to fail")

    fake_sweep(
        monkeypatch,
        {
            "good": lambda scale=None: sample_result("good"),
            "bad": bad,
            "also-good": lambda scale=None: sample_result("also-good"),
        },
    )
    rc = main(["run", "all", "--scale", "tiny", "--run-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 1  # a failure surfaces in the exit code...
    assert "also-good" in captured.out  # ...but the sweep kept going
    assert "rigged to fail" in captured.err
    ckpt = RunCheckpoint(tmp_path)
    assert ckpt.completed() == ["also-good", "good"]
    assert ckpt.failures()["bad"]["error_type"] == "FatalError"


def test_run_all_no_keep_going_stops_at_first_failure(
    tmp_path, monkeypatch, capsys
):
    from repro.cli import main

    calls = []

    def bad(scale=None):
        raise FatalError("rigged")

    fake_sweep(
        monkeypatch,
        {
            "bad": bad,
            "later": lambda scale=None: calls.append(1) or sample_result(),
        },
    )
    rc = main(
        [
            "run", "all", "--scale", "tiny", "--no-keep-going",
            "--run-dir", str(tmp_path),
        ]
    )
    capsys.readouterr()
    assert rc == 1
    assert calls == []  # fail-fast: "later" never ran


def test_run_all_resume_skips_completed(tmp_path, monkeypatch, capsys):
    from repro.cli import main

    counts = {"a": 0, "b": 0}

    def make(name):
        def run(scale=None):
            counts[name] += 1
            return sample_result(name)

        return run

    fake_sweep(monkeypatch, {"a": make("a"), "b": make("b")})
    assert main(
        ["run", "all", "--scale", "tiny", "--run-dir", str(tmp_path)]
    ) == 0
    first = capsys.readouterr().out
    assert counts == {"a": 1, "b": 1}

    # simulate a killed sweep: one result missing, then resume
    RunCheckpoint(tmp_path).result_path("b").unlink()
    assert main(
        [
            "run", "all", "--scale", "tiny", "--resume",
            "--run-dir", str(tmp_path),
        ]
    ) == 0
    second = capsys.readouterr().out
    assert counts == {"a": 1, "b": 2}  # only the missing one reran
    assert "restored from checkpoint" in second
    # the resumed sweep renders the same tables as the uninterrupted one
    strip = lambda s: [  # noqa: E731
        line for line in s.splitlines() if not line.startswith("[")
    ]
    assert strip(second) == strip(first)


# -- graceful degradation in the report ---------------------------------------


def test_report_degrades_past_failing_experiment(monkeypatch):
    import repro.experiments.report as report_mod

    experiments = {
        name: (
            (lambda scale=None: (_ for _ in ()).throw(ValueError("dead")))
            if name == "table4"
            else (lambda name=name: lambda scale=None: sample_result(name))()
        )
        for name in report_mod._ORDER
    }
    monkeypatch.setattr(report_mod, "ALL_EXPERIMENTS", experiments)
    text = report_mod.build_report(scale="tiny")
    assert "## table4 — FAILED" in text
    assert "ValueError: dead" in text
    assert "Degraded report" in text
    assert text.count("A made-up figure") == len(report_mod._ORDER) - 1
    with pytest.raises(ValueError):
        report_mod.build_report(scale="tiny", keep_going=False)
