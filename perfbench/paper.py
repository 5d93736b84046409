"""Workload ``paper-table4``: every Table-4 simulation, in-process.

Six Table-2 proxies at ``small`` (16 snapshots, 1% batches) x five
algorithms x five systems (JetStream, MEGA Direct-Hop, Work-Sharing,
BOE, BOE+BP).  One simulator run is one op; a pass runs all 150 in a
fixed order.  Each pass draws its own batches from the run's seed, so a
run's cost averages over several draws rather than resting on one.  The simulators are called
directly: ``experiments.runner.simulate_all_workflows`` memoizes its
reports, so repeating it would time a dictionary lookup.

The ingest figures come from the engine-side counterpart of a service
ingest: one seeded delta batch (8 additions, 8 deletions) absorbed by
``WindowServer.advance`` for each graph and algorithm.

Correctness: every op's per-snapshot values must equal from-scratch
evaluation (``evaluate_reference``) bit for bit, and so must the latest
snapshot of every advanced window.  References are computed between
ops, outside the op timers.

A yardstick pass (``harness.Yardstick``) precedes every op and every
window advance, and ten precede each set-up; each time is returned with
its yardstick position, so it can be scaled by the host speed of the
moment it was taken.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from harness import SpanRecorder, Yardstick, digest, peak_rss_mb

GRAPHS = ("PK", "LJ", "OR", "DL", "UK", "Wen")
ALGOS = ("BFS", "SSSP", "SSWP", "SSNP", "Viterbi")
SCALE = "small"
#: window advances timed per (graph, algorithm) in the ingest phase
ADVANCES = 4
#: set-ups per run; ``setup_s`` is their median
SETUP_REPS = 3
#: yardstick passes before each set-up (one precedes every op)
YARDSTICK_PASSES = 10


def _systems():
    from repro.accel import JetStreamSimulator, MegaSimulator

    return (
        ("jetstream", JetStreamSimulator()),
        ("direct-hop", MegaSimulator("direct-hop")),
        ("work-sharing", MegaSimulator("work-sharing")),
        ("boe", MegaSimulator("boe")),
        ("boe+bp", MegaSimulator("boe", pipeline=True)),
    )


def load(seed: int, pass_index: int = 0) -> dict:
    """The six scenarios of one pass of a run with ``seed``."""
    from repro.workloads import load_scenario

    batch_seed = seed * 1_000 + pass_index
    return {g: load_scenario(g, SCALE, seed=batch_seed) for g in GRAPHS}


class _References:
    """From-scratch values per (graph, algorithm, snapshot), memoized."""

    def __init__(self, scenarios: dict) -> None:
        self.scenarios = scenarios
        self._values: dict = {}

    def get(self, graph: str, algo: str, snapshot: int) -> np.ndarray:
        from repro.algorithms import get_algorithm
        from repro.engines.validation import evaluate_reference

        key = (graph, algo, snapshot)
        if key not in self._values:
            self._values[key] = evaluate_reference(
                self.scenarios[graph], get_algorithm(algo), snapshot
            )
        return self._values[key]

    def matches(self, graph: str, algo: str, result) -> bool:
        n = self.scenarios[graph].n_snapshots
        return all(
            np.array_equal(
                result.values(k), self.get(graph, algo, k), equal_nan=True
            )
            for k in range(n)
        )


def setup(seed: int, ys: Yardstick) -> tuple[tuple, dict, bool]:
    """Time scenario synthesis plus a first answer per algorithm.

    Returns ``((setup_seconds, positions), scenarios,
    first_answers_correct)``; the scenarios are the first pass's.
    """
    from repro.accel import MegaSimulator
    from repro.algorithms import get_algorithm

    times, positions = [], []
    for __ in range(SETUP_REPS):
        ys.sample(YARDSTICK_PASSES)
        positions.append(ys.position())
        t0 = time.perf_counter()
        scenarios = load(seed)
        first = {
            a: MegaSimulator("boe").run_with_values(
                scenarios["PK"], get_algorithm(a)
            )[1]
            for a in ALGOS
        }
        times.append(time.perf_counter() - t0)
    refs = _References(scenarios)
    ok = all(refs.matches("PK", a, first[a]) for a in ALGOS)
    return (times, positions), scenarios, ok


def _trace_layers(rec: SpanRecorder) -> None:
    """Wrap the public entry points of each layer the simulations cross."""
    import repro.accel.jetstream as jetstream
    import repro.accel.mega as mega
    import repro.engines.daic as daic
    import repro.perf.backend as backend
    from repro.accel.scheduler import WaveScheduler
    from repro.engines.executor import PlanExecutor

    rec.wrap(PlanExecutor, "run", "engines.run")
    rec.wrap(WaveScheduler, "run", "accel.replay")
    rec.wrap(mega, "plan_for", "schedule.plan")
    rec.wrap(jetstream, "streaming_plan", "schedule.plan")
    active = backend.get_backend()
    kernels = {"group_argbest": rec.timed(active.group_argbest, "perf.argbest")}
    if active.presence_gather is not None:
        kernels["presence_gather"] = rec.timed(
            active.presence_gather, "perf.gather"
        )
    if active.daic_round is not None:
        kernels["daic_round"] = rec.timed(active.daic_round, "perf.round")
    wrapped = dataclasses.replace(active, **kernels)
    # the engine binds get_backend at import; UnifiedCSR resolves it lazily
    rec.patch(daic, "get_backend", lambda: wrapped)
    rec.patch(backend, "get_backend", lambda: wrapped)


def _passes(scenario_sets: list[dict], ys: Yardstick) -> dict:
    """One timed Table-4 pass per scenario set; each op is checked after
    its timer and preceded by a yardstick pass."""
    from repro.algorithms import get_algorithm

    systems = _systems()
    op_ms: list[float] = []
    op_pos: list[int] = []
    cycles: list[float] = []
    rounds = edges = failed = 0
    for scenarios in scenario_sets:
        refs = _References(scenarios)
        for g in GRAPHS:
            for a in ALGOS:
                algo = get_algorithm(a)
                for __, sim in systems:
                    ys.sample()
                    op_pos.append(ys.position())
                    t0 = time.perf_counter()
                    report, result = sim.run_with_values(scenarios[g], algo)
                    op_ms.append((time.perf_counter() - t0) * 1e3)
                    if not refs.matches(g, a, result):
                        failed += 1
                    cycles.append(report.cycles)
                    rounds += report.counters.rounds
                    edges += report.counters.edges_fetched
    return {
        "op_ms": op_ms,
        "op_pos": op_pos,
        "attempted": len(op_ms),
        "failed": failed,
        "counters": {
            "accel.cycles": int(sum(cycles)),
            "accel.cycles_digest": digest(cycles),
            "engines.rounds": int(rounds),
            "engines.edges_relaxed": int(edges),
        },
    }


def _ingests(scenarios: dict, seed: int, ys: Yardstick) -> dict:
    """Seeded window advances; the latest snapshot of each is checked."""
    from repro.algorithms import get_algorithm
    from repro.core.window_server import WindowServer
    from repro.engines.validation import evaluate_reference
    from repro.service.ingest import synthesize_delta

    ingest_ms: list[float] = []
    ingest_pos: list[int] = []
    failed = 0
    for gi, g in enumerate(GRAPHS):
        n_vertices = scenarios[g].n_vertices
        for ai, a in enumerate(ALGOS):
            algo = get_algorithm(a)
            server = WindowServer(scenarios[g], algo)
            for i in range(ADVANCES):
                delta = synthesize_delta(
                    server.scenario, seed=seed * 1_000 + gi * 100 + ai * 10 + i
                )
                adds, dels = delta.additions(n_vertices), delta.deletions()
                ys.sample()
                ingest_pos.append(ys.position())
                t0 = time.perf_counter()
                server.advance(adds, dels)
                ingest_ms.append((time.perf_counter() - t0) * 1e3)
            latest = server.n_snapshots - 1
            expected = evaluate_reference(server.scenario, algo, latest)
            if not np.array_equal(server.values(latest), expected, equal_nan=True):
                failed += 1
    return {
        "ingest_ms": ingest_ms,
        "ingest_pos": ingest_pos,
        "attempted": len(GRAPHS) * len(ALGOS),
        "failed": failed,
    }


def measure(
    scenario_sets: list[dict],
    seed: int,
    traced: bool,
    ys: Yardstick,
    ingests: bool = True,
) -> dict:
    """A Table-4 pass per scenario set, then (``ingests``) the ingest
    phase on the first set.

    Traced runs wrap the layers for the passes only, and sample every
    engine round with the existing round profiler.
    """
    from repro.obs.profile import profiled

    rec = SpanRecorder()
    if traced:
        _trace_layers(rec)
        try:
            with profiled(1) as prof:
                out = _passes(scenario_sets, ys)
        finally:
            rec.restore()
        out["layers"] = _layers(rec, prof.snapshot()["sections"], out["attempted"])
    else:
        out = _passes(scenario_sets, ys)
    out["ops_per_s"] = len(out["op_ms"]) / (sum(out["op_ms"]) / 1e3)
    out["peak_rss_mb"] = peak_rss_mb()
    if not ingests:
        return out
    ingest = _ingests(scenario_sets[0], seed, ys)
    out["ingest_ms"] = ingest["ingest_ms"]
    out["ingest_pos"] = ingest["ingest_pos"]
    out["attempted"] += ingest["attempted"]
    out["failed"] += ingest["failed"]
    return out


def _layers(rec: SpanRecorder, profile: dict, n_ops: int) -> dict:
    def section_ms(*names: str) -> float:
        total = sum(profile.get(n, {}).get("total_s", 0.0) for n in names)
        return total * 1e3 / n_ops

    return {
        "engines.run_ms": rec.self_ms("engines.run") / n_ops,
        "perf.argbest_ms": rec.total_ms("perf.argbest") / n_ops,
        "perf.argbest_calls": rec.calls("perf.argbest"),
        "perf.gather_ms": rec.total_ms("perf.gather") / n_ops,
        "perf.gather_calls": rec.calls("perf.gather"),
        "perf.round_ms": rec.total_ms("perf.round") / n_ops,
        "perf.round_calls": rec.calls("perf.round"),
        "accel.replay_ms": rec.total_ms("accel.replay") / n_ops,
        "schedule.plan_ms": rec.total_ms("schedule.plan") / n_ops,
        "engines.edge_gather_ms": section_ms("edge_gather"),
        "engines.apply_ms": section_ms("apply", "fused_relax"),
    }
