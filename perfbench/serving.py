"""Workloads ``serve-read`` and ``serve-churn``: a closed loop on QueryService.

One client thread talks to an in-process :class:`QueryService` (LJ at
``small``, 8 snapshots, one pool worker, shm plane on) through
``submit`` and ``ingest_with_ack``.  It works in waves of eight ops:
the wave's queries are submitted back to back and the wave ends when
all of them have resolved, so eight requests are outstanding at the
start of each wave and no request waits on the client.

The read mix: all five algorithms, sources zipf-skewed over the
top-degree vertices, 20% of queries over a sub-window.  No key repeats
within a wave and each wave is submitted in compatibility-key order, so
which queries hit the result cache, the order plans reach the single
worker, and therefore every work counter below repeat exactly under one
seed however the batcher's drains fall.

* ``serve-read``: eight queries per wave, WAL off.  After the loop, a
  separate phase times plain ingests (WAL off, no slide checkpoints).
* ``serve-churn``: seven queries then one seeded ingest (8 additions, 8
  deletions) per wave, ``wal_fsync=always`` and a slide checkpoint every
  4 ingests; every ingest slides the served window.

Correctness: a seeded sample of served answers, every set-up answer and
one probe per algorithm after the last ingest are compared with
from-scratch evaluation (``evaluate_reference`` for the query's source)
at the epoch each answer names, replaying the served deltas with
``apply_delta``.
"""

from __future__ import annotations

import shutil
import time

import numpy as np

from harness import (
    BUILD_DIR, SpanRecorder, Yardstick, leaf_spans, median, peak_rss_mb,
)

GRAPH = "LJ"
SCALE = "small"
N_SNAPSHOTS = 8
ALGOS = ("BFS", "SSSP", "SSWP", "SSNP", "Viterbi")
WAVE = 8
#: sources are drawn from this many top-degree vertices, zipf(ZIPF_S)
N_SOURCES = 768
ZIPF_S = 0.7
SUB_WINDOWS = ((1, 4), (2, 5), (3, 6), (4, 7))
#: one query in this many is over a sub-window
SUB_WINDOW_EVERY = 5
#: serve-read's ingest phase, after the read loop
READ_INGESTS = 240
INGEST_ADD = INGEST_DEL = 8
SLIDE_EVERY = 4
#: larger than the keys a run can draw, so nothing is evicted and the
#: hit count depends on the sequence alone, not on completion order
CACHE_SIZE = 4096
#: served answers compared with from-scratch evaluation per run
CHECK_SAMPLE = 40
#: set-ups per run; ``setup_s`` is their median
SETUP_REPS = 7
#: yardstick passes before each set-up, with no service running
YARDSTICK_PASSES = 10
WAIT_S = 120.0


def _top_sources() -> list[int]:
    from repro.workloads import load_scenario

    scenario = load_scenario(GRAPH, SCALE, n_snapshots=N_SNAPSHOTS)
    degree = np.diff(scenario.unified.graph.indptr)
    order = np.lexsort((np.arange(degree.size), -degree))
    return [int(v) for v in order[:N_SOURCES]]


def make_waves(seed: int, n_waves: int, churn: bool) -> list[list]:
    """The seeded op sequence: per wave, query keys then (churn) an ingest.

    A query key is ``(algo, window, source)``; an ingest is
    ``("ingest", seed)``.  Algorithms rotate and every fifth query of
    each algorithm is over a sub-window, so every seed gives waves of
    the same shape; the seed draws the sources and sub-windows.
    """
    rng = np.random.default_rng(seed)
    sources = _top_sources()
    weights = 1.0 / np.arange(1, len(sources) + 1) ** ZIPF_S
    weights /= weights.sum()
    n_queries = WAVE - 1 if churn else WAVE
    waves = []
    for w in range(n_waves):
        keys: set = set()
        for j in range(n_queries):
            i = w * n_queries + j
            algo = ALGOS[i % len(ALGOS)]
            window = None
            if (i // len(ALGOS)) % SUB_WINDOW_EVERY == i % len(ALGOS):
                window = SUB_WINDOWS[int(rng.integers(len(SUB_WINDOWS)))]
            key = None
            while key is None or key in keys:
                key = (algo, window, sources[int(rng.choice(len(sources), p=weights))])
            keys.add(key)
        wave = sorted(keys, key=lambda k: (k[0], k[1] or (-1, -1), k[2]))
        if churn:
            wave.append(("ingest", seed * 100_000 + w))
        waves.append(wave)
    return waves


def _config(churn: bool, wal_dir: str | None, profile: bool):
    from repro.service import ServiceConfig

    return ServiceConfig(
        scale=SCALE,
        n_snapshots=N_SNAPSHOTS,
        workers=1,
        use_shm=True,
        wal_dir=wal_dir,
        wal_fsync="always",
        window_slide_every=SLIDE_EVERY if churn else 0,
        cache_size=CACHE_SIZE,
        profile_rounds=1 if profile else 0,
    )


class Instance:
    """One service plus the WAL directory it owns."""

    def __init__(self, churn: bool, tag: str, profile: bool = False) -> None:
        from repro.service import QueryService

        self.wal_dir = None
        if churn:
            self.wal_dir = BUILD_DIR / f"wal-{tag}"
            shutil.rmtree(self.wal_dir, ignore_errors=True)
            self.wal_dir.parent.mkdir(parents=True, exist_ok=True)
        wal = str(self.wal_dir) if self.wal_dir else None
        self.svc = QueryService(_config(churn, wal, profile))
        self.svc.start()

    def stop(self) -> None:
        self.svc.stop()
        if self.wal_dir is not None:
            shutil.rmtree(self.wal_dir, ignore_errors=True)


def _request(key):
    from repro.service import QueryRequest

    algo, window, source = key
    return QueryRequest(GRAPH, algo, source, window=window)


def setup(churn: bool, seed: int, ys: Yardstick) -> tuple[tuple, Instance, list]:
    """Start the service ``SETUP_REPS`` times; keep the last one running.

    Each set-up runs from an empty process-local scenario cache until the
    first answer for every algorithm: scenario synthesis, pool fork and
    warm-up, shm publish, and the first plan of each algorithm.  Returns
    ``((setup_seconds, yardstick_positions), instance, answers)``.
    """
    from repro.experiments.runner import clear_caches

    source = _top_sources()[0]
    times, positions = [], []
    inst = None
    answers = []
    for rep in range(SETUP_REPS):
        if inst is not None:
            inst.stop()
        ys.sample(YARDSTICK_PASSES)
        positions.append(ys.position())
        clear_caches()
        t0 = time.perf_counter()
        inst = Instance(churn, f"{seed}-setup")
        pending = [inst.svc.submit(_request((a, None, source))) for a in ALGOS]
        answers = [(p.request, p.wait(WAIT_S)) for p in pending]
        times.append(time.perf_counter() - t0)
    return (times, positions), inst, answers


def _ingest(svc, seed: int, out: dict, position: int) -> None:
    """One timed seeded ingest at yardstick ``position``; a failure is
    recorded, not raised."""
    t0 = time.perf_counter()
    try:
        svc.ingest_with_ack(GRAPH, seed=seed, n_add=INGEST_ADD, n_del=INGEST_DEL)
    except Exception as exc:  # noqa: BLE001 - counted as failed; the run fails
        out["ingest_errors"].append(f"{type(exc).__name__}: {exc}")
        return
    out["ingest_ms"].append((time.perf_counter() - t0) * 1e3)
    out["ingest_pos"].append(position)


def drive(svc, waves: list[list], ys: Yardstick) -> dict:
    """Run the closed loop; returns per-op outcomes and timings.

    ``queries`` holds ``(request, response, latency_ms, trace_marks)``
    and ``waves`` ``(busy_seconds, yardstick_position)``.  A yardstick
    pass opens every wave and precedes every ingest, while nothing is in
    flight; its time is left out of the wave's busy time.
    """
    out: dict = {
        "queries": [], "query_pos": [], "ingest_ms": [], "ingest_pos": [],
        "ingest_errors": [], "waves": [],
    }
    for wave in waves:
        ys.sample()
        position = ys.position()
        t_wave = time.perf_counter()
        inflight = []
        for key in wave:
            if key[0] != "ingest":
                inflight.append((time.monotonic(), svc.submit(_request(key))))
        for t0, pending in inflight:
            response = pending.wait(WAIT_S)
            marks = dict(pending.trace.marks)
            latency = (marks.get("resolve", time.monotonic()) - t0) * 1e3
            out["queries"].append((pending.request, response, latency, marks))
            out["query_pos"].append(position)
        busy = time.perf_counter() - t_wave
        if wave[-1][0] == "ingest":
            ys.sample()
            t_ingest = time.perf_counter()
            _ingest(svc, wave[-1][1], out, ys.position())
            busy += time.perf_counter() - t_ingest
        out["waves"].append((busy, position))
    out["n_ops"] = len(out["queries"]) + len(out["ingest_ms"])
    out["ops_per_s"] = out["n_ops"] / sum(busy for busy, __ in out["waves"])
    return out


def ingest_phase(svc, seed: int, out: dict, ys: Yardstick) -> list:
    """serve-read's timed ingests, each after a yardstick pass, then one
    probe query per algorithm; returns the probes' ``(request,
    response)`` pairs."""
    for i in range(READ_INGESTS):
        ys.sample()
        _ingest(svc, seed * 100_000 + i, out, ys.position())
    source = _top_sources()[0]
    pending = [svc.submit(_request((a, None, source))) for a in ALGOS]
    return [(p.request, p.wait(WAIT_S)) for p in pending]


def trace_layers(rec: SpanRecorder) -> None:
    """Wrap the coordinator-side entry points of each serving layer."""
    from repro.service import QueryService
    from repro.service.cache import ResultCache
    from repro.service.shm import ScenarioPlane
    from repro.service.wal import WriteAheadLog

    rec.wrap(QueryService, "submit", "service.submit")
    rec.wrap(QueryService, "ingest_with_ack", "ingest")
    rec.wrap(WriteAheadLog, "append", "wal.append")
    rec.wrap(WriteAheadLog, "compact", "wal.compact")
    rec.wrap(ScenarioPlane, "publish", "shm.publish")
    rec.wrap(ResultCache, "rebase_graph", "cache.rebase")


def run_loop(
    inst: Instance, waves: list[list], churn: bool, seed: int, ys: Yardstick
) -> dict:
    """Drive ``waves`` on a running instance and collect its figures."""
    svc = inst.svc
    out = drive(svc, waves, ys)
    probes = [] if churn else ingest_phase(svc, seed, out, ys)
    stats = svc.service_stats()
    health = svc.health()
    out["peak_rss_mb"] = peak_rss_mb(svc.pool.worker_pids)
    out["kernel_tiers"] = health["kernel_backend"]["workers"]
    out["stats"] = stats
    out["round_profile"] = svc.round_profile()
    out["probes"] = probes
    out["deltas"] = svc.graph_deltas(GRAPH)
    n_queries = len(out["queries"])
    out["counters"] = {
        "cache.hits": int(stats["cached"]),
        "wal.records": int(stats["wal_records"]),
        "wal.compactions": int(stats["wal_compactions"]),
        "core.slides": int(stats["slides"]),
        "core.slide_advances": int(stats["slide_advances"]),
        "core.stable_vertices": int(stats["stable_vertices"]),
    }
    out["timing_counters"] = {
        "plans": int(stats["plans"]),
        "queries_per_plan": stats["plan_queries"] / max(stats["plans"], 1),
        "cache_hit_share": stats["cached"] / max(n_queries, 1),
    }
    return out


def layers(rec: SpanRecorder, out: dict) -> dict:
    """Per-layer figures of a traced loop."""
    stats = out["stats"]
    spans = [s for s in (leaf_spans(q[3]) for q in out["queries"]) if s]

    def span_p50(name: str) -> float:
        return median([s[name] for s in spans]) if spans else 0.0

    sections = out["round_profile"].get("sections", {})
    plans = max(stats["plans"], 1)

    def section_ms(*names: str) -> float:
        total_s = sum(sections.get(n, {}).get("total_s", 0.0) for n in names)
        return total_s * 1e3 / plans

    n_ingest = rec.calls("ingest")
    n_queries = len(out["queries"])
    slide_vertices = stats["slide_vertices"]
    return {
        "service.submit_us": rec.mean_ms("service.submit") * 1e3,
        "cache.hit_rate": stats["cached"] / max(n_queries, 1),
        "batcher.wait_ms": span_p50("batcher.wait"),
        "batcher.queries_per_plan": stats["plan_queries"] / plans,
        "pool.queue_ms": span_p50("pool.queue"),
        "pool.worker_ms": span_p50("pool.worker"),
        "pool.return_ms": span_p50("pool.return"),
        "engines.rounds": out["round_profile"].get("rounds_seen", 0),
        "engines.edge_gather_ms": section_ms("edge_gather"),
        "engines.apply_ms": section_ms("apply", "fused_relax"),
        "wal.append_ms": rec.mean_ms("wal.append"),
        "wal.append_calls": rec.calls("wal.append"),
        "wal.compact_ms": rec.mean_ms("wal.compact"),
        "wal.compact_calls": rec.calls("wal.compact"),
        "shm.publish_ms": rec.mean_ms("shm.publish"),
        "shm.publish_calls": rec.calls("shm.publish"),
        "cache.rebase_ms": rec.mean_ms("cache.rebase"),
        "cache.rebase_calls": rec.calls("cache.rebase"),
        "ingest.other_ms": rec.self_ms("ingest") / n_ingest if n_ingest else 0.0,
        "core.stable_vertex_rate": (
            stats["stable_vertices"] / slide_vertices if slide_vertices else 0.0
        ),
    }


def check(answers: list, deltas: tuple) -> int:
    """Compare served answers with from-scratch evaluation.

    ``answers`` are ``(request, response)`` pairs of served (``ok`` or
    ``cached``) answers.  Returns how many differ.
    """
    from repro.algorithms import get_algorithm
    from repro.engines.validation import evaluate_reference
    from repro.evolving.snapshots import EvolvingScenario
    from repro.evolving.window import window_scenario
    from repro.service.ingest import apply_delta
    from repro.workloads import load_scenario

    wrong = 0
    served = sorted(
        ((response.epoch, request, response) for request, response in answers),
        key=lambda item: item[0],
    )
    scenario = load_scenario(GRAPH, SCALE, n_snapshots=N_SNAPSHOTS)
    epoch = 0
    for at, request, response in served:
        while epoch < at:
            scenario = apply_delta(scenario, deltas[epoch])
            epoch += 1
        view = scenario
        if request.window is not None:
            view = window_scenario(scenario, *request.window)
        view = EvolvingScenario(
            view.unified, source=int(request.source), name=view.name,
            metadata=dict(view.metadata),
        )
        algo = get_algorithm(request.algo)
        expected = []
        for k in range(view.n_snapshots):
            values = evaluate_reference(view, algo, k)
            finite = np.isfinite(values)
            expected.append(
                (k, int(algo.reached(values).sum()), float(values[finite].sum()))
            )
        got = [(s.snapshot, s.reached, s.checksum) for s in response.summaries]
        if got != expected:
            wrong += 1
    return wrong


def served(pairs: list) -> tuple[list, int]:
    """Split ``(request, response)`` pairs into served ones and a count
    of the rest (errors, rejections, sheds, timeouts)."""
    ok = [(q, r) for q, r in pairs if r is not None and r.ok]
    return ok, len(pairs) - len(ok)


def sample(pairs: list, seed: int) -> list:
    """A seeded sample of ``pairs`` for the correctness gate."""
    rng = np.random.default_rng(seed + 7)
    n = min(CHECK_SAMPLE, len(pairs))
    picks = sorted(rng.choice(len(pairs), size=n, replace=False).tolist())
    return [pairs[i] for i in picks]
