"""Process-pool execution of coalesced BOE plans.

One :class:`PlanPayload` is everything a worker needs to reproduce the
computation in its own address space: the deterministic base-scenario
coordinates (graph, scale, snapshots), the ingest log prefix defining the
epoch, the algorithm, the coalesced source list, and the window.  Workers
keep a process-local cache of live scenarios and advance them
incrementally as epochs move, so steady-state serving pays only for the
plan itself.

Resilience wiring (PR 1):

* every plan runs under a :class:`~repro.resilience.Budget` — a diverging
  or hung computation breaches loudly instead of stalling the worker;
* transient failures retry *inside* the worker via
  :func:`~repro.resilience.retry_with_backoff`; deterministic ones
  propagate so the coordinator can degrade (split the plan and retry the
  queries individually);
* two registered fault points make the whole path provable from the load
  harness: ``service.worker-fault`` (transient — the worker itself
  recovers) and ``service.plan-poison`` (fatal — the coordinator must
  degrade around it).

Per-worker memory stays bounded: the live-scenario cache is a small LRU,
and the shared :func:`repro.experiments.runner.scenario_cache` /
``clear_caches`` machinery is process-local (each worker owns its copy;
see that module for fork/spawn semantics).  :meth:`WorkerPool.clear_caches`
broadcasts a best-effort clear; :meth:`WorkerPool.restart` is the
guaranteed reclaim (fresh processes start empty).
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

from repro.obs.profile import profiled
from repro.perf.backend import resolve_backend
from repro.resilience import (
    Budget,
    BudgetExceeded,
    FatalError,
    FaultPlan,
    TransientError,
    inject,
    register_fault_point,
    retry_with_backoff,
)
from repro.service.ingest import DeltaLog, apply_delta
from repro.service.request import SnapshotSummary
from repro.service.shm import ScenarioManifest, attach_scenario

__all__ = ["PlanPayload", "PlanResult", "WorkerPool"]

register_fault_point(
    "service.worker-fault",
    "service/pool.py",
    "a worker's plan execution fails transiently (in-worker retry recovers)",
)
register_fault_point(
    "service.plan-poison",
    "service/pool.py",
    "a coalesced plan fails deterministically (coordinator must split it)",
)

#: plans whose budgets are not set explicitly get this wall-clock ceiling
DEFAULT_BUDGET_S = 60.0


@dataclass
class PlanPayload:
    """One coalesced multi-query BOE plan, ready to ship to a worker."""

    plan_id: int
    graph: str
    scale: str
    n_snapshots: int
    algo: str
    sources: tuple[int, ...]
    window: tuple[int, int] | None = None
    mode: str = "eval"
    epoch: int = 0
    #: the graph's ingest log up to ``epoch``, packed (see DeltaLog)
    deltas: DeltaLog = field(default_factory=DeltaLog)
    budget_s: float = DEFAULT_BUDGET_S
    max_rounds: int = 200_000
    #: armed fault points for this plan (resilience drills / load harness)
    fault_points: tuple[str, ...] = ()
    fault_seed: int = 0
    kind: str = "plan"  # "plan" | "ping" | "clear"
    #: requested kernel backend (ServiceConfig.kernel_backend); ""
    #: defers to the worker's MEGA_KERNEL_BACKEND / auto resolution.
    #: Carried on every payload (not just the warm-up ping) so workers
    #: forked by a mid-serve pool restart still resolve the same tier
    kernel_backend: str = ""
    #: shared-memory scenario manifest (zero-copy attach); None = replay
    shm: ScenarioManifest | None = None
    #: delta-chain owner (the service's id): two services hosting the
    #: same (graph, scale, n_snapshots) in one process — e.g. a primary
    #: and a read replica — have divergent ingest histories, so their
    #: live-scenario caches must never be shared
    chain: int = 0
    #: sample engine round timings every N rounds while executing this
    #: plan (0 = profiling off; see repro.obs.profile)
    profile_every: int = 0
    #: sliding-window serving (ServiceConfig.window_slide_every > 0):
    #: full-window eval plans are answered from a per-worker
    #: WindowServer advanced incrementally across epochs — stable
    #: vertices are reused, only the new latest snapshot is repaired
    slide_serving: bool = False


@dataclass
class PlanResult:
    """What a worker hands back: per-source digests plus provenance."""

    plan_id: int
    epoch: int
    #: source vertex -> per-snapshot summaries
    summaries: dict[int, list[SnapshotSummary]] = field(default_factory=dict)
    worker_pid: int = 0
    #: kernel tier the worker actually resolved (cext/numpy);
    #: surfaces in health and the mega_kernel_backend metric so a
    #: mixed-pool misconfiguration is visible instead of silent
    kernel_backend: str = ""
    elapsed_s: float = 0.0
    attempts: int = 1
    recovered_faults: tuple[str, ...] = ()
    #: accelerator update-phase cycles when mode == "simulate"
    update_cycles: int | None = None
    #: CLOCK_MONOTONIC stamps taken inside the worker (system-wide on
    #: Linux, so directly comparable with coordinator marks); 0.0 for
    #: control ops and results from pre-observability workers
    worker_start_mono: float = 0.0
    worker_end_mono: float = 0.0
    #: RoundProfiler.snapshot() when the payload requested profiling
    round_profile: dict | None = None
    #: sliding-window serving provenance: incremental window advances
    #: this plan performed, and their stable-vertex accounting (the
    #: coordinator folds these into the service counters)
    slide_advances: int = 0
    stable_vertices: int = 0
    slide_vertices: int = 0


# ---------------------------------------------------------------------------
# worker side (runs in the pool processes)
# ---------------------------------------------------------------------------

#: (graph, scale, n_snapshots) -> (epoch, scenario); process-local
_LIVE: dict = {}
_LIVE_LIMIT = 8

#: segment name -> (SharedMemory, scenario); process-local zero-copy
#: attaches to the coordinator's scenario plane
_ATTACHED: dict = {}
_ATTACHED_LIMIT = 4

#: (graph, scale, n_snapshots, chain, algo, source) -> (epoch,
#: WindowServer); process-local sliding-window serving state.  Servers
#: are built ONLY from the replay path's owned arrays — never from a
#: shm attach, whose mapping an _ATTACHED eviction (or a segment
#: retirement) closes while the server still holds views into it.
_WINDOWS: dict = {}
_WINDOWS_LIMIT = 32


def _detach_all() -> None:
    """Close every shared-memory attach held by this process."""
    while _ATTACHED:
        __, (shm, __) = _ATTACHED.popitem()
        try:
            shm.close()
        except OSError:  # pragma: no cover - buffer already torn down
            pass


def _attached_scenario(manifest):
    """The scenario published under ``manifest``, attached zero-copy.

    Attaches are cached per segment (a bounded LRU — eviction closes the
    mapping).  Returns ``None`` when the segment cannot be attached
    (unlinked by a coordinator restart, swept as an orphan, ...): the
    caller falls back to the replay path, which is always correct.
    """
    cached = _ATTACHED.get(manifest.segment)
    if cached is not None:
        return cached[1]
    try:
        shm, scenario = attach_scenario(manifest)
    except (FileNotFoundError, OSError, ValueError):
        return None
    if len(_ATTACHED) >= _ATTACHED_LIMIT:
        old_shm, __ = _ATTACHED.pop(next(iter(_ATTACHED)))
        try:
            old_shm.close()
        except OSError:  # pragma: no cover - buffer already torn down
            pass
    _ATTACHED[manifest.segment] = (shm, scenario)
    return scenario


def _live_scenario(payload: PlanPayload):
    """The scenario at ``payload.epoch``, advanced incrementally.

    A straggler plan admitted before the cache advanced replays from the
    base but leaves the newer cache entry in place, as
    :func:`_window_server` does.
    """
    from repro.experiments.runner import scenario_cache

    key = (payload.graph, payload.scale, payload.n_snapshots, payload.chain)
    cached = _LIVE.get(key)
    if cached is not None and cached[0] == payload.epoch:
        return cached[1]
    if cached is not None and cached[0] < payload.epoch:
        epoch, scenario = cached
        for delta in payload.deltas[epoch: payload.epoch]:
            scenario = apply_delta(scenario, delta)
    else:
        # fresh worker, or a payload admitted before the cache advanced:
        # replay the ingest log from the deterministic base
        scenario = scenario_cache(
            payload.graph, payload.scale, n_snapshots=payload.n_snapshots
        )
        for delta in payload.deltas[: payload.epoch]:
            scenario = apply_delta(scenario, delta)
    if cached is not None and cached[0] > payload.epoch:
        return scenario
    if len(_LIVE) >= _LIVE_LIMIT and key not in _LIVE:
        _LIVE.pop(next(iter(_LIVE)))
    _LIVE[key] = (payload.epoch, scenario)
    return scenario


def _summarize(algorithm, values: np.ndarray, snapshot: int) -> SnapshotSummary:
    finite = np.isfinite(values)
    return SnapshotSummary(
        snapshot=snapshot,
        reached=int(algorithm.reached(values).sum()),
        checksum=float(values[finite].sum()),
    )


def _worker_clear() -> None:
    """Drop every process-local cache (bounded-memory escape hatch).

    Includes closing shared-memory attaches: a ``clear`` sentinel must
    release the worker's mapping so a retired segment's memory can
    actually be reclaimed by the kernel.
    """
    from repro.experiments.runner import clear_caches

    _LIVE.clear()
    _WINDOWS.clear()
    _detach_all()
    clear_caches()


def _window_server(payload: PlanPayload, algorithm, source: int):
    """The cached WindowServer for this plan key and source, advanced to
    ``payload.epoch``; returns ``(server, advances, stable, total)``.

    A cache hit behind the plan's epoch replays only the missing deltas
    through :meth:`WindowServer.advance` — surviving snapshots and
    stable vertices are reused, only each new latest snapshot is
    repaired.  A miss (or a straggler plan older than the cached epoch,
    which must not regress the cache) builds a fresh server from the
    replay scenario's owned arrays.
    """
    from repro.core.window_server import WindowServer
    from repro.evolving.snapshots import EvolvingScenario

    key = (
        payload.graph, payload.scale, payload.n_snapshots, payload.chain,
        payload.algo, int(source),
    )
    cached = _WINDOWS.get(key)
    if cached is not None and cached[0] == payload.epoch:
        return cached[1], 0, 0, 0
    if cached is not None and cached[0] < payload.epoch:
        epoch, server = cached
        n = server.scenario.n_vertices
        advances = stable = total = 0
        for delta in payload.deltas[epoch: payload.epoch]:
            server.advance(delta.additions(n), delta.deletions())
            advances += 1
            if server.last_stable is not None:
                stable += int(server.last_stable.sum())
            total += n
        _WINDOWS[key] = (payload.epoch, server)
        return server, advances, stable, total
    base = _live_scenario(payload)
    scenario = EvolvingScenario(
        base.unified,
        source=int(source),
        name=base.name,
        metadata=dict(base.metadata),
    )
    server = WindowServer(scenario, algorithm)
    if cached is None:
        if len(_WINDOWS) >= _WINDOWS_LIMIT:
            _WINDOWS.pop(next(iter(_WINDOWS)))
        _WINDOWS[key] = (payload.epoch, server)
    return server, 0, 0, 0


def _execute_sliding(payload: PlanPayload) -> PlanResult:
    """Answer a full-window eval plan from per-source WindowServers.

    Values are bit-identical to the scratch path (every Table 1
    algorithm converges to the unique min-over-paths fixpoint, so the
    incremental repair and a fresh build agree exactly — the parity
    tests and ``serve-bench --slide-every`` hold this bitwise), but
    post-slide plans touch only the unstable vertex set instead of
    recomputing the window.
    """
    from repro.algorithms import get_algorithm

    algorithm = get_algorithm(payload.algo)
    summaries = {}
    advances = stable = total = 0
    for source in payload.sources:
        server, a, s, t = _window_server(payload, algorithm, int(source))
        advances += a
        stable += s
        total += t
        summaries[int(source)] = [
            _summarize(algorithm, server.values(k), k)
            for k in range(server.n_snapshots)
        ]
    return PlanResult(
        plan_id=payload.plan_id,
        epoch=payload.epoch,
        summaries=summaries,
        worker_pid=os.getpid(),
        slide_advances=advances,
        stable_vertices=stable,
        slide_vertices=total,
    )


def _execute(payload: PlanPayload) -> PlanResult:
    from repro.algorithms import get_algorithm
    from repro.core.multi_query import evaluate_multi_query, simulate_multi_query
    from repro.evolving.window import window_scenario
    from repro.resilience.faults import maybe_fire

    fire = maybe_fire("service.worker-fault")
    if fire is not None:
        fire.note(plan=payload.plan_id, pid=os.getpid())
        raise TransientError(
            f"injected transient worker fault (plan {payload.plan_id})"
        )
    fire = maybe_fire("service.plan-poison")
    if fire is not None:
        fire.note(plan=payload.plan_id, pid=os.getpid())
        raise FatalError(f"injected poisoned plan (plan {payload.plan_id})")

    if (
        payload.slide_serving
        and payload.mode == "eval"
        and payload.window is None
    ):
        return _execute_sliding(payload)

    scenario = None
    if payload.shm is not None and payload.shm.epoch == payload.epoch:
        scenario = _attached_scenario(payload.shm)
    if scenario is None:
        scenario = _live_scenario(payload)
    if payload.window is not None:
        scenario = window_scenario(scenario, *payload.window)
    algorithm = get_algorithm(payload.algo)
    budget = Budget(
        max_rounds=payload.max_rounds, wall_clock_s=payload.budget_s
    )
    sources = list(payload.sources)
    update_cycles = None
    if payload.mode == "simulate":
        report, mq = simulate_multi_query(
            scenario, algorithm, sources, budget=budget
        )
        update_cycles = int(report.update_cycles)
    else:
        mq = evaluate_multi_query(scenario, algorithm, sources, budget=budget)
    summaries = {
        source: [
            _summarize(algorithm, mq.values(q, k), k)
            for k in range(scenario.n_snapshots)
        ]
        for q, source in enumerate(sources)
    }
    return PlanResult(
        plan_id=payload.plan_id,
        epoch=payload.epoch,
        summaries=summaries,
        worker_pid=os.getpid(),
        update_cycles=update_cycles,
    )


def _worker_run(payload: PlanPayload) -> PlanResult:
    """Pool entry point: control ops, fault arming, in-worker retry."""
    # resolve the kernel tier first so a misconfiguration (e.g. compiled
    # requested but unavailable in this interpreter) fails the warm-up
    # ping loudly instead of surfacing mid-plan
    backend = resolve_backend(payload.kernel_backend or None)
    if payload.kind == "ping":
        time.sleep(0.02)  # hold the worker so warm-up reaches every process
        return PlanResult(plan_id=payload.plan_id, epoch=payload.epoch,
                          worker_pid=os.getpid(),
                          kernel_backend=backend.name)
    if payload.kind == "clear":
        _worker_clear()
        return PlanResult(plan_id=payload.plan_id, epoch=payload.epoch,
                          worker_pid=os.getpid(),
                          kernel_backend=backend.name)

    t0 = time.monotonic()
    attempts = {"n": 0}

    def attempt() -> PlanResult:
        attempts["n"] += 1
        return _execute(payload)

    def run() -> PlanResult:
        try:
            return retry_with_backoff(attempt, retries=1, base_delay=0.01)
        except BudgetExceeded as exc:
            # re-raise in a kwarg-free shape that survives pickling back
            # to the coordinator (and is correctly non-retryable there)
            raise FatalError(
                f"plan {payload.plan_id} budget exceeded: {exc}"
            ) from None

    def run_profiled() -> PlanResult:
        if payload.profile_every > 0:
            with profiled(payload.profile_every) as prof:
                res = run()
            res.round_profile = prof.snapshot()
            return res
        return run()

    if payload.fault_points:
        plan = FaultPlan(list(payload.fault_points), seed=payload.fault_seed)
        with inject(plan):
            result = run_profiled()
        result.recovered_faults = tuple(r.point for r in plan.fired)
    else:
        result = run_profiled()
    result.attempts = attempts["n"]
    result.kernel_backend = backend.name
    result.worker_start_mono = t0
    result.worker_end_mono = time.monotonic()
    result.elapsed_s = result.worker_end_mono - t0
    return result


# ---------------------------------------------------------------------------
# coordinator side
# ---------------------------------------------------------------------------


class WorkerPool:
    """A restartable ``ProcessPoolExecutor`` with warm, cache-aware workers.

    Submissions go through :func:`~repro.resilience.retry_with_backoff`
    with a pool restart between attempts, so a broken pool (a worker died
    hard enough to poison the executor) costs the in-flight plans at most
    one resubmission instead of wedging the service.
    """

    def __init__(
        self, workers: int = 2, warm: bool = True, kernel_backend: str = ""
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = int(workers)
        #: requested kernel tier, carried on every payload ("" = worker
        #: env / auto)
        self.kernel_backend = kernel_backend
        self._lock = threading.Lock()
        self._executor = self._new_executor()
        self.restarts = 0
        #: pids observed during the last warm-up (feeds the health op)
        self.worker_pids: set[int] = set()
        #: pid -> resolved kernel tier from the last warm-up; health and
        #: the mega_kernel_backend gauge read this to expose mixed pools
        self.worker_backends: dict[int, str] = {}
        if warm:
            self.warm_up()

    def _new_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.workers)

    def warm_up(self) -> None:
        """Spawn every worker now (before coordinator threads exist) so no
        fork happens later mid-serve."""
        pings = [
            self._executor.submit(
                _worker_run,
                PlanPayload(-1, "", "", 0, "", (), kind="ping",
                            kernel_backend=self.kernel_backend),
            )
            for __ in range(self.workers)
        ]
        results = [p.result(timeout=60) for p in pings]
        self.worker_pids = {r.worker_pid for r in results}
        self.worker_backends = {
            r.worker_pid: r.kernel_backend for r in results
        }

    def submit(self, payload: PlanPayload) -> Future:
        def do_submit() -> Future:
            with self._lock:
                return self._executor.submit(_worker_run, payload)

        def submit_or_restart() -> Future:
            try:
                return do_submit()
            except (BrokenProcessPool, RuntimeError) as exc:
                self._restart_locked()
                raise TransientError(f"worker pool broken: {exc}") from exc

        return retry_with_backoff(submit_or_restart, retries=2, base_delay=0.05)

    def _restart_locked(self) -> None:
        with self._lock:
            old = self._executor
            self._executor = self._new_executor()
            self.restarts += 1
            self.worker_pids = set()  # repopulated by the next warm_up
        old.shutdown(wait=False, cancel_futures=True)

    def restart(self) -> None:
        """Replace every worker process (guaranteed cache reclaim)."""
        self._restart_locked()
        self.warm_up()

    def clear_caches(self) -> None:
        """Best-effort broadcast of ``clear`` to the workers.

        One control op per worker; an op lands on whichever worker is
        free, so a busy pool may clear some workers twice and others not
        at all — :meth:`restart` is the guaranteed path.
        """
        ops = [
            self.submit(PlanPayload(-2, "", "", 0, "", (), kind="clear"))
            for __ in range(self.workers)
        ]
        for op in ops:
            op.result(timeout=60)

    def shutdown(self) -> None:
        with self._lock:
            self._executor.shutdown(wait=True, cancel_futures=True)
