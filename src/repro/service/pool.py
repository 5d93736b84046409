"""Process-pool execution of coalesced BOE plans.

One :class:`PlanPayload` is everything a worker needs to run a plan in
its own address space: the algorithm, the coalesced source list, the
epoch, and a :class:`~repro.service.shm.ScenarioManifest` naming the
shared-memory generation that holds the scenario at that epoch.  A plan
always runs the generation's full window; the coordinator slices each
query's window from the answer
(:meth:`~repro.service.cache.ResultCache.window_of`).  The coordinator
is the one writer: it materializes every scenario and publishes it on
the plane (:mod:`repro.service.shm`).
Workers only read: they attach the named generation zero-copy, so a
plan's bytes do not grow with the graph's ingest history.

Resilience wiring (PR 1):

* every plan runs under a wall-clock :class:`~repro.resilience.Budget` —
  a diverging or hung computation breaches loudly instead of stalling
  the worker.  The budget caps no rounds or events, so on the compiled
  tier the whole plan — its common-graph evaluations, its batch applies
  and its per-snapshot summaries — is one call of the value-only
  worklist kernel
  (:func:`~repro.core.multi_query.summarize_multi_query`), which has no
  rounds and reads the deadline every 65,536 pops.  The numpy tier, and
  a plan the kernel refuses (a NaN candidate, a pass past its pop
  ceiling), run on the round loop and
  :func:`~repro.core.multi_query.summarize`; a result says which
  (``round_loop``) and carries the kernel's pops and relaxations, which
  ``health`` sums;
* transient failures retry *inside* the worker via
  :func:`~repro.resilience.retry_with_backoff`; deterministic ones
  propagate so the coordinator can degrade (split the plan and retry the
  queries individually);
* a generation the worker cannot attach raises
  :class:`~repro.service.shm.PlaneError`, which is deterministic (the
  segment will not come back), so the coordinator's split-and-retry path
  retries the queries against a freshly published generation;
* two registered fault points make the whole path provable from the load
  harness: ``service.worker-fault`` (transient — the worker itself
  recovers) and ``service.plan-poison`` (fatal — the coordinator must
  degrade around it).

Per-worker memory stays bounded: the only worker state is a small LRU
of attaches (``_ATTACHED``, at most ``_ATTACHED_LIMIT``).  An entry
holds its generation's zero-copy scenario and, memoised on its union,
what plans derive from it alone — the common-graph mask and each source
count's BOE steps, step table and edge tags — so a plan pays for its kernel call and
little else, and evicting the entry drops it all.  A worker holds no windowed copy
of a graph.
:meth:`WorkerPool.clear_caches` broadcasts a best-effort detach;
:meth:`WorkerPool.restart` is the guaranteed reclaim (fresh processes
start empty).
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

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
from repro.service.request import SnapshotSummary
from repro.service.shm import PlaneError, ScenarioManifest, attach_scenario

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
    """One coalesced BOE plan (one query per source), ready to ship to a
    worker."""

    plan_id: int
    algo: str
    sources: tuple[int, ...]
    epoch: int = 0
    #: the published generation holding the scenario at ``epoch``; None
    #: only on the ping and clear control ops
    shm: ScenarioManifest | None = None
    budget_s: float = DEFAULT_BUDGET_S
    #: armed fault points for this plan (resilience drills / load harness)
    fault_points: tuple[str, ...] = ()
    fault_seed: int = 0
    kind: str = "plan"  # "plan" | "ping" | "clear"
    #: sample engine round timings every N rounds while executing this
    #: plan (0 = profiling off; see repro.obs.profile)
    profile_every: int = 0


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
    #: CLOCK_MONOTONIC stamps taken inside the worker (system-wide on
    #: Linux, so directly comparable with coordinator marks); 0.0 for
    #: control ops and results from pre-observability workers
    worker_start_mono: float = 0.0
    worker_end_mono: float = 0.0
    #: RoundProfiler.snapshot() when the payload requested profiling
    round_profile: dict | None = None
    #: the worklist kernel's pops and edge relaxations for this plan (0
    #: when it ran on the round loop, which ``round_loop`` says)
    worklist_pops: int = 0
    edges_relaxed: int = 0
    round_loop: bool = False


# ---------------------------------------------------------------------------
# worker side (runs in the pool processes)
# ---------------------------------------------------------------------------

@dataclass
class _Attach:
    """One attached generation: its mapping and its scenario."""

    shm: object
    scenario: object


#: segment name -> _Attach; process-local zero-copy attaches to the
#: coordinator's scenario plane.  Everything a plan derives from its
#: generation hangs off the entry's union (``UnifiedCSR.memo``: the
#: schedule's step tables, its edge tags and the common-graph mask), so
#: evicting an entry drops it all
_ATTACHED: dict[str, _Attach] = {}
_ATTACHED_LIMIT = 4


def _close(entry: _Attach) -> None:
    try:
        entry.shm.close()
    except OSError:  # pragma: no cover - buffer already torn down
        pass


def _detach_all() -> None:
    """Close every shared-memory attach held by this process."""
    while _ATTACHED:
        _close(_ATTACHED.popitem()[1])


def _attached_scenario(manifest):
    """The scenario published under ``manifest``, attached zero-copy.

    Attaches are cached per segment (a bounded LRU — eviction closes the
    mapping).  Raises :class:`PlaneError` when the segment cannot be
    attached (unlinked by a coordinator restart, swept as an orphan,
    ...): it will not come back, so the coordinator retries the plan's
    queries against a fresh generation instead of the worker retrying.
    """
    entry = _ATTACHED.pop(manifest.segment, None)
    if entry is None:
        try:
            shm, scenario = attach_scenario(manifest)
        except (OSError, ValueError) as exc:
            raise PlaneError(
                f"cannot attach {manifest.segment} (epoch {manifest.epoch}): "
                f"{exc}"
            ) from None
        if len(_ATTACHED) >= _ATTACHED_LIMIT:
            _close(_ATTACHED.pop(next(iter(_ATTACHED))))
        entry = _Attach(shm, scenario)
    # (re)inserted at the back, so the front is the least recently used
    _ATTACHED[manifest.segment] = entry
    return entry.scenario


def _worker_clear() -> None:
    """Close every shared-memory attach (bounded-memory escape hatch), so
    a retired segment's memory can actually be reclaimed by the kernel."""
    _detach_all()


def _execute(payload: PlanPayload) -> PlanResult:
    from repro.algorithms import get_algorithm
    from repro.core.multi_query import summarize_multi_query
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

    scenario = _attached_scenario(payload.shm)
    budget = Budget(wall_clock_s=payload.budget_s)
    sources = list(payload.sources)
    run = summarize_multi_query(
        scenario, get_algorithm(payload.algo), sources, budget=budget
    )
    return PlanResult(
        plan_id=payload.plan_id,
        epoch=payload.epoch,
        summaries=dict(zip(sources, SnapshotSummary.table(
            run.reached, run.checksum
        ))),
        worker_pid=os.getpid(),
        worklist_pops=run.worklist_pops,
        edges_relaxed=run.edges_relaxed,
        round_loop=run.round_loop,
    )


def _worker_run(payload: PlanPayload) -> PlanResult:
    """Pool entry point: control ops, fault arming, in-worker retry."""
    # resolve the kernel tier first so a misconfiguration (e.g. compiled
    # requested but unavailable in this interpreter) fails the warm-up
    # ping loudly instead of surfacing mid-plan; the tier comes from
    # MEGA_KERNEL_BACKEND, which every forked worker inherits
    backend = resolve_backend()
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

    def __init__(self, workers: int = 2) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = int(workers)
        self._lock = threading.Lock()
        self._executor = self._new_executor()
        self.restarts = 0
        #: pids observed during the last warm-up (feeds the health op)
        self.worker_pids: set[int] = set()
        #: pid -> resolved kernel tier from the last warm-up; health and
        #: the mega_kernel_backend gauge read this to expose mixed pools
        self.worker_backends: dict[int, str] = {}
        self.warm_up()

    def _new_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.workers)

    def warm_up(self) -> None:
        """Spawn every worker now (before coordinator threads exist) so no
        fork happens later mid-serve."""
        pings = [
            self._executor.submit(
                _worker_run,
                PlanPayload(-1, "", (), kind="ping"),
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
            self.submit(PlanPayload(-2, "", (), kind="clear"))
            for __ in range(self.workers)
        ]
        for op in ops:
            op.result(timeout=60)

    def shutdown(self) -> None:
        with self._lock:
            self._executor.shutdown(wait=True, cancel_futures=True)
