"""The query service: admission → coalescing → worker pool → responses.

Dataflow (docs/SERVICE.md has the full picture)::

    submit() ──► AdmissionQueue ──► batcher thread ──► WorkerPool
       │cache hit                      │shed expired      │ProcessPool
       ▼                               │coalesce()        ▼
    cached response            PlanPayload per plan   PlanResult
                                                         │done callback
                         responses + ResultCache  ◄──────┘

Degradation policy: a failed multi-query plan is split and each of its
queries retried as a singleton plan (without any armed fault, and only
once); a failed singleton, or a plan past its log's tip, yields an
``error`` response.  Either way the pool, the other in-flight plans, and
later traffic are unaffected.

``ingest()`` appends a delta batch to a graph's log, bumps its epoch, and
so slides the window by one snapshot: a cached full-window answer keeps
answering every window it still covers, shifted by the epochs since it
was computed.  Queries already in flight complete against the epoch they
were admitted under (their responses say which).

The coordinator is the one writer of scenarios: it materializes a graph's
scenario at a plan's epoch (a per-graph cache advanced through the log
suffix it lacks) and publishes it on the shared-memory plane
(:mod:`repro.service.shm`).  A plan carries only the generation's
manifest; workers attach it read-only and never see the ingest log.  A
straggler plan, older than the current generation, gets a private
generation of its own epoch; a generation a worker cannot attach fails
the plan with :class:`~repro.service.shm.PlaneError`, and the
split-and-retry path below retries its queries on a fresh one.

Durability: with a ``wal_dir`` configured, every delta is appended to a
:class:`~repro.service.wal.WriteAheadLog` **before** the ingest is
acknowledged, and :meth:`QueryService.start` replays the log (snapshot +
segments) to rebuild per-graph delta logs and epochs after a crash —
truncated tails and quarantined records are logged warnings, never
exceptions.  Every ``window_slide_every`` ingests a checkpoint compacts the
log into a snapshot and republishes the scenario, so replay cost stays
bounded.

Overload protection: queries carry optional deadlines; the batcher sheds
expired ones *before* plan construction with a ``retry_after`` hint sized
from the current queue depth and recent plan latency, so clients back off
instead of piling onto a saturated service.

Observability (docs/OBSERVABILITY.md): every query carries a
:class:`~repro.obs.trace.QueryTrace` span timeline (admit → queue-drain →
coalesce → plan-submit → worker → resolve) that its response reports as a
stage breakdown; every counter lives in a
:class:`~repro.obs.metrics.MetricsRegistry` rendered by the ``metrics``
op.  Two invariants the instrumentation enforces:

* a query is *always* accounted somewhere: the admission queue, the
  batcher's accepted-but-unplanned count, or an in-flight plan —
  :meth:`QueryService.drain` waits on all three, so ``stop(drain=True)``
  can never shut the pool down under acknowledged queries;
* a plan result that lacks one of its queries' sources resolves that
  query as an *error* and is never cached (counted in
  ``missing_source``), so the cache cannot serve a fabricated empty
  answer.
"""

from __future__ import annotations

import logging
import re
import threading
import time
from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import merge_profiles
from repro.perf.backend import requested_tier
from repro.resilience.faults import FaultPlan, Fire, maybe_fire, register_fault_point
from repro.service.batcher import PendingQuery, QueryPath
from repro.service.cache import ResultCache
from repro.service.ingest import (
    DeltaBatch, DeltaLog, apply_delta, synthesize_delta,
)
from repro.service.pool import PlanPayload, PlanResult, WorkerPool
from repro.service.request import QueryRequest, QueryResponse, validate_request
from repro.service.shm import (
    PlaneError,
    ScenarioManifest,
    ScenarioPlane,
    sweep_orphan_segments,
)
from repro.service.wal import (
    OP_INGEST,
    JsonText,
    WalRecovery,
    WriteAheadLog,
    advance_fence,
    current_fence_token,
    read_follower_cursors,
    recover_wal,
)

__all__ = [
    "COORDINATOR_FAULT_POINTS",
    "NotPrimaryError",
    "ReplicationGapError",
    "ServiceConfig",
    "ServiceStats",
    "SimulatedCrash",
    "QueryService",
    "parse_ack_mode",
]

log = logging.getLogger(__name__)

register_fault_point(
    "service.crash-on-ingest",
    "service/core.py",
    "the coordinator dies between the WAL append and the in-memory apply "
    "(worst-case crash point; recovery must replay the committed record)",
)

#: fault points that fire in the coordinator (ingest/WAL path) rather than
#: inside pool workers — ``ServiceConfig.inject_fault`` arms these locally
#: and never ships them with a plan payload
COORDINATOR_FAULT_POINTS = (
    "service.wal-torn-write",
    "service.wal-corrupt-record",
    "service.crash-on-ingest",
)

#: quorum-ack cursor polling: start tight so fast followers ack with
#: minimal latency, double per miss, cap so long waits don't spin
_QUORUM_POLL_MIN_S = 0.001
_QUORUM_POLL_MAX_S = 0.05


class SimulatedCrash(RuntimeError):
    """Injected coordinator death mid-ingest (``service.crash-on-ingest``)."""


class NotPrimaryError(RuntimeError):
    """An ingest reached a follower: only the primary accepts writes.

    The front end maps this to a ``not_primary`` redirect response so
    clients re-aim their writes at the primary (docs/SERVICE.md,
    Replication).
    """

    def __init__(self, role: str, primary_wal_dir: str | None = None) -> None:
        self.role = role
        self.primary_wal_dir = primary_wal_dir
        hint = f" (primary WAL: {primary_wal_dir})" if primary_wal_dir else ""
        super().__init__(
            f"ingest refused: this node is a {role}, not the primary{hint}"
        )


class ReplicationGapError(RuntimeError):
    """A replicated epoch does not extend the follower's log contiguously.

    The tailer treats this as "the stream moved under me" (missed a
    compaction, skipped a damaged record) and re-syncs wholesale from the
    primary's snapshot — a follower must serve a *prefix* of the
    primary's epoch order, never an interpolation across a hole.
    """


class EpochPastTipError(RuntimeError):
    """A plan's epoch is past its graph's held log: a re-sync installed a
    shorter, diverged log after the plan's queries were admitted."""


_ACK_MODE_RE = re.compile(r"quorum:(\d+)")


def parse_ack_mode(raw: str) -> tuple[str, int]:
    """Parse ``ServiceConfig.ack_mode`` into ``(mode, k)``.

    ``"local"`` -> ``("local", 0)``; ``"quorum:2"`` -> ``("quorum", 2)``.
    Raises ``ValueError`` for anything else — a typo in a durability knob
    must fail loudly at construction, not silently weaken acks.
    """
    s = str(raw).strip().lower()
    if s == "local":
        return ("local", 0)
    m = _ACK_MODE_RE.fullmatch(s)
    if m is not None:
        k = int(m.group(1))
        if k >= 1:
            return ("quorum", k)
    raise ValueError(
        f"invalid ack_mode {raw!r}: expected 'local' or 'quorum:k' with "
        "k >= 1"
    )


#: admission-queue capacity: a query past it is rejected with a
#: ``retry_after`` hint
MAX_PENDING = 4096


@dataclass
class ServiceConfig:
    """Knobs for one service instance.  ``serve`` and ``serve-bench``
    set most of them from their flags (docs/USAGE.md, Option audit);
    ``budget_s``, ``use_shm`` and ``fault_seed`` have no flag."""

    scale: str = "tiny"
    n_snapshots: int = 8
    workers: int = 2
    batching: bool = True
    max_batch: int = 8
    cache_size: int = 512
    budget_s: float = 60.0
    #: always True: workers get every scenario by attaching the
    #: coordinator's shared-memory plane, and False is refused (the
    #: field stays so callers passing ``use_shm=True`` keep working)
    use_shm: bool = True
    #: durable ingest: WAL directory (None = in-memory only, PR-2 behavior)
    wal_dir: str | None = None
    #: "always" | "batch" | "never" — fsync per append / periodically / OS
    wal_fsync: str = "always"
    #: sample the engine's per-round kernel timings every N rounds inside
    #: workers (0 = off); aggregates surface in the bench report
    profile_rounds: int = 0
    #: arm these fault points on the first plan
    inject_fault: tuple[str, ...] = ()
    fault_seed: int = 0
    #: ingest acknowledgement policy: ``"local"`` acks after the local
    #: WAL fsync (PR-6 behavior); ``"quorum:k"`` additionally holds the
    #: ack until k followers report the epoch durable in their
    #: acked-position cursors
    ack_mode: str = "local"
    #: how long a quorum ack may wait before degrading (the response is
    #: marked ``degraded`` — never silent loss, never an unbounded stall)
    quorum_timeout_s: float = 5.0
    #: checkpoint every N ingests (0 = never): compact the WAL into a
    #: snapshot and eagerly republish the shm generation, retiring the
    #: previous one.  Every ingest slides the window by one snapshot
    #: whatever this is (docs/SERVICE.md, Checkpoints)
    window_slide_every: int = 0

    def __post_init__(self) -> None:
        if not self.use_shm:
            raise ValueError(
                "use_shm=False is not supported: workers only attach "
                "the shared-memory scenario plane"
            )


#: counter name -> help text; the registry names are
#: ``mega_service_<name>_total``
_COUNTER_HELP = {
    "submitted": "queries accepted by submit()",
    "completed": "queries resolved ok (including cache hits)",
    "cached": "queries answered from the result cache",
    "errored": "queries resolved as errors",
    "rejected": "queries shed at admission (queue full)",
    "shed": "queries shed on deadline expiry before execution",
    "plans": "coalesced BOE plans submitted to the pool",
    "plan_queries": "queries riding those plans",
    "retries": "queries resubmitted as degraded singletons",
    "faults_recovered": "injected faults recovered inside workers",
    "ingests": "delta batches ingested",
    "drain_timeouts": "stop(drain=True) calls that timed out",
    "wal_records": "records appended to the write-ahead log",
    "wal_compactions": "WAL compactions performed",
    "replicated": "delta batches applied from the primary's WAL (follower)",
    "not_primary": "ingests refused with a not_primary redirect",
    "quorum_acks": "ingests acknowledged with the follower quorum met",
    "degraded_acks": (
        "quorum-mode ingests acknowledged degraded (quorum_timeout_s "
        "elapsed before k followers reported the epoch durable)"
    ),
    "missing_source": (
        "plan results lacking a query's source (resolved as errors, "
        "never cached)"
    ),
    "slides": "window-slide checkpoints folded into the serving base",
    "worklist_pops": "worklist-kernel pops of the plans served",
    "edges_relaxed": "worklist-kernel edge relaxations of the plans served",
    "round_loop_plans": (
        "plans that ran on the round loop (the numpy tier, or a plan the "
        "worklist kernel refused)"
    ),
    # the next three always read 0: workers no longer advance window
    # servers; they stay because benchmark readers still report them
    "slide_advances": "always 0 (retired worker window advances)",
    "stable_vertices": "always 0 (retired worker window advances)",
    "slide_vertices": "always 0 (retired worker window advances)",
}


class ServiceStats:
    """Service counters, backed by the metrics registry.

    The pre-observability implementation was a dataclass of plain ints
    behind one shared lock; each counter is now a
    :class:`~repro.obs.metrics.Counter` (its own lock, Prometheus name
    ``mega_service_<field>_total``), so the ``stats``/``metrics`` ops and
    the bench report read the same source of truth.  ``snapshot()``
    keeps the historical flat-dict shape.
    """

    FIELDS = tuple(_COUNTER_HELP)

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters = {
            name: self.registry.counter(f"mega_service_{name}_total", help)
            for name, help in _COUNTER_HELP.items()
        }

    def inc(self, name: str, n: int = 1) -> None:
        self._counters[name].inc(n)

    def get(self, name: str) -> int:
        return int(self._counters[name].get())

    def snapshot(self, cache_stats: dict) -> dict:
        out = {name: self.get(name) for name in self.FIELDS}
        out["batching_factor"] = (
            out["plan_queries"] / out["plans"] if out["plans"] else 0.0
        )
        out["cache"] = cache_stats
        return out


class _LiveGraph:
    """Coordinator-side state of one evolving graph: its ingest log."""

    def __init__(self) -> None:
        self.log = DeltaLog()
        #: checkpoints taken so far (window_slide_every cadence;
        #: persisted in the compaction snapshot)
        self.slides = 0
        #: which history ``log`` is, bumped by each re-sync that installs a
        #: log not extending it; what is derived from the log carries it
        self.lineage = 0

    @property
    def epoch(self) -> int:
        return len(self.log)


class QueryService(QueryPath):
    """Concurrent evolving-graph query service over a process pool."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.metrics = MetricsRegistry()
        self.stats = ServiceStats(self.metrics)
        self.cache = ResultCache(self.config.cache_size)
        self._init_query_path(MAX_PENDING)
        # warm the pool before the batcher thread exists so every worker
        # is forked from a single-threaded coordinator
        self.pool = WorkerPool(self.config.workers)
        self._backend_gauge = self.metrics.labeled_gauge(
            "mega_kernel_backend",
            "active kernel backend per pool worker (value is always 1)",
            label=("worker", "backend"),
        )
        self._backend_series: set[tuple[str, str]] = set()
        self._sync_backend_gauge()
        #: shared-memory scenario plane: the only way a worker gets a
        #: scenario
        self.plane = ScenarioPlane()
        self._graphs: dict[str, _LiveGraph] = {}
        self._graphs_lock = threading.Lock()
        #: graph -> (lineage, epoch, scenario): the newest scenario built
        #: per graph (ingest validation and plane publish)
        self._scenarios: dict[str, tuple] = {}
        self._scenarios_lock = threading.Lock()
        self._plan_ids = iter(range(1, 1 << 62))
        self._started_at = time.monotonic()
        #: EWMA of executed-plan wall time, feeds the retry_after hint;
        #: a registry gauge so concurrent done-callbacks fold their
        #: samples under the instrument lock (read-modify-write on a
        #: bare float lost updates and corrupted the hint under load)
        self._plan_ewma = self.metrics.gauge(
            "mega_plan_ewma_seconds",
            "EWMA of executed-plan wall time (drives retry_after)",
            initial=0.05,
        )
        self._latency = self.metrics.histogram(
            "mega_query_latency_seconds",
            "end-to-end query latency (admit to resolve)",
        )
        self._slide_seconds = self.metrics.histogram(
            "mega_slide_checkpoint_seconds",
            "wall time of a slide checkpoint's eager shm republish",
        )
        self._profile_lock = threading.Lock()
        self._round_profile: dict = {}
        self.wal: WriteAheadLog | None = None
        self.last_recovery: WalRecovery | None = None
        #: "primary" accepts ingest; "follower" (set by
        #: :class:`repro.service.replica.ReplicaServer`) serves reads only
        #: and refuses ingest with a ``not_primary`` redirect
        self.role = "primary"
        #: the follower's view of the primary's WAL directory (None on a
        #: primary); doubles as the redirect hint in NotPrimaryError
        self.primary_wal_dir: str | None = None
        #: back-reference the owning ReplicaServer installs so health and
        #: metrics can report replication lag from the follower side
        self.replica = None
        #: back-reference the cluster supervisor installs
        #: (:class:`repro.service.cluster.ClusterNode`) so health can
        #: report this node's cluster view
        self.cluster_node = None
        #: (mode, k) — parsed eagerly so a typo in the durability knob
        #: fails at construction
        self._ack = parse_ack_mode(self.config.ack_mode)
        self._follower_lag_gauge = self.metrics.labeled_gauge(
            "mega_replication_follower_lag_epochs",
            "per-follower replication lag in epochs (primary side)",
            label="follower",
        )
        coord = [
            p for p in self.config.inject_fault
            if p in COORDINATOR_FAULT_POINTS
        ]
        self._coord_plan = (
            FaultPlan(coord, seed=self.config.fault_seed) if coord else None
        )
        self._register_gauges()

    def _sync_backend_gauge(self) -> None:
        """Mirror the pool's pid -> kernel tier map into the
        ``mega_kernel_backend`` family, dropping series of departed
        workers so a restarted pool doesn't export ghost members."""
        live = {
            (str(pid), name or "unknown")
            for pid, name in self.pool.worker_backends.items()
        }
        for key in self._backend_series - live:
            self._backend_gauge.discard(*key)
        for key in live:
            self._backend_gauge.labels(*key).set(1.0)
        self._backend_series = live

    def _note_worker_backend(self, result: PlanResult) -> None:
        """Fold a plan result's resolved tier into the pool map (covers
        workers forked by a mid-serve restart, which never re-ping)."""
        if not result.kernel_backend:
            return
        known = self.pool.worker_backends.get(result.worker_pid)
        if known != result.kernel_backend:
            self.pool.worker_backends[result.worker_pid] = (
                result.kernel_backend
            )
            self._sync_backend_gauge()

    def _register_gauges(self) -> None:
        """Callback gauges over live state, sampled at render time."""
        reg = self.metrics
        reg.gauge_fn(
            "mega_queue_depth", lambda: len(self.queue),
            "queries waiting in the admission queue",
        )
        reg.gauge_fn(
            "mega_inflight_plans", lambda: len(self._inflight),
            "plans submitted to the pool and not yet completed",
        )
        reg.gauge_fn(
            "mega_unplanned_queries", lambda: self._unplanned,
            "queries accepted but not yet bound to a plan",
        )
        reg.gauge_fn(
            "mega_uptime_seconds",
            lambda: time.monotonic() - self._started_at,
            "seconds since the service started",
        )
        reg.gauge_fn(
            "mega_pool_restarts", lambda: self.pool.restarts,
            "worker pool restarts (broken executor recoveries)",
        )
        reg.gauge_fn(
            "mega_pool_workers", lambda: self.pool.workers,
            "configured worker processes",
        )
        for key, help in (
            ("entries", "result cache entries"),
            ("hits", "result cache hits"),
            ("misses", "result cache misses"),
            ("hit_rate", "result cache hit rate"),
        ):
            reg.gauge_fn(
                f"mega_result_cache_{key}",
                lambda k=key: self.cache.stats()[k],
                help,
            )
        reg.gauge_fn(
            "mega_wal_enabled", lambda: int(self.wal is not None),
            "1 when a write-ahead log is configured",
        )
        for key, help in (
            ("records", "records appended to the WAL"),
            ("lag_records", "appended-but-unsynced WAL records"),
            ("compactions", "WAL compactions"),
            ("segments", "live WAL segment files"),
            ("snapshot_bytes", "bytes of the WAL compaction snapshot"),
        ):
            reg.gauge_fn(
                f"mega_wal_{key}",
                lambda k=key: (
                    self.wal.stats()[k] if self.wal is not None else 0
                ),
                help,
            )
        reg.gauge_fn(
            "mega_replication_followers",
            lambda: len(self.follower_lags()),
            "followers with a registered replication cursor",
        )
        reg.gauge_fn(
            "mega_replication_max_lag_epochs",
            lambda: max(self.follower_lags().values(), default=0),
            "largest per-follower replication lag in epochs (primary side)",
        )
        reg.gauge_fn(
            "mega_replication_lag_epochs",
            lambda: (
                self.replica.lag_epochs() if self.replica is not None else 0
            ),
            "epochs this follower trails the primary's observed tip",
        )
        reg.gauge_fn(
            "mega_fencing_token",
            self._fencing_token,
            "this writer's fencing token (0 = unfenced/read-only); a "
            "follower reports the primary token it observes",
        )
        for key, help in (
            ("segments", "live shared-memory scenario segments"),
            ("bytes", "bytes published on the scenario plane"),
            ("published", "scenario generations published"),
            ("retired", "scenario generations retired"),
            (
                "retired_pending",
                "retired scenario generations still mapped by in-flight "
                "plans (must drain to 0 after a slide)",
            ),
        ):
            reg.gauge_fn(
                f"mega_shm_{key}",
                lambda k=key: self.plane.stats()[k],
                help,
            )

    def _maybe_fire(self, point: str) -> Fire | None:
        """Coordinator fault hook: a globally injected plan wins, else the
        config-armed one (``inject_fault`` with a coordinator point)."""
        fire = maybe_fire(point)
        if fire is None and self._coord_plan is not None:
            fire = self._coord_plan.maybe_fire(point)
        return fire

    # -- lifecycle ----------------------------------------------------------

    def start(self, wal_dir: str | None = None) -> "QueryService":
        """Start serving; with a WAL directory, recover state from it first.

        ``wal_dir`` overrides ``config.wal_dir``.  Recovery replays the
        compaction snapshot plus every surviving segment record to rebuild
        per-graph delta logs and epochs; damaged data (torn tail, CRC
        failure, epoch gap behind a quarantined record) is logged and
        skipped, never raised.
        """
        if self._running:
            return self
        # reclaim segments a SIGKILLed predecessor left in /dev/shm
        # before publishing any of our own
        sweep_orphan_segments()
        wal_dir = wal_dir if wal_dir is not None else self.config.wal_dir
        if wal_dir and self.wal is None and self.role == "primary":
            recovery = recover_wal(wal_dir)
            self._install_recovery(recovery)
            # fence the directory at its recovered tip before writing:
            # our records carry the new token, and any process still
            # holding the *old* token that appends at or past this point
            # is a zombie whose records every reader quarantines
            token = advance_fence(wal_dir, recovery.position)
            self.wal = WriteAheadLog(
                wal_dir,
                fsync=self.config.wal_fsync,
                fault_hook=self._maybe_fire,
                fence_token=token,
            )
        self._started_at = time.monotonic()
        self._start_batcher("mega-batcher")
        return self

    def _plan_slots(self) -> int:
        # ProcessPoolExecutor feeds its workers from a call queue of
        # max_workers + 1 plans: one more plan would only wait there,
        # and one fewer would leave a worker idle
        return self.pool.workers + 1

    def _install_recovery(self, recovery: WalRecovery) -> None:
        """Install the delta logs a WAL read rebuilt: the one way a log
        enters from the WAL (primary recovery, every follower re-sync).

        An incoming log that extends the held one keeps what was derived
        from it.  Any other (a demoted primary's fenced epochs, a shorter
        log) replaces it under a new lineage: what was derived from the
        old one is not dropped but never matches again.
        """
        self.last_recovery = recovery
        logs: dict[str, DeltaLog] = {}
        snapshot = recovery.snapshot or {}
        for graph, wires in snapshot.get("logs", {}).items():
            logs[graph] = DeltaLog(DeltaBatch.from_wire(w) for w in wires)
        for record in recovery.records:
            if record.get("op") != OP_INGEST:
                log.warning(
                    "wal recovery: skipping unknown record op %r",
                    record.get("op"),
                )
                continue
            graph = record.get("graph", "")
            delta_log = logs.setdefault(graph, DeltaLog())
            epoch = int(record.get("epoch", -1))
            if epoch == len(delta_log) + 1:
                delta_log.append(DeltaBatch.from_wire(record["delta"]))
            elif epoch <= len(delta_log):
                # already covered by the compaction snapshot
                continue
            else:
                # a quarantined/lost record upstream broke the chain:
                # freeze this graph at its last contiguous epoch rather
                # than apply deltas out of order
                log.warning(
                    "wal recovery: %s epoch %d follows a gap (have %d); "
                    "record skipped, graph frozen at epoch %d",
                    graph, epoch, len(delta_log), len(delta_log),
                )
        grown: dict[str, int] = {}
        with self._graphs_lock:
            for graph in set(logs) | set(self._graphs):
                live = self._graphs.setdefault(graph, _LiveGraph())
                delta_log = logs.get(graph, DeltaLog())
                if delta_log.extends(live.log):
                    grown[graph] = len(delta_log)
                else:
                    live.lineage += 1
                live.log = delta_log
            for graph, count in (snapshot.get("slides") or {}).items():
                live = self._graphs.setdefault(graph, _LiveGraph())
                live.slides = max(live.slides, int(count))
        for graph, epoch in grown.items():
            self.cache.rebase_graph(graph, epoch)
        if logs:
            log.info(
                "wal recovery: restored %s",
                {g: len(d) for g, d in logs.items()},
            )

    def stop(self, drain: bool = True, timeout: float = 60.0) -> bool:
        """Stop the service; returns whether it drained cleanly.

        A timed-out drain is logged, counted in ``ServiceStats``
        (``drain_timeouts``), and reflected in the return value — work
        still in flight is abandoned, not silently forgotten.
        """
        drained = self._stop_batcher(drain, timeout)
        self.pool.shutdown()
        self.plane.close_all()
        if self.wal is not None:
            self.wal.close()
        return drained

    # -- client surface ----------------------------------------------------

    def epoch(self, graph: str) -> int:
        with self._graphs_lock:
            return self._graphs.setdefault(graph, _LiveGraph()).epoch

    def graph_deltas(self, graph: str) -> tuple[DeltaBatch, ...]:
        """A graph's delta log with its meta."""
        with self._graphs_lock:
            return tuple(self._graphs.setdefault(graph, _LiveGraph()).log)

    def retry_after_hint(self) -> float:
        """How long an overloaded client should back off (seconds).

        Scales the recent per-plan wall time by the backlog a new query
        would sit behind; clamped to a sane band so a cold EWMA or a
        pathological queue can't produce silly hints.
        """
        with self._inflight_lock:
            inflight = len(self._inflight)
        backlog_plans = inflight + (
            len(self.queue) / max(self.config.max_batch, 1)
        )
        hint = self._plan_ewma.get() * (1.0 + backlog_plans) / max(
            self.config.workers, 1
        )
        return float(min(max(hint, 0.05), 10.0))

    def submit(self, request: QueryRequest) -> PendingQuery:
        """Admit one query; returns a handle to ``wait()`` on.

        Terminal immediately on validation error, cache hit, or admission
        overflow — only genuinely new work enters the queue.
        """
        with self._graphs_lock:
            live = self._graphs.setdefault(request.graph, _LiveGraph())
            lineage, epoch = live.lineage, live.epoch
        pending = PendingQuery(request, epoch)
        self.stats.inc("submitted")
        try:
            validate_request(
                request, self.config.n_snapshots, self.config.scale
            )
        except ValueError as exc:
            self.stats.inc("errored")
            self._finish(
                pending,
                QueryResponse(request.id, "error", epoch=epoch, error=str(exc)),
            )
            return pending

        summaries = self.cache.get(request, epoch, lineage)
        if summaries is not None:
            self.stats.inc("cached")
            self.stats.inc("completed")
            self._finish(
                pending,
                QueryResponse(
                    request.id, "cached", epoch=epoch, summaries=summaries
                ),
            )
            return pending

        self._enqueue(pending)
        return pending

    def ingest(
        self,
        graph: str,
        delta: DeltaBatch | None = None,
        seed: int | None = None,
        n_add: int = 8,
        n_del: int = 8,
    ) -> int:
        """Append ``Δ+/Δ-``, advance the graph's window, drop stale cache.

        Either pass an explicit :class:`DeltaBatch` or a ``seed`` to
        synthesize one from the graph's current epoch state.  Returns the
        new epoch.

        With a WAL configured the delta is appended (and fsynced, per
        policy) *before* the in-memory apply: an acknowledged ingest is
        durable, and a WAL write failure raises without acknowledging.

        On a follower this raises :class:`NotPrimaryError` — writes have
        exactly one home, and the front end turns the refusal into a
        ``not_primary`` redirect the client can follow.

        In quorum ack mode (``config.ack_mode = "quorum:k"``) the return
        additionally waits for k followers — see :meth:`ingest_with_ack`
        for the ack report; this convenience wrapper keeps the historical
        bare-epoch return.
        """
        epoch, _ack = self.ingest_with_ack(
            graph, delta=delta, seed=seed, n_add=n_add, n_del=n_del
        )
        return epoch

    def ingest_with_ack(
        self,
        graph: str,
        delta: DeltaBatch | None = None,
        seed: int | None = None,
        n_add: int = 8,
        n_del: int = 8,
    ) -> tuple[int, dict]:
        """:meth:`ingest` plus the acknowledgement report.

        The report states what the ack *means*: ``{"mode", "required",
        "acked_by", "degraded", "wait_s"}``.  In local mode the epoch is
        durable on this node's WAL only.  In quorum mode the return is
        held (outside the graph lock — reads and other ingests are not
        stalled) until ``required`` followers report the epoch durable in
        their acked-position cursors, or ``quorum_timeout_s`` elapses —
        then the ack is **degraded**: the epoch is locally durable and
        will replicate, but the caller is told the quorum was not proven.
        Never silent loss, never an unbounded stall.
        """
        if self.role != "primary":
            self.stats.inc("not_primary")
            raise NotPrimaryError(self.role, self.primary_wal_dir)
        if delta is None and seed is None:
            raise ValueError("ingest needs a DeltaBatch or a seed")
        if delta is not None:
            delta.refuse_nan_weights()
        slide_every = max(0, int(self.config.window_slide_every))
        while True:
            # Synthesize OUTSIDE the lock: building the live scenario and
            # drawing a valid delta is the expensive part of a seeded
            # ingest, and holding _graphs_lock through it stalled every
            # other graph's ingest and epoch read.  Optimistic concurrency
            # instead: snapshot the epoch, synthesize against it, then
            # re-validate under the lock — a losing racer resynthesizes so
            # the delta always respects the CommonGraph rule at the epoch
            # it lands on.  An explicit delta is checked the same way: it
            # must slide the live window before the WAL may log it, or
            # every later query and every recovery would replay a delta
            # the window refuses.
            with self._graphs_lock:
                base_epoch = self._graphs.setdefault(graph, _LiveGraph()).epoch
            lineage, scenario = self._scenario_at(graph, base_epoch)
            if delta is None:
                candidate = synthesize_delta(
                    scenario, seed=seed, n_add=n_add, n_del=n_del
                )
            else:
                candidate = delta
                apply_delta(scenario, candidate)  # ValueError refuses
            with self._graphs_lock:
                live = self._graphs.setdefault(graph, _LiveGraph())
                if (live.lineage, live.epoch) != (lineage, base_epoch):
                    # another ingest (or a re-sync) landed while we
                    # synthesized; the candidate may violate the
                    # one-change-per-edge rule at the new tip — go around
                    # and resynthesize (or re-check an explicit delta)
                    continue
                if self.wal is not None:
                    # durability point: commit before acknowledging; a
                    # WalWriteError propagates and nothing was applied
                    self.wal.append(
                        {
                            "op": OP_INGEST,
                            "graph": graph,
                            "epoch": live.epoch + 1,
                            "delta": candidate.to_wire(),
                        }
                    )
                    self.stats.inc("wal_records")
                fire = self._maybe_fire("service.crash-on-ingest")
                if fire is not None:
                    fire.note(graph=graph, epoch=live.epoch + 1)
                    raise SimulatedCrash(
                        f"injected crash after WAL append of {graph} "
                        f"epoch {live.epoch + 1}"
                    )
                live.log.append(candidate)
                epoch = live.epoch
                checkpoint = slide_every > 0 and epoch % slide_every == 0
                if checkpoint:
                    live.slides += 1
                    if self.wal is not None:
                        # compact while holding the lock: no append can
                        # race, so the snapshot (delta logs + checkpoint
                        # counters) covers every dropped segment
                        self.wal.compact(self._snapshot_graphs_locked())
                        self.stats.inc("wal_compactions")
            break
        if checkpoint:
            self.stats.inc("slides")
            t0 = time.monotonic()
            self._republish_plane(graph, epoch)
            self._slide_seconds.observe(time.monotonic() - t0)
        self.cache.rebase_graph(graph, epoch)
        self.stats.inc("ingests")
        return epoch, self._await_quorum(graph, epoch)

    def _republish_plane(self, graph: str, epoch: int) -> None:
        """Eagerly publish the post-slide scenario generation.

        Publishing retires the previous generation: in-flight plans still
        mapping it drain through the refcount machinery (the segment is
        unlinked when the last release lands), and post-slide plans
        attach the new segment immediately instead of paying the publish
        on their first query.  A failed publish leaves the ingest
        acknowledged: the first plan at this epoch publishes instead.
        """
        try:
            self.plane.release(self._plane_manifest(graph, epoch))
        except PlaneError as exc:
            log.warning("slide republish failed for %s@%d: %s",
                        graph, epoch, exc)

    def _await_quorum(self, graph: str, epoch: int) -> dict:
        """Block until k followers report ``epoch`` durable, or time out.

        Follower cursors (:func:`repro.service.wal.read_follower_cursors`)
        are the acked-position reports: each is fsynced by the follower
        *after* it applied the epoch, so an epoch listed there survived
        onto that follower.  Runs outside ``_graphs_lock`` — a slow
        follower delays this caller's ack, not the service.
        """
        mode, required = self._ack
        ack = {
            "mode": mode,
            "required": required,
            "acked_by": [],
            "degraded": False,
            "wait_s": 0.0,
        }
        if mode != "quorum" or self.wal is None:
            return ack
        t0 = time.monotonic()
        deadline = t0 + max(0.0, self.config.quorum_timeout_s)
        # Each poll re-reads and re-parses every follower cursor file.  A
        # fixed short sleep burned a core per in-flight ack whenever a
        # follower was slow; back off exponentially instead — the first
        # polls stay tight so fast followers ack with ~1 ms latency,
        # long waits settle at _QUORUM_POLL_MAX_S.
        pause = _QUORUM_POLL_MIN_S
        while True:
            cursors = read_follower_cursors(self.wal.wal_dir)
            acked = sorted(
                fid for fid, doc in cursors.items()
                if int((doc.get("epochs") or {}).get(graph, 0)) >= epoch
            )
            now = time.monotonic()
            if len(acked) >= required:
                ack.update(acked_by=acked, wait_s=round(now - t0, 6))
                self.stats.inc("quorum_acks")
                return ack
            if now >= deadline:
                ack.update(
                    acked_by=acked, degraded=True,
                    wait_s=round(now - t0, 6),
                )
                self.stats.inc("degraded_acks")
                log.warning(
                    "quorum ack degraded: %s epoch %d has %d/%d follower "
                    "acks after %.2fs (epoch is locally durable and will "
                    "replicate)",
                    graph, epoch, len(acked), required, now - t0,
                )
                return ack
            time.sleep(min(pause, max(0.0, deadline - now)))
            pause = min(pause * 2.0, _QUORUM_POLL_MAX_S)

    def apply_replicated(self, graph: str, epoch: int, delta_wire: dict) -> bool:
        """Apply one epoch shipped from the primary's WAL (follower path).

        Idempotent on replays (``epoch`` at or below the local tip is a
        no-op returning False); a gap raises
        :class:`ReplicationGapError` so the tailer re-syncs from the
        snapshot instead of serving a non-prefix state.  Returns True when
        the epoch advanced the local log.
        """
        with self._graphs_lock:
            live = self._graphs.setdefault(graph, _LiveGraph())
            if epoch <= live.epoch:
                return False
            if epoch != live.epoch + 1:
                raise ReplicationGapError(
                    f"replicated {graph} epoch {epoch} does not extend "
                    f"local epoch {live.epoch}"
                )
            live.log.append(DeltaBatch.from_wire(delta_wire))
        self.cache.rebase_graph(graph, epoch)
        self.stats.inc("replicated")
        return True

    def follower_lags(self) -> dict[str, int]:
        """Per-follower replication lag in epochs (primary side).

        Scans the ``followers/`` cursor files next to the WAL and compares
        each follower's applied epochs with the live ones; empty on a
        node without a WAL (including followers).
        """
        if self.wal is None:
            return {}
        cursors = read_follower_cursors(self.wal.wal_dir)
        if not cursors:
            return {}
        with self._graphs_lock:
            epochs = {g: lg.epoch for g, lg in self._graphs.items()}
        out: dict[str, int] = {}
        for follower_id, doc in cursors.items():
            applied = doc.get("epochs", {})
            out[follower_id] = max(
                (epochs.get(g, 0) - int(applied.get(g, 0)) for g in epochs),
                default=0,
            )
        # refresh the labeled gauge family in the same sweep: one series
        # per follower, and a departed follower's series is dropped, not
        # frozen at its last value
        for follower_id, lag in out.items():
            self._follower_lag_gauge.labels(follower_id).set(lag)
        for stale in set(self._follower_lag_gauge.get()) - set(out):
            self._follower_lag_gauge.discard(stale)
        return out

    def _fencing_token(self) -> int:
        """This writer's token; a follower (which holds no token of its
        own) reports the primary token it observes in the WAL dir — the
        one promotion would supersede."""
        if self.wal is not None:
            return self.wal.fence_token
        if self.primary_wal_dir is not None:
            return current_fence_token(self.primary_wal_dir)
        return 0

    def _snapshot_graphs_locked(self) -> dict:
        """The compaction image of every delta log (caller holds
        _graphs_lock).  Each log goes in as its memoized wire text, so a
        compaction encodes only the epochs no earlier one did."""
        return {
            "epochs": {g: lg.epoch for g, lg in self._graphs.items()},
            "logs": {
                g: JsonText(lg.log.wire_text())
                for g, lg in self._graphs.items()
            },
            "slides": {g: lg.slides for g, lg in self._graphs.items()},
        }

    def clear_caches(self) -> None:
        """Coordinator cache + best-effort worker-side clear."""
        self.cache.clear()
        self.pool.clear_caches()

    def service_stats(self) -> dict:
        return self.stats.snapshot(self.cache.stats())

    def metrics_text(self) -> str:
        """Prometheus text exposition of every registered instrument."""
        return self.metrics.render()

    def round_profile(self) -> dict:
        """Aggregated worker-side kernel profile (``profile_rounds`` > 0)."""
        with self._profile_lock:
            return dict(self._round_profile)

    def health(self) -> dict:
        """Operator-grade liveness snapshot for the ``health`` op.

        ``status`` is "degraded" once any query errored or was dropped at
        admission — the same condition that turns the CLI exit non-zero.
        """
        stats = self.service_stats()
        with self._graphs_lock:
            epochs = {g: lg.epoch for g, lg in self._graphs.items()}
            slide_counts = {g: lg.slides for g, lg in self._graphs.items()}
        with self._inflight_lock:
            inflight = len(self._inflight)
            unplanned = self._unplanned
        wal = self.wal.stats() if self.wal is not None else {"enabled": False}
        if self.last_recovery is not None:
            wal["recovery"] = self.last_recovery.summary()
        degraded = bool(stats["errored"] or stats["rejected"])
        follower_lags = self.follower_lags()
        replication = {
            "role": self.role,
            "fencing_token": self._fencing_token(),
            "ack_mode": self.config.ack_mode,
            "replication_lag_epochs": (
                self.replica.lag_epochs() if self.replica is not None
                else max(follower_lags.values(), default=0)
            ),
            "followers": follower_lags,
        }
        if self.replica is not None:
            replication.update(self.replica.health())
        out = {
            "status": "degraded" if degraded else "ok",
            **replication,
            "running": self._running,
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "epochs": epochs,
            "queue_depth": len(self.queue),
            "inflight_plans": inflight,
            "unplanned_queries": unplanned,
            "shed": stats["shed"],
            "errored": stats["errored"],
            "rejected": stats["rejected"],
            "missing_source": stats["missing_source"],
            "drain_timeouts": stats["drain_timeouts"],
            "retry_after_s": round(self.retry_after_hint(), 3),
            "workers": self.pool.workers,
            "worker_pids": sorted(self.pool.worker_pids),
            "pool_restarts": self.pool.restarts,
            "kernel_backend": {
                "requested": requested_tier(),
                "workers": {
                    str(pid): name
                    for pid, name in sorted(
                        self.pool.worker_backends.items()
                    )
                },
            },
            "work": {
                name: stats[name]
                for name in ("worklist_pops", "edges_relaxed",
                             "round_loop_plans")
            },
            "shm": self.plane.stats(),
            "wal": wal,
            "sliding": {
                "enabled": self.config.window_slide_every > 0,
                "slide_every": self.config.window_slide_every,
                "slides": slide_counts,
                "republish_p95_s": self._slide_seconds.approx_quantile(
                    0.95
                ),
            },
        }
        if self.cluster_node is not None:
            out["cluster"] = self.cluster_node.health()
        return out

    # -- plan dispatch (runs on the batcher thread) -------------------------

    def _dispatch_plan(
        self, queries: list[PendingQuery], degraded: bool = False
    ) -> None:
        plan_id = next(self._plan_ids)
        first = queries[0].request
        epoch = queries[0].epoch
        fault_points: tuple[str, ...] = ()
        worker_faults = tuple(
            p for p in self.config.inject_fault
            if p not in COORDINATOR_FAULT_POINTS
        )
        if not degraded and worker_faults:
            if self.stats.get("plans") == 0:
                fault_points = worker_faults
        sources = tuple(dict.fromkeys(q.request.source for q in queries))
        self.stats.inc("plans")
        self.stats.inc("plan_queries", len(queries))
        with self._inflight_lock:
            # the plan becomes in-flight in the same critical section that
            # releases its queries from the unplanned count, so drain()
            # can never observe them covered by neither
            self._inflight.add(plan_id)
            if not degraded:
                self._unplanned -= len(queries)
        manifest = None
        try:
            manifest = self._plane_manifest(first.graph, epoch)
            payload = PlanPayload(
                plan_id=plan_id,
                algo=first.algo,
                sources=sources,
                epoch=epoch,
                shm=manifest,
                budget_s=self.config.budget_s,
                fault_points=fault_points,
                fault_seed=self.config.fault_seed,
                profile_every=self.config.profile_rounds,
            )
            submitted_at = time.monotonic()
            for q in queries:
                q.trace.mark("plan_submit", submitted_at)
            future = self.pool.submit(payload)
        except Exception as exc:  # no generation, or the pool is unrecoverable
            self._plan_failed(plan_id, queries, exc, manifest)
            return
        future.add_done_callback(
            lambda fut, q=queries, pid=plan_id, m=manifest: (
                self._on_plan_done(pid, q, fut, m, m.lineage)
            )
        )

    def _scenario_at(self, graph: str, epoch: int):
        """``(lineage, scenario)`` at ``epoch`` of the graph's held log,
        materialized in this process.

        Advances the cached scenario through the log suffix it lacks if
        it is of the same lineage and not newer, else replays from the
        base; only a newer ``(lineage, epoch)`` is written back.  Raises
        :class:`EpochPastTipError` past the held log's tip.
        """
        from repro.experiments.runner import scenario_cache

        with self._scenarios_lock:
            cached = self._scenarios.get(graph)
        with self._graphs_lock:
            live = self._graphs.setdefault(graph, _LiveGraph())
            lineage, tip = live.lineage, live.epoch
            if epoch > tip:
                raise EpochPastTipError(
                    f"{graph} epoch {epoch} is past the held log's tip "
                    f"{tip} (lineage {lineage})"
                )
            if cached is None or cached[0] != lineage or cached[1] > epoch:
                cached = (lineage, 0, None)
            deltas = live.log[cached[1]:epoch]
        scenario = cached[2]
        if scenario is None:
            scenario = scenario_cache(
                graph, self.config.scale, n_snapshots=self.config.n_snapshots
            )
        for delta in deltas:
            scenario = apply_delta(scenario, delta)
        with self._scenarios_lock:
            cached = self._scenarios.get(graph)
            if cached is None or cached[:2] < (lineage, epoch):
                self._scenarios[graph] = (lineage, epoch, scenario)
        return lineage, scenario

    def _plane_manifest(self, graph: str, epoch: int) -> ScenarioManifest:
        """Refcounted manifest of the generation at the graph's lineage
        and ``epoch``.

        Acquires the current generation when it matches, else
        materializes the scenario and publishes it holding the reference
        (a straggler's generation is private, see
        :meth:`ScenarioPlane.publish`).  The lineage is read without the
        lock, which an ingest holds through its fsync.  Raises
        :class:`PlaneError` or :class:`EpochPastTipError`.
        """
        scale, n_snapshots = self.config.scale, self.config.n_snapshots
        live = self._graphs.get(graph)
        manifest = self.plane.acquire(
            graph, scale, n_snapshots, epoch,
            live.lineage if live is not None else 0,
        )
        if manifest is None:
            lineage, scenario = self._scenario_at(graph, epoch)
            manifest = self.plane.publish(
                scenario, graph, scale, epoch, lineage=lineage, hold=True
            )
        return manifest

    # -- completion path (runs on executor callback threads) ---------------

    def _merge_round_profile(self, snapshot: dict | None) -> None:
        if not snapshot:
            return
        with self._profile_lock:
            self._round_profile = merge_profiles(
                [self._round_profile, snapshot]
            )

    def _on_plan_done(
        self,
        plan_id: int,
        queries,
        future,
        manifest: ScenarioManifest | None = None,
        lineage: int = 0,
    ) -> None:
        """Answer each query with its window of the plan's full-window
        answer, and cache that answer under the ``lineage`` of the
        generation the plan ran on: if a re-sync installed a diverged log
        while the plan ran, no query admitted since can hit it."""
        try:
            result: PlanResult = future.result()
        except Exception as exc:  # noqa: BLE001 - plan-level isolation
            self._plan_failed(plan_id, queries, exc, manifest)
            return
        if manifest is not None:
            self.plane.release(manifest)
        if result.elapsed_s > 0:
            self._plan_ewma.ewma(result.elapsed_s, alpha=0.2)
        self._merge_round_profile(result.round_profile)
        self._note_worker_backend(result)
        self.stats.inc("faults_recovered", len(result.recovered_faults))
        self.stats.inc("worklist_pops", result.worklist_pops)
        self.stats.inc("edges_relaxed", result.edges_relaxed)
        self.stats.inc("round_loop_plans", int(result.round_loop))
        for q in queries:
            full = result.summaries.get(q.request.source)
            q.trace.mark("worker_start", result.worker_start_mono)
            q.trace.mark("worker_end", result.worker_end_mono)
            if full is None:
                # the worker never computed this source: caching the
                # absence would serve a fabricated empty answer as "ok"
                # until the next ingest — resolve as an error instead
                self.stats.inc("missing_source")
                self.stats.inc("errored")
                self._finish(
                    q,
                    QueryResponse(
                        q.request.id,
                        "error",
                        epoch=q.epoch,
                        plan_id=plan_id,
                        error=(
                            f"plan {plan_id} result is missing source "
                            f"{q.request.source} (not cached)"
                        ),
                    ),
                )
                continue
            self.stats.inc("completed")
            summaries = self.cache.window_of(full, q.request.window)
            self.cache.put(q.request, q.epoch, full, lineage)
            self._finish(
                q,
                QueryResponse(
                    q.request.id,
                    "ok",
                    epoch=q.epoch,
                    plan_id=plan_id,
                    summaries=summaries,
                ),
            )
        self._retire(plan_id)

    def _plan_failed(
        self,
        plan_id: int,
        queries,
        exc: BaseException,
        manifest: ScenarioManifest | None = None,
    ) -> None:
        if manifest is not None:
            # a generation a worker could not attach is retired, so the
            # retries below publish and attach a fresh one
            self.plane.release(manifest, retire=isinstance(exc, PlaneError))
        # a plan past its log's tip fails the same way however retried
        past_tip = isinstance(exc, EpochPastTipError)
        retryable = [q for q in queries if not (q.retried or past_tip)]
        terminal = [q for q in queries if q.retried or past_tip]
        for q in retryable:
            q.retried = True
        if retryable:
            self.stats.inc("retries", len(retryable))
            # degrade: one singleton plan per query, no armed faults
            for q in retryable:
                self._dispatch_plan([q], degraded=True)
        for q in terminal:
            self.stats.inc("errored")
            self._finish(
                q,
                QueryResponse(
                    q.request.id,
                    "error",
                    epoch=q.epoch,
                    plan_id=plan_id,
                    error=f"{type(exc).__name__}: {exc}",
                ),
            )
        self._retire(plan_id)
