"""Scatter-gather query front end over a shard fleet.

One :class:`ScatterGatherFrontEnd` presents the same surface as a
:class:`~repro.service.core.QueryService` — ``submit``/``ingest``/
``health``/``metrics_text``/``service_stats`` and the context-manager
lifecycle — so the JSON-lines server and the load harness drive it
unchanged.  Underneath, a query becomes rounds of per-shard relaxation:

1. **Scatter** — seed triples route to the shards owning the sources;
   each pending shard gets a ``kind="scatter"`` sub-plan carrying the
   frontier (``DeltaBatch`` wire format) and the front end's known value
   block for the shard's columns, and relaxes its owned rows to a local
   fixed point in one of its pool workers.
2. **Gather** — the front end merges every shard's owned *updates* into
   the global ``(n_states, n_vertices)`` value matrix, then turns each
   *boundary* candidate that strictly improves the merged state into a
   reseed for the owning shard.  Candidates are never merged directly:
   a value enters the matrix only via its owner's updates, which is what
   makes the quiescent state the unique least fixed point — bit-exact
   with the unsharded BOE engine (the 5-algorithm differential parity
   test pins this).
3. Repeat until no candidate improves anything; summaries come from the
   gathered matrix, one row per (query, snapshot) state.

Instrumentation extends the PR 5/6 registry with ``shard``-labeled
families (``mega_shard_*_total{shard="i"}``) plus scatter/gather stage
histograms; ``scatter_stats()`` folds them into BENCH schema v5.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import merge_profiles
from repro.service.batcher import PendingQuery, QueryPath
from repro.service.cache import ResultCache
from repro.service.core import ServiceConfig, ServiceStats
from repro.service.pool import _decode_triples, _encode_triples, _summarize
from repro.service.request import (
    QueryRequest,
    QueryResponse,
    validate_request,
)
from repro.service.sharding.manager import ShardManager

__all__ = ["ScatterGatherFrontEnd"]


class ScatterGatherFrontEnd(QueryPath):
    """Admits queries, scatters them over shards, gathers one response."""

    def __init__(
        self,
        manager: ShardManager,
        config: ServiceConfig | None = None,
    ) -> None:
        self.manager = manager
        self.config = config or manager.config
        self.n_shards = manager.n_shards
        self.metrics = MetricsRegistry()
        self.stats = ServiceStats(self.metrics)
        self.cache = ResultCache(self.config.cache_size)
        self._init_query_path(self.config.max_pending)
        # QueryService-surface attributes the server/loadgen duck-type
        # against: the front end is always a primary, has no WAL or shm
        # plane of its own (each shard owns those), and never follows
        self.role = "primary"
        self.replica = None
        self.primary_wal_dir: str | None = None
        self.wal = None
        self.plane = None
        self.last_recovery = None
        self._plan_ids = iter(range(1, 1 << 62))
        self._plan_pool: ThreadPoolExecutor | None = None
        self._started_at = time.monotonic()
        self._plan_ewma = self.metrics.gauge(
            "mega_plan_ewma_seconds",
            "EWMA of executed scatter-gather plan wall time",
            initial=0.05,
        )
        self._latency = self.metrics.histogram(
            "mega_query_latency_seconds",
            "end-to-end query latency (admit to resolve)",
        )
        self._scatter_hist = self.metrics.histogram(
            "mega_scatter_stage_seconds",
            "per-round scatter stage (dispatch to last shard result)",
        )
        self._gather_hist = self.metrics.histogram(
            "mega_gather_stage_seconds",
            "per-round gather stage (merge updates + route reseeds)",
        )
        self._rounds_total = self.metrics.counter(
            "mega_scatter_rounds_total",
            "global scatter-gather rounds across all plans",
        )
        self._shard_plans = self.metrics.labeled_counter(
            "mega_shard_scatter_plans_total",
            "scatter sub-plans dispatched to each shard",
        )
        self._shard_frontier = self.metrics.labeled_counter(
            "mega_shard_frontier_triples_total",
            "cross-shard frontier triples routed to each shard",
        )
        self._shard_relaxed = self.metrics.labeled_counter(
            "mega_shard_relaxed_edges_total",
            "edges relaxed inside each shard's workers",
        )
        self._shard_rounds = self.metrics.labeled_counter(
            "mega_shard_local_rounds_total",
            "local relaxation rounds run by each shard",
        )
        self._shard_epoch = self.metrics.labeled_gauge(
            "mega_shard_epoch", "max graph epoch per shard",
        )
        self._shard_wal_depth = self.metrics.labeled_gauge(
            "mega_shard_wal_records", "WAL records appended per shard",
        )
        self._shard_shm_gen = self.metrics.labeled_gauge(
            "mega_shard_shm_generation",
            "shm scenario-plane generation per shard",
        )
        reg = self.metrics
        reg.gauge_fn(
            "mega_queue_depth", lambda: len(self.queue),
            "queries waiting in the admission queue",
        )
        reg.gauge_fn(
            "mega_inflight_plans", lambda: len(self._inflight),
            "scatter-gather plans in flight",
        )
        reg.gauge_fn(
            "mega_unplanned_queries", lambda: self._unplanned,
            "queries accepted but not yet bound to a plan",
        )
        reg.gauge_fn(
            "mega_uptime_seconds",
            lambda: time.monotonic() - self._started_at,
            "seconds since the front end started",
        )
        reg.gauge_fn(
            "mega_shards", lambda: self.n_shards, "configured shard count",
        )

    # -- lifecycle ----------------------------------------------------------

    def start(self, wal_dir: str | None = None) -> "ScatterGatherFrontEnd":
        if self._running:
            return self
        if wal_dir is not None and self.manager.wal_root is None:
            raise ValueError(
                "pass the WAL root to the ShardManager, not the front end: "
                "durability is per-shard"
            )
        self.manager.start()
        self._plan_pool = ThreadPoolExecutor(
            max_workers=self._plan_slots(),
            thread_name_prefix="scatter-plan",
        )
        self._started_at = time.monotonic()
        self._start_batcher("mega-scatter-batcher")
        return self

    def _plan_slots(self) -> int:
        # one plan thread per slot: a plan thread runs one plan at a time
        return max(2, self.n_shards)

    def stop(self, drain: bool = True, timeout: float = 60.0) -> bool:
        drained = self._stop_batcher(drain, timeout)
        if self._plan_pool is not None:
            self._plan_pool.shutdown(wait=True, cancel_futures=True)
            self._plan_pool = None
        shards_ok = self.manager.stop(drain=drain, timeout=timeout)
        return drained and shards_ok

    # -- client surface -----------------------------------------------------

    def epoch(self, graph: str) -> int:
        return self.manager.epoch(graph)

    def follower_lags(self) -> dict[str, int]:
        return {}

    def retry_after_hint(self) -> float:
        with self._inflight_lock:
            inflight = len(self._inflight)
        backlog = inflight + len(self.queue) / max(self.config.max_batch, 1)
        hint = self._plan_ewma.get() * (1.0 + backlog)
        return float(min(max(hint, 0.05), 10.0))

    def submit(self, request: QueryRequest) -> PendingQuery:
        """Admit one query (same contract as ``QueryService.submit``)."""
        epoch = self.epoch(request.graph)
        pending = PendingQuery(request, epoch)
        self.stats.inc("submitted")
        error = None
        try:
            validate_request(
                request, self.config.n_snapshots, self.config.scale
            )
        except ValueError as exc:
            error = str(exc)
        if error is None and request.mode != "eval":
            # the accelerator-model simulator is a whole-graph engine;
            # scatter sub-plans have no cycle model to merge
            error = (
                f"mode {request.mode!r} is not available on a sharded "
                f"service; use mode=eval or --shards 1"
            )
        if error is not None:
            self.stats.inc("errored")
            self._finish(
                pending,
                QueryResponse(request.id, "error", epoch=epoch, error=error),
            )
            return pending

        summaries = self.cache.get(request, epoch)
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
        delta=None,
        seed: int | None = None,
        n_add: int = 8,
        n_del: int = 8,
    ) -> int:
        epoch, _ack = self.ingest_with_ack(
            graph, delta=delta, seed=seed, n_add=n_add, n_del=n_del
        )
        return epoch

    def ingest_with_ack(
        self,
        graph: str,
        delta=None,
        seed: int | None = None,
        n_add: int = 8,
        n_del: int = 8,
    ) -> tuple[int, dict]:
        """Split-route one delta; acked only after every shard's WAL
        fsyncs (the manager's all-fsync barrier), so the ack is local."""
        epoch = self.manager.ingest(
            graph, delta=delta, seed=seed, n_add=n_add, n_del=n_del
        )
        self.cache.invalidate_graph(graph)
        self.stats.inc("ingests")
        return epoch, {
            "mode": "local", "required": 0, "acked_by": [],
            "degraded": False, "wait_s": 0.0,
        }

    def clear_caches(self) -> None:
        self.cache.clear()
        self.manager.clear_caches()

    def service_stats(self) -> dict:
        out = self.stats.snapshot(self.cache.stats())
        out["n_shards"] = self.n_shards
        return out

    def round_profile(self) -> dict:
        return merge_profiles(
            [shard.round_profile() for shard in self.manager.shards]
        )

    def metrics_text(self) -> str:
        """Registry render, with the shard-labeled gauges refreshed from
        live shard state first (counters update on the serving path)."""
        for entry in self.manager.shard_health():
            shard = entry["shard"]
            self._shard_epoch.labels(shard).set(
                max(entry["epochs"].values(), default=0)
            )
            self._shard_wal_depth.labels(shard).set(entry["wal_depth"])
            self._shard_shm_gen.labels(shard).set(entry["shm_generation"])
        return self.metrics.render()

    def health(self) -> dict:
        stats = self.service_stats()
        with self._inflight_lock:
            inflight = len(self._inflight)
            unplanned = self._unplanned
        degraded = bool(stats["errored"] or stats["rejected"])
        shards = self.manager.shard_health()
        return {
            "status": "degraded" if degraded else "ok",
            "role": self.role,
            "fencing_token": 0,
            "replication_lag_epochs": 0,
            "followers": {},
            "running": self._running,
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "epochs": self.manager.graph_epochs(),
            "queue_depth": len(self.queue),
            "inflight_plans": inflight,
            "unplanned_queries": unplanned,
            "shed": stats["shed"],
            "errored": stats["errored"],
            "rejected": stats["rejected"],
            "missing_source": stats["missing_source"],
            "drain_timeouts": stats["drain_timeouts"],
            "retry_after_s": round(self.retry_after_hint(), 3),
            "workers": sum(s.pool.workers for s in self.manager.shards),
            "worker_pids": sorted(
                pid
                for s in self.manager.shards
                for pid in s.pool.worker_pids
            ),
            "pool_restarts": sum(
                s.pool.restarts for s in self.manager.shards
            ),
            "shm": {"enabled": False, "per_shard": True},
            "wal": {
                "enabled": bool(self.manager.wal_root),
                "per_shard": True,
            },
            "sharding": {
                "n_shards": self.n_shards,
                "scatter_rounds": int(self._rounds_total.get()),
                "shards": shards,
            },
        }

    def scatter_stats(self) -> dict:
        """Scatter-gather aggregates for BENCH schema v5."""
        scatter = self._scatter_hist.get()
        gather = self._gather_hist.get()

        def stage(snap: dict) -> dict:
            count = snap["count"]
            return {
                "rounds": int(count),
                "total_s": round(snap["sum"], 6),
                "mean_ms": round(
                    snap["sum"] / count * 1e3 if count else 0.0, 3
                ),
            }

        def per_shard(family) -> dict:
            return {k: int(v) for k, v in sorted(family.get().items())}

        return {
            "global_rounds": int(self._rounds_total.get()),
            "scatter_stage": stage(scatter),
            "gather_stage": stage(gather),
            "scatter_plans": per_shard(self._shard_plans),
            "frontier_triples": per_shard(self._shard_frontier),
            "relaxed_edges": per_shard(self._shard_relaxed),
            "local_rounds": per_shard(self._shard_rounds),
        }

    # -- plan dispatch (runs on the batcher thread) -------------------------

    def _dispatch_plan(
        self, queries: list[PendingQuery], degraded: bool = False
    ) -> None:
        plan_id = next(self._plan_ids)
        self.stats.inc("plans")
        self.stats.inc("plan_queries", len(queries))
        submitted_at = time.monotonic()
        with self._inflight_lock:
            self._inflight.add(plan_id)
            if not degraded:
                self._unplanned -= len(queries)
        for q in queries:
            q.trace.mark("plan_submit", submitted_at)
        pool = self._plan_pool
        if pool is None:  # stopped between drain and dispatch
            self._plan_failed(
                plan_id, queries, RuntimeError("front end is stopped")
            )
            return
        pool.submit(self._run_plan, plan_id, queries)

    # -- plan execution (runs on the plan-pool threads) ---------------------

    def _run_plan(self, plan_id: int, queries: list[PendingQuery]) -> None:
        first = queries[0].request
        epoch = queries[0].epoch
        sources = list(dict.fromkeys(q.request.source for q in queries))
        started = time.monotonic()
        for q in queries:
            q.trace.mark("worker_start", started)
        try:
            summaries = self._scatter_gather(first, epoch, sources)
        except Exception as exc:  # noqa: BLE001 - plan-level isolation
            self._plan_failed(plan_id, queries, exc)
            return
        ended = time.monotonic()
        self._plan_ewma.ewma(ended - started, alpha=0.2)
        for q in queries:
            q.trace.mark("worker_end", ended)
            per_source = summaries.get(q.request.source)
            if per_source is None:  # unreachable; mirrors the core guard
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
                            f"scatter plan {plan_id} is missing source "
                            f"{q.request.source} (not cached)"
                        ),
                    ),
                )
                continue
            self.stats.inc("completed")
            self.cache.put(q.request, q.epoch, per_source)
            self._finish(
                q,
                QueryResponse(
                    q.request.id,
                    "ok",
                    epoch=q.epoch,
                    plan_id=plan_id,
                    summaries=per_source,
                ),
            )
        self._retire(plan_id)

    def _plan_failed(
        self, plan_id: int, queries: list[PendingQuery], exc: BaseException
    ) -> None:
        retryable = [q for q in queries if not q.retried]
        terminal = [q for q in queries if q.retried]
        for q in retryable:
            q.retried = True
        if retryable:
            self.stats.inc("retries", len(retryable))
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

    def _scatter_gather(
        self, request: QueryRequest, epoch: int, sources: list[int]
    ) -> dict[int, list]:
        """Run one plan to quiescence; returns summaries per source.

        The merge discipline is the correctness core: shard-owned
        *updates* merge into the global matrix unconditionally (the
        owner's local fixed point is authoritative for its columns),
        while *boundary* candidates only become reseeds when they
        strictly improve the merged state — and reseeds carry the
        candidate value, entering the matrix on a later round as their
        owner's update.  Seeding works the same way, so the scatter
        kernel's preload-and-activate-on-improvement logic subsumes
        redundant rediscovery.
        """
        from repro.algorithms import get_algorithm
        from repro.schedule.scatter import (
            merge_triples,
            route_by_owner,
            seed_triples,
        )

        graph = request.graph
        part = self.manager.partitioner(graph)
        n = part.n_vertices
        algorithm = get_algorithm(request.algo)
        if request.window is not None:
            w_lo, w_hi = request.window
            n_snapshots = w_hi - w_lo + 1
        else:
            n_snapshots = self.config.n_snapshots
        n_states = len(sources) * n_snapshots
        identity_row = algorithm.identity_values(n)
        values = np.repeat(identity_row[None, :], n_states, axis=0)
        sv, ss, sval = seed_triples(sources, n_snapshots, algorithm)
        pending = route_by_owner(part, sv, ss, sval)
        rounds = 0
        while pending:
            rounds += 1
            scatter_t0 = time.perf_counter()
            futures = {}
            for shard_id, (v, s, val) in pending.items():
                lo, hi = part.vertex_range(shard_id)
                self._shard_plans.labels(shard_id).inc()
                self._shard_frontier.labels(shard_id).inc(v.size)
                futures[shard_id] = self.manager.shards[
                    shard_id
                ].submit_scatter(
                    graph,
                    request.algo,
                    n_states=n_states,
                    vertex_lo=lo,
                    vertex_hi=hi,
                    frontier=_encode_triples(v, s, val),
                    state_block=np.ascontiguousarray(values[:, lo:hi]),
                    window=request.window,
                    epoch=epoch,
                )
            results = []
            for shard_id, future in futures.items():
                result = future.result(timeout=self.config.budget_s)
                self._shard_relaxed.labels(shard_id).inc(
                    result.relaxed_edges
                )
                self._shard_rounds.labels(shard_id).inc(result.local_rounds)
                results.append(result)
            self._scatter_hist.observe(time.perf_counter() - scatter_t0)
            gather_t0 = time.perf_counter()
            for result in results:
                uv, us, uval = _decode_triples(result.updates)
                merge_triples(algorithm, values, uv, us, uval)
            reseed_v, reseed_s, reseed_val = [], [], []
            for result in results:
                bv, bs, bval = _decode_triples(result.boundary)
                if bv.size == 0:
                    continue
                improving = algorithm.better(bval, values[bs, bv])
                if np.any(improving):
                    reseed_v.append(bv[improving])
                    reseed_s.append(bs[improving])
                    reseed_val.append(bval[improving])
            if reseed_v:
                pending = route_by_owner(
                    part,
                    np.concatenate(reseed_v),
                    np.concatenate(reseed_s),
                    np.concatenate(reseed_val),
                )
            else:
                pending = {}
            self._gather_hist.observe(time.perf_counter() - gather_t0)
        self._rounds_total.inc(rounds)
        return {
            source: [
                _summarize(
                    algorithm, values[q * n_snapshots + k], k
                )
                for k in range(n_snapshots)
            ]
            for q, source in enumerate(sources)
        }
