"""Concurrent evolving-graph query service.

The serving layer over the reproduction: accept many concurrent queries
(graph, algorithm, source, snapshot window), coalesce the compatible ones
into shared multi-query BOE plans (``repro.core.multi_query``), execute
them on a process pool with per-worker scenario caches, cache results
until the next ingested delta invalidates them, and measure the whole
thing with a seeded open-loop load harness.

Modules:

* :mod:`repro.service.request` — query/response dataclasses, validation;
* :mod:`repro.service.batcher` — admission queue + coalescing rules;
* :mod:`repro.service.pool`    — worker pool, per-worker caches, budgets,
  fault points;
* :mod:`repro.service.cache`   — LRU result cache, ingest invalidation;
* :mod:`repro.service.ingest`  — delta batches and the packed delta log:
  synthesize, apply (slide);
* :mod:`repro.service.core`    — the :class:`QueryService` orchestrator;
* :mod:`repro.service.wal`     — write-ahead log: durable ingest, crash
  recovery, compaction;
* :mod:`repro.service.server`  — JSON-lines front end (``mega-repro serve``);
* :mod:`repro.service.replica` — WAL-shipping read replicas: follower
  mode, promotion, fencing (``mega-repro serve --follow``);
* :mod:`repro.service.cluster` — self-healing N-node replication group:
  heartbeat failure detection, quorum acks, fence-CAS leader election
  (``mega-repro serve --cluster N``);
* :mod:`repro.service.loadgen` — load harness (``mega-repro serve-bench``);
* :mod:`repro.service.drill`   — SIGKILL-and-recover, failover, and
  cluster chaos drills (``serve-bench --drill NAME --kill-at-epoch N``).

Observability (span timelines, the metrics registry behind the
``metrics`` op, sampled kernel profiling) lives in :mod:`repro.obs` and
is threaded through every stage here — see docs/OBSERVABILITY.md.
"""

from repro.service.batcher import (
    AdmissionQueue,
    PendingQuery,
    coalesce,
    split_expired,
)
from repro.service.cache import ResultCache
from repro.service.cluster import (
    CLUSTER_FAULT_POINTS,
    ClusterNode,
    HeartbeatMonitor,
)
from repro.service.core import (
    NotPrimaryError,
    QueryService,
    ReplicationGapError,
    ServiceConfig,
    ServiceStats,
    SimulatedCrash,
    parse_ack_mode,
)
from repro.service.drill import (
    DrillReport,
    run_chaos_kill_drill,
    run_crash_drill,
    run_failover_drill,
)
from repro.service.ingest import DeltaBatch, DeltaLog, apply_delta, synthesize_delta
from repro.service.loadgen import BenchReport, LoadSpec, run_load
from repro.service.pool import PlanPayload, PlanResult, WorkerPool
from repro.service.replica import REPLICA_FAULT_POINTS, ReplicaServer
from repro.service.request import (
    QueryRequest,
    QueryResponse,
    SnapshotSummary,
    validate_request,
)
from repro.service.server import ServiceFrontend, serve_stdio
from repro.service.wal import (
    WalFencedError,
    WalPosition,
    WalRecovery,
    WalWriteError,
    WriteAheadLog,
    advance_fence,
    current_fence_token,
    read_follower_cursors,
    read_from,
    recover_wal,
    safe_follower_id,
    try_claim_fence,
)

__all__ = [
    "AdmissionQueue",
    "BenchReport",
    "CLUSTER_FAULT_POINTS",
    "ClusterNode",
    "DeltaBatch",
    "DeltaLog",
    "DrillReport",
    "HeartbeatMonitor",
    "LoadSpec",
    "NotPrimaryError",
    "PendingQuery",
    "PlanPayload",
    "PlanResult",
    "QueryRequest",
    "QueryResponse",
    "QueryService",
    "REPLICA_FAULT_POINTS",
    "ReplicaServer",
    "ReplicationGapError",
    "ResultCache",
    "ServiceConfig",
    "ServiceFrontend",
    "ServiceStats",
    "SimulatedCrash",
    "SnapshotSummary",
    "WalFencedError",
    "WalPosition",
    "WalRecovery",
    "WalWriteError",
    "WorkerPool",
    "WriteAheadLog",
    "advance_fence",
    "apply_delta",
    "coalesce",
    "current_fence_token",
    "parse_ack_mode",
    "read_follower_cursors",
    "read_from",
    "recover_wal",
    "run_chaos_kill_drill",
    "run_crash_drill",
    "run_failover_drill",
    "run_load",
    "safe_follower_id",
    "serve_stdio",
    "split_expired",
    "synthesize_delta",
    "try_claim_fence",
    "validate_request",
]
