"""Seeded open-loop load harness for the query service.

Open loop means arrivals follow a fixed schedule (Poisson at ``rate_qps``)
regardless of how fast the service responds — the honest way to measure a
server, since a closed loop self-throttles and hides queueing collapse.
Sources are drawn Zipf-like from each graph's high-degree vertices, so the
workload repeats itself the way real query traffic does and the result
cache has something to hit.

Overload realism: queries can carry a deadline (``deadline_s``), and the
client retries shed/rejected queries with capped exponential backoff plus
jitter, honouring the service's ``retry_after`` hint — the cooperative
client the shedding path is designed for.  A query that exhausts its
retries counts as ``gave_up`` and marks the run degraded.

``run_load`` drives a :class:`~repro.service.core.QueryService` in
process, then folds the service's counters and the per-query latencies
into one JSON-able report (``serve-bench`` writes it to
``BENCH_service.json`` by default).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict, dataclass

import numpy as np

from repro.obs.trace import stage_percentiles
from repro.perf.backend import requested_tier
from repro.service.core import NotPrimaryError, QueryService, ServiceConfig
from repro.service.request import QueryRequest

__all__ = ["LoadSpec", "BenchReport", "run_load"]

#: 8: checkpoints — a ``sliding`` block (checkpoint count and a
#: post-drain ``parity`` verdict holding the service's answer per graph
#: and algorithm equal to from-scratch evaluation over its delta log); a
#: parity failure marks the run degraded.  Its worker-advance fields
#: (``slide_advances``, ``stable_vertex_rate``), ``shm.enabled`` and
#: ``cache_rebased`` left with the per-worker window servers, the
#: plane-off mode and the cache's per-slide re-keying, without a version
#: bump, as the schema-5 fields did; so did the ``config`` and
#: ``workload`` echoes' ``max_pending``, ``kernel_backend``, ``zipf_s``
#: and ``ingest_edges`` when they became constants or left;
#: 7: kernel-backend provenance — ``kernel_backend`` (requested tier +
#: the per-worker resolved map from the pool warm-up pings);
#: 6: cluster fields — ``failovers`` (writer re-resolutions of the
#: primary after its target died mid-run, i.e. ingest survived a leader
#: election) next to the schema-4 ``redirects``;
#: 5: fields of the retired scatter-gather front end (docs/SERVICE.md,
#: Partitioned serving); an unpartitioned report never held them;
#: 4: replication fields — ``redirects`` (ingests re-aimed at the primary
#: after a ``not_primary`` refusal), ``role``, ``replication_lag_epochs``;
#: 3: per-stage latency percentiles (``stage_latency_ms``), sampled span
#: timelines (``traces``), optional ``round_profile``.  Every schema-3
#: field is preserved.
BENCH_SCHEMA_VERSION = 8

#: base of the exponential backoff between client retries
RETRY_BASE_S = 0.05
#: give up on stragglers this long after the last arrival
DRAIN_TIMEOUT_S = 60.0
#: how long a writer keeps re-resolving the primary after its ingest
#: target dies mid-run (a leader election in progress) before giving up —
#: the redirect-following client's patience window
FAILOVER_GRACE_S = 30.0


#: Zipf exponent of the source draw (higher = more repeats)
ZIPF_S = 1.3
#: edges added *and* deleted per synthesized delta — sizes the per-epoch
#: apply work every reader of the chain must absorb
INGEST_EDGES = 8
#: queries draw their source from this many top-degree vertices
N_SOURCES = 16
#: probability a query asks for a random sub-window
WINDOW_FRACTION = 0.2


@dataclass
class LoadSpec:
    """One open-loop workload; ``serve-bench`` sets every field from a
    flag (docs/USAGE.md, Option audit)."""

    duration_s: float = 5.0
    rate_qps: float = 50.0
    seed: int = 0
    graphs: tuple[str, ...] = ("PK",)
    algos: tuple[str, ...] = ("sssp",)
    #: ingest a synthesized delta every this many seconds (0 = never)
    ingest_every_s: float = 0.0
    #: per-query execution deadline in seconds (0 = none)
    deadline_s: float = 0.0
    #: client-side retries of shed/rejected queries (0 = give up at once)
    max_retries: int = 0
    #: embed this many per-query span timelines in the report (0 = none)
    trace_sample: int = 0


@dataclass
class BenchReport:
    """Everything serve-bench measures, JSON-able."""

    config: dict
    workload: dict
    results: dict

    @property
    def degraded(self) -> bool:
        """Errored queries, queries that exhausted their retries, or an
        injected fault that did not recover, mark the run degraded (CLI
        exits non-zero).  Shed queries that a retry later completed are
        the overload protection *working*, not degradation."""
        r = self.results
        unrecovered = r["faults"]["injected"] > 0 and (
            r["faults"]["recovered"] == 0 and r["retries"] == 0
        )
        parity_failed = not (
            r.get("sliding", {}).get("parity", {}).get("ok", True)
        )
        return bool(
            r["errored"] or r["gave_up"] or unrecovered or parity_failed
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "bench": "service",
                "schema_version": BENCH_SCHEMA_VERSION,
                "config": self.config,
                "workload": self.workload,
                "results": self.results,
            },
            indent=2,
            sort_keys=True,
        )

    def format_table(self) -> str:
        r = self.results
        lat = r["latency_ms"]
        lines = [
            "== serve-bench: concurrent evolving-graph query service ==",
            f"submitted {r['submitted']}  completed {r['completed']}  "
            f"cached {r['cached']}  errored {r['errored']}  "
            f"rejected {r['rejected']}",
            f"shed {r['shed']}  client retries {r['client_retries']}  "
            f"gave up {r['gave_up']}  redirects {r.get('redirects', 0)}  "
            f"failovers {r.get('failovers', 0)}",
            f"throughput {r['throughput_qps']:.1f} q/s  "
            f"(offered {r['offered_qps']:.1f} q/s "
            f"over {r['duration_s']:.1f}s)",
            f"latency ms  p50 {lat['p50']:.1f}  p95 {lat['p95']:.1f}  "
            f"p99 {lat['p99']:.1f}  mean {lat['mean']:.1f}",
            f"plans {r['plans']}  batching factor "
            f"{r['batching_factor']:.2f} queries/plan",
            f"cache hit rate {r['cache_hit_rate']:.1%}  "
            f"ingests {r['ingests']}",
            f"faults injected {r['faults']['injected']}  "
            f"recovered {r['faults']['recovered']}  "
            f"plan retries {r['retries']}",
        ]
        if r["wal"].get("enabled"):
            lines.append(
                f"wal records {r['wal']['records']}  "
                f"lag {r['wal']['lag_records']}  "
                f"compactions {r['wal']['compactions']}"
            )
        sliding = r.get("sliding", {})
        if sliding.get("enabled"):
            parity = sliding.get("parity", {})
            lines.append(
                f"slides {sliding['slides']}  "
                f"parity {'ok' if parity.get('ok') else 'FAILED'} "
                f"({parity.get('checked', 0)} checks)"
            )
        if r.get("role", "primary") != "primary":
            lines.append(
                f"role {r['role']}  replication lag "
                f"{r.get('replication_lag_epochs', 0)} epochs"
            )
        stages = r.get("stage_latency_ms", {})
        if stages:
            parts = [
                f"{name} {stages[name]['p95']:.1f}"
                for name in (
                    "admit_to_plan", "plan_to_worker", "worker",
                    "worker_to_resolve",
                )
                if name in stages
            ]
            if parts:
                lines.append("stage p95 ms  " + "  ".join(parts))
        prof = r.get("round_profile")
        if prof and prof.get("sections"):
            parts = [
                f"{name} {sec['mean_us']:.0f}us/round"
                for name, sec in prof["sections"].items()
            ]
            lines.append(
                f"kernel profile (1/{prof['sample_every']} rounds)  "
                + "  ".join(parts)
            )
        return "\n".join(lines)


def _source_pool(graph: str, scale: str, n_snapshots: int, n: int) -> list[int]:
    """Top-degree vertices of the graph's common graph (stable targets)."""
    from repro.experiments.runner import scenario_cache

    scenario = scenario_cache(graph, scale, n_snapshots=n_snapshots)
    degrees = np.diff(scenario.common_graph().indptr)
    ranked = np.argsort(-degrees)
    return [int(v) for v in ranked[: max(1, min(n, len(ranked)))]]


def _zipf_weights(n: int, s: float) -> np.ndarray:
    """Normalized Zipf probability vector (hoisted out of the arrival
    loop — it was rebuilt per arrival, dominating schedule planning for
    large source pools)."""
    weights = 1.0 / np.arange(1, n + 1) ** s
    return weights / weights.sum()


def _zipf_index(rng: np.random.Generator, weights: np.ndarray) -> int:
    return int(rng.choice(len(weights), p=weights))


def _plan_arrivals(
    cfg: ServiceConfig,
    spec: LoadSpec,
    rng: np.random.Generator,
    pools: dict[str, list[int]],
) -> list[tuple[float, QueryRequest]]:
    """Pre-plan the Poisson arrival schedule (no RNG in the submit loop).

    Window draws are valid for any snapshot count: with a single
    snapshot the only window is ``(0, 0)`` (``rng.integers(0)`` raises,
    which used to crash ``--snapshots 1`` runs with a window fraction).
    """
    zipf = {g: _zipf_weights(len(pool), ZIPF_S)
            for g, pool in pools.items()}
    arrivals: list[tuple[float, QueryRequest]] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / spec.rate_qps))
        if t >= spec.duration_s:
            break
        graph = spec.graphs[int(rng.integers(len(spec.graphs)))]
        algo = spec.algos[int(rng.integers(len(spec.algos)))]
        pool = pools[graph]
        source = pool[_zipf_index(rng, zipf[graph])]
        window = None
        if rng.random() < WINDOW_FRACTION:
            lo = (
                int(rng.integers(cfg.n_snapshots - 1))
                if cfg.n_snapshots > 1 else 0
            )
            hi = int(rng.integers(lo, cfg.n_snapshots))
            window = (lo, hi)
        arrivals.append(
            (t, QueryRequest(graph=graph, algo=algo, source=source,
                             window=window,
                             deadline_s=spec.deadline_s or None))
        )
    return arrivals


def _retry_query(
    service: QueryService,
    request: QueryRequest,
    response,
    spec: LoadSpec,
    rng: np.random.Generator,
    deadline: float,
) -> tuple[object, int]:
    """Client-side backoff loop for one shed/rejected query.

    Exponential backoff with full jitter, floored at the service's
    ``retry_after`` hint; returns the final response and attempt count.
    """
    attempts = 0
    while (
        response is not None
        and response.retryable
        and attempts < spec.max_retries
        and time.monotonic() < deadline
    ):
        base = RETRY_BASE_S * (2 ** attempts)
        if response.retry_after is not None:
            base = max(base, response.retry_after)
        pause = min(base, 2.0) * (0.5 + float(rng.random()))
        time.sleep(min(pause, max(0.0, deadline - time.monotonic())))
        attempts += 1
        retry = QueryRequest(
            graph=request.graph,
            algo=request.algo,
            source=request.source,
            window=request.window,
            deadline_s=request.deadline_s,
        )
        handle = service.submit(retry)
        response = handle.wait(timeout=max(0.0, deadline - time.monotonic()))
    return response, attempts


def _served_parity(service, spec: LoadSpec) -> dict:
    """Differential check of what the service serves, run after the drain.

    For every (graph, algorithm) the run served, ask the service twice
    more from the graph's top source — over one interior sub-window,
    then the full window — and compare each answer, digest for digest,
    with from-scratch evaluation over the delta log it ingested
    (``graph_deltas``) up to the epoch it answered at.  The sub-window's
    reference is evaluated on that window's own scenario, so the check
    covers the coordinator slicing a full-window plan's answer.  Any
    mismatch fails the check (and degrades the bench).
    """
    from repro.service.drill import _digests_match, _reference_summaries

    cfg = service.config
    lo = min(1, cfg.n_snapshots - 1)
    sub = (lo, max(lo, cfg.n_snapshots - 2))
    checked = 0
    mismatches: list[dict] = []
    for graph in spec.graphs:
        source = _source_pool(graph, cfg.scale, cfg.n_snapshots, 1)[0]
        #: reference digests per served (epoch, window): one epoch,
        #: unless a follower applied one between two of these queries
        references: dict[tuple, dict] = {}
        for algo in spec.algos:
            for window in (sub, None):
                checked += 1
                response = service.submit(QueryRequest(
                    graph=graph, algo=algo, source=source, window=window,
                )).wait(timeout=DRAIN_TIMEOUT_S)
                if response is None or not response.ok:
                    mismatches.append({"graph": graph, "algo": algo,
                                       "window": window, "epoch": None})
                    continue
                key = (response.epoch, window)
                if key not in references:
                    references[key] = _reference_summaries(
                        graph, cfg.scale, cfg.n_snapshots,
                        service.graph_deltas(graph)[:response.epoch],
                        spec.algos, source, window,
                    )
                served = [s.as_dict() for s in response.summaries]
                if not _digests_match(served, references[key][algo]):
                    mismatches.append({"graph": graph, "algo": algo,
                                       "window": window,
                                       "epoch": response.epoch})
    return {"checked": checked, "ok": not mismatches,
            "mismatches": mismatches}


def run_load(
    service: QueryService,
    spec: LoadSpec,
    resolve_primary=None,
) -> BenchReport:
    """Drive ``service`` with ``spec``; both must already be configured.

    The service must be started; this call blocks for the workload
    duration plus drain time.

    ``resolve_primary`` finds the redirect target when ``service`` is a
    follower: a zero-argument callable returning the current ingest
    target (anything with ``.ingest``; ``None`` = no primary known yet).
    An ingest refused with ``not_primary`` backs off briefly (the same
    cooperative-client posture as the shed/reject retry loop) and is
    re-sent there, counted under ``redirects`` in the report.  Without
    ``resolve_primary`` the refusal propagates.

    The target may change across a leader election.  When the writer's
    target dies mid-ingest it keeps re-resolving for up to
    ``FAILOVER_GRACE_S`` — each change of target counts as a
    ``failover`` in the report — and, because the in-flight write may
    have landed on the dead primary's WAL and survived onto its elected
    successor, it consults the new target's ``epoch`` before re-sending:
    an epoch past the writer's last confirmed one means the write made
    it, and re-sending would fork the seeded delta chain.  (That dedup
    assumes this writer is the only ingest client, which is exactly the
    drill/bench harness topology.)
    """
    cfg = service.config
    rng = np.random.default_rng(spec.seed)
    retry_rng = np.random.default_rng(spec.seed + 0x5EED)
    pools = {
        g: _source_pool(g, cfg.scale, cfg.n_snapshots, N_SOURCES)
        for g in spec.graphs
    }

    arrivals = _plan_arrivals(cfg, spec, rng, pools)

    # writes come from their own client thread: the read arrival loop
    # never stalls on an ingest apply, a redirect backoff, or the
    # round-trip to a remote primary — readers and writers are separate
    # clients in any real deployment, and serializing them here would
    # understate read throughput in exactly the follower topology the
    # redirect path exists for
    redirects = 0
    failovers = 0
    write_errors: list[BaseException] = []
    stop_writes = threading.Event()
    writer_rng = np.random.default_rng(spec.seed + 0xD00D)
    #: per-graph epoch of this writer's last confirmed ingest — the dedup
    #: baseline for failover re-sends (single-writer assumption)
    confirmed: dict[str, int] = {}
    #: the writer's current remote target, for failover counting
    target: list = [None]

    def _acquire_target():
        try:
            return resolve_primary()
        except Exception:  # noqa: BLE001 - no primary known right now
            return None

    def _send(graph: str, seed: int) -> bool:
        """One logical ingest: local, else redirect, else follow the
        failover until a new primary answers or the grace runs out."""
        nonlocal redirects, failovers
        try:
            confirmed[graph] = service.ingest(
                graph, seed=seed,
                n_add=INGEST_EDGES, n_del=INGEST_EDGES,
            )
            return True
        except NotPrimaryError:
            if resolve_primary is None:
                raise
        base = confirmed.get(graph)
        if base is None:
            # no confirmed write yet: the follower's applied epoch is the
            # best available baseline for survived-write detection
            base = service.epoch(graph)
        maybe_applied = False
        deadline = time.monotonic() + FAILOVER_GRACE_S
        while time.monotonic() < deadline:
            nxt = _acquire_target()
            if nxt is None:
                time.sleep(0.02)
                continue
            if target[0] is not None and nxt is not target[0]:
                failovers += 1
            target[0] = nxt
            if maybe_applied:
                # our last attempt died mid-flight; if the (possibly new)
                # primary already carries an epoch past our baseline, the
                # write survived the failover — re-sending would fork the
                # seeded chain
                epoch_of = getattr(nxt, "epoch", None)
                if epoch_of is not None:
                    try:
                        cur = int(epoch_of(graph))
                    except Exception:  # noqa: BLE001 - target flapping
                        time.sleep(0.02)
                        continue
                    if cur > base:
                        confirmed[graph] = cur
                        return True
            # cooperative redirect: brief jittered backoff, then re-aim
            time.sleep(
                RETRY_BASE_S * (0.5 + float(writer_rng.random()))
            )
            try:
                epoch = nxt.ingest(
                    graph, seed=seed,
                    n_add=INGEST_EDGES, n_del=INGEST_EDGES,
                )
            except NotPrimaryError:
                continue  # stale target (demoted since): re-resolve
            except Exception:  # noqa: BLE001 - target died mid-send
                maybe_applied = True
                continue
            redirects += 1
            confirmed[graph] = int(epoch)
            return True
        return False

    def _writer() -> None:
        seed = spec.seed
        writes = 0
        next_due = spec.ingest_every_s
        while not stop_writes.is_set():
            wait = start + next_due - time.monotonic()
            if wait > 0 and stop_writes.wait(wait):
                break
            seed += 1
            graph = spec.graphs[writes % len(spec.graphs)]
            writes += 1
            try:
                if not _send(graph, seed):
                    raise TimeoutError(
                        f"no primary accepted {graph} seed {seed} within "
                        f"the {FAILOVER_GRACE_S:.1f}s failover grace"
                    )
            except BaseException as exc:  # noqa: BLE001 - rethrown below
                write_errors.append(exc)
                return
            next_due += spec.ingest_every_s

    start = time.monotonic()
    writer = None
    if spec.ingest_every_s > 0:
        writer = threading.Thread(
            target=_writer, name="loadgen-writer", daemon=True
        )
        writer.start()
    handles = []
    try:
        for due, request in arrivals:
            now = time.monotonic() - start
            if due > now:
                time.sleep(due - now)
            handles.append(service.submit(request))
    finally:
        stop_writes.set()
        if writer is not None:
            writer.join(timeout=30.0)
    if write_errors:
        raise write_errors[0]
    submitted_window = time.monotonic() - start

    deadline = time.monotonic() + DRAIN_TIMEOUT_S
    responses = []
    client_retries = 0
    for h in handles:
        r = h.wait(timeout=max(0.0, deadline - time.monotonic()))
        if r is not None and r.retryable and spec.max_retries > 0:
            r, attempts = _retry_query(
                service, h.request, r, spec, retry_rng, deadline
            )
            client_retries += attempts
        responses.append((h, r))
    end = time.monotonic()

    latencies = [
        r.latency_s * 1e3 for __, r in responses if r is not None and r.ok
    ]
    lost = sum(1 for __, r in responses if r is None)
    gave_up = sum(
        1 for __, r in responses if r is not None and r.retryable
    )
    stats = service.service_stats()
    completed = stats["completed"]
    duration = max(end - start, 1e-9)

    def pct(p: float) -> float:
        return float(np.percentile(latencies, p)) if latencies else 0.0

    # per-stage breakdown over every resolved query's span timeline
    stage_latency = stage_percentiles(
        [h.trace.stage_durations_ms() for h, r in responses if r is not None]
    )
    traces = [
        {
            "id": h.request.id,
            "status": r.status,
            **h.trace.as_dict(),
        }
        for h, r in responses[: max(0, spec.trace_sample)]
        if r is not None
    ]
    round_profile = service.round_profile()

    results = {
        "submitted": stats["submitted"],
        "completed": completed,
        "cached": stats["cached"],
        "errored": stats["errored"] + lost,
        "rejected": stats["rejected"],
        "shed": stats["shed"],
        "client_retries": client_retries,
        "gave_up": gave_up,
        "offered_qps": len(arrivals) / max(spec.duration_s, 1e-9),
        "throughput_qps": completed / duration,
        "duration_s": duration,
        "submit_window_s": submitted_window,
        "latency_ms": {
            "p50": pct(50), "p95": pct(95), "p99": pct(99),
            "mean": float(np.mean(latencies)) if latencies else 0.0,
        },
        "plans": stats["plans"],
        "batching_factor": stats["batching_factor"],
        "cache_hit_rate": stats["cache"]["hit_rate"],
        "retries": stats["retries"],
        "ingests": stats["ingests"],
        "redirects": redirects,
        "failovers": failovers,
        "role": service.role,
        "replication_lag_epochs": (
            service.replica.lag_epochs()
            if service.replica is not None
            else max(service.follower_lags().values(), default=0)
        ),
        "faults": {
            "injected": len(cfg.inject_fault),
            "recovered": stats["faults_recovered"],
        },
        "wal": (
            service.wal.stats() if service.wal is not None
            else {"enabled": False}
        ),
        "shm": service.plane.stats(),
        "stage_latency_ms": {
            stage: {k: round(v, 3) for k, v in pcts.items()}
            for stage, pcts in stage_latency.items()
        },
        "traces": traces,
    }
    slide_every = int(getattr(cfg, "window_slide_every", 0) or 0)
    if slide_every > 0:
        results["sliding"] = {
            "enabled": True,
            "slide_every": slide_every,
            "slides": stats.get("slides", 0),
            "parity": _served_parity(service, spec),
        }
    else:
        results["sliding"] = {"enabled": False}
    if round_profile.get("sections"):
        results["round_profile"] = round_profile
    # which kernel tier actually served the run (schema 7): requested
    # backend plus the per-worker resolved map, so a mixed pool is
    # visible in the bench artifact
    results["kernel_backend"] = {
        "requested": requested_tier(),
        "workers": {
            str(pid): name
            for pid, name in sorted(service.pool.worker_backends.items())
        },
    }
    workload = asdict(spec)
    workload["graphs"] = list(spec.graphs)
    workload["algos"] = list(spec.algos)
    config = asdict(cfg)
    config["inject_fault"] = list(cfg.inject_fault)
    return BenchReport(config=config, workload=workload, results=results)
