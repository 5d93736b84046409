"""Observability subsystem + the four PR-5 regression suites.

Covers, in order:

* the metrics primitives (counter/gauge/histogram/registry/render);
* the EWMA lost-update regression (gauge RMW must be atomic);
* span timelines: monotonicity, stage derivation, percentile folding;
* the drain race regression (accepted-but-unplanned queries must block
  ``drain()``);
* the missing-source regression (a plan result lacking a query's source
  resolves as error and is never cached);
* concurrent plan completions (counters and in-flight bookkeeping stay
  consistent under parallel done-callbacks);
* the ``--snapshots 1`` load-harness regression;
* sampled kernel profiling (zero-cost guard, engine sections, merge).

Concurrency tests are deterministic: they synchronize on events and
barriers, never on sleeps.
"""

from __future__ import annotations

import math
import sys
import threading
from concurrent.futures import Future

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profile import (
    RoundProfiler,
    active_profiler,
    merge_profiles,
    profiled,
)
from repro.obs.trace import STAGES, QueryTrace, stage_percentiles
from repro.perf.backend import get_backend
from repro.service import (
    LoadSpec,
    PendingQuery,
    QueryRequest,
    QueryService,
    ServiceConfig,
    ServiceFrontend,
    run_load,
)
from repro.service import loadgen
from repro.service.loadgen import _plan_arrivals
from repro.service.pool import PlanResult
from repro.service.request import SnapshotSummary

pytestmark = pytest.mark.timeout(120)


def _tiny_config(**kw) -> ServiceConfig:
    defaults = dict(
        scale="tiny", n_snapshots=4, workers=1,
    )
    defaults.update(kw)
    return ServiceConfig(**defaults)


# ---------------------------------------------------------------------------
# metrics primitives
# ---------------------------------------------------------------------------


def test_counter_is_monotonic():
    c = Counter("x_total")
    c.inc()
    c.inc(4)
    assert c.get() == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_set_add_ewma():
    g = Gauge("g", initial=1.0)
    g.set(3.0)
    g.add(-0.5)
    assert g.get() == pytest.approx(2.5)
    out = g.ewma(0.0, alpha=0.5)
    assert out == pytest.approx(1.25)
    assert g.get() == pytest.approx(1.25)


def test_histogram_buckets_are_cumulative():
    h = Histogram("lat", buckets=(0.01, 0.1, 1.0))
    for v in (0.005, 0.05, 0.5, 5.0):
        h.observe(v)
    snap = h.get()
    assert snap["count"] == 4
    assert snap["sum"] == pytest.approx(5.555)
    assert snap["buckets"] == {0.01: 1, 0.1: 2, 1.0: 3}


def test_registry_is_idempotent_and_kind_checked():
    reg = MetricsRegistry()
    a = reg.counter("n_total", "help text")
    assert reg.counter("n_total") is a
    with pytest.raises(ValueError):
        reg.gauge("n_total")
    reg.gauge_fn("cb", lambda: 7)
    assert reg.snapshot()["cb"] == 7.0


def test_callback_gauge_never_raises():
    reg = MetricsRegistry()
    reg.gauge_fn("boom", lambda: 1 / 0)
    assert math.isnan(reg.get("boom").get())
    # and a scrape over it still renders
    assert "boom" in reg.render()


def test_render_is_prometheus_text():
    reg = MetricsRegistry()
    reg.counter("a_total", "things").inc(2)
    reg.gauge("b", "level").set(1.5)
    reg.histogram("h", buckets=(0.5,)).observe(0.1)
    text = reg.render()
    assert text.endswith("\n")
    assert "# HELP a_total things" in text
    assert "# TYPE a_total counter" in text
    assert "a_total 2" in text
    assert "b 1.5" in text
    assert 'h_bucket{le="0.5"} 1' in text
    assert 'h_bucket{le="+Inf"} 1' in text
    assert "h_count 1" in text
    # every sample line parses as "name value"
    for line in text.strip().splitlines():
        if line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        assert name
        float(value)


def test_labeled_gauge_set_and_get():
    reg = MetricsRegistry()
    fam = reg.labeled_gauge("mega_test_depth", "per-node test gauge", "node")
    fam.labels("a").set(7)
    fam.labels("a").set(2)
    fam.labels("b").set(5)
    assert fam.get() == {"a": 2, "b": 5}
    text = reg.render()
    assert 'mega_test_depth{node="a"} 2' in text
    assert 'mega_test_depth{node="b"} 5' in text
    # one HELP/TYPE header for the whole family, not one per child
    assert text.count("# HELP mega_test_depth") == 1
    fam.discard("b")
    assert fam.get() == {"a": 2}


# ---------------------------------------------------------------------------
# regression: the plan-latency EWMA was an unlocked read-modify-write
# ---------------------------------------------------------------------------


def test_gauge_add_loses_no_updates_under_contention():
    """Atomic RMW: N threads x M increments must land exactly N*M."""
    g = Gauge("g")
    n_threads, n_incs = 8, 2000
    barrier = threading.Barrier(n_threads)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # amplify interleaving

    def work():
        barrier.wait()
        for __ in range(n_incs):
            g.add(1.0)

    try:
        threads = [threading.Thread(target=work) for __ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(old_interval)
    assert g.get() == n_threads * n_incs


def test_gauge_ewma_is_a_serialized_interleaving():
    """Two concurrent ewma samples must fold in *some* order — the final
    value is one of the two serialized outcomes, never a torn mix."""
    outcomes = set()
    for __ in range(50):
        g = Gauge("g", initial=0.0)
        barrier = threading.Barrier(2)

        def fold(sample, g=g, barrier=barrier):
            barrier.wait()
            g.ewma(sample, alpha=0.2)

        t1 = threading.Thread(target=fold, args=(1.0,))
        t2 = threading.Thread(target=fold, args=(0.5,))
        t1.start(); t2.start(); t1.join(); t2.join()
        outcomes.add(round(g.get(), 6))
    # order a: 0.2*1.0=0.2 then 0.8*0.2+0.2*0.5=0.26
    # order b: 0.2*0.5=0.1 then 0.8*0.1+0.2*1.0=0.28
    assert outcomes <= {0.26, 0.28}


def test_service_ewma_feeds_retry_after(tmp_path):
    svc = QueryService(_tiny_config())
    try:
        assert svc._plan_ewma.get() == pytest.approx(0.05)
        fut = Future()
        fut.set_result(
            PlanResult(plan_id=1, epoch=0, summaries={}, elapsed_s=1.0)
        )
        svc._on_plan_done(1, [], fut)
        assert svc._plan_ewma.get() == pytest.approx(0.8 * 0.05 + 0.2 * 1.0)
        assert svc.retry_after_hint() > 0.05
    finally:
        svc.stop(drain=False)


# ---------------------------------------------------------------------------
# span timelines
# ---------------------------------------------------------------------------


def test_trace_first_mark_wins_and_stages_derive():
    tr = QueryTrace()
    tr.mark("admit", 10.0)
    tr.mark("plan_submit", 10.1)
    tr.mark("plan_submit", 99.0)  # a retry must not overwrite
    tr.mark("worker_start", 10.2)
    tr.mark("worker_end", 10.25)
    tr.mark("resolve", 10.3)
    stages = tr.stage_durations_ms()
    assert stages["admit_to_plan"] == pytest.approx(100.0)
    assert stages["plan_to_worker"] == pytest.approx(100.0)
    assert stages["worker"] == pytest.approx(50.0)
    assert stages["total"] == pytest.approx(300.0)


LEAF_STAGES = ("admit_to_plan", "plan_to_worker", "worker",
               "worker_to_resolve")


def test_leaf_stages_sum_to_total():
    """The leaf spans tile admit -> resolve: no stage is counted twice."""
    tr = QueryTrace()
    for stage, at in zip(STAGES, (1.0, 1.01, 1.02, 1.05, 1.2, 1.7, 1.75)):
        tr.mark(stage, at)
    stages = tr.stage_durations_ms()
    assert stages["worker_to_resolve"] == pytest.approx(50.0)
    assert sum(stages[s] for s in LEAF_STAGES) == pytest.approx(
        stages["total"], abs=1e-9
    )


def test_trace_clamps_clock_skew_to_zero():
    tr = QueryTrace()
    tr.mark("worker_start", 5.0)
    tr.mark("worker_end", 4.0)
    assert tr.stage_durations_ms()["worker"] == 0.0


def test_trace_as_dict_offsets_from_admit():
    tr = QueryTrace()
    tr.mark("admit", 2.0)
    tr.mark("resolve", 2.5)
    doc = tr.as_dict()
    assert doc["marks_ms"] == {"admit": 0.0, "resolve": 500.0}
    assert doc["stages_ms"]["total"] == pytest.approx(500.0)


def test_stage_percentiles_folds_known_values():
    dicts = [{"worker": float(v)} for v in range(1, 101)]
    out = stage_percentiles(dicts)
    assert out["worker"]["n"] == 100
    assert out["worker"]["p50"] == pytest.approx(50.5)
    assert out["worker"]["p99"] == pytest.approx(99.01)
    assert out["worker"]["mean"] == pytest.approx(50.5)


def test_query_response_reports_stage_breakdown():
    svc = QueryService(_tiny_config()).start()
    try:
        handle = svc.submit(QueryRequest(graph="PK", algo="bfs", source=0))
        response = handle.wait(timeout=60)
        assert response is not None and response.status == "ok"
        # the timeline crossed every stage, in order
        marks = handle.trace.marks
        crossed = [s for s in STAGES if s in marks]
        assert crossed == list(STAGES)
        assert all(
            marks[a] <= marks[b]
            for a, b in zip(crossed, crossed[1:])
        )
        stages = response.stages
        assert stages is not None and "worker" in stages
        assert stages["total"] >= 0.0
        assert sum(stages[s] for s in LEAF_STAGES) == pytest.approx(
            stages["total"], abs=1e-3
        )
        assert response.as_dict()["stages_ms"]["worker"] >= 0.0
        # cache hits carry a partial timeline (no worker stage)
        cached = svc.submit(
            QueryRequest(graph="PK", algo="bfs", source=0)
        ).wait(timeout=60)
        assert cached.status == "cached"
        assert "worker" not in (cached.stages or {})
    finally:
        svc.stop()


# ---------------------------------------------------------------------------
# regression: drain() vs. queries the batcher holds un-submitted
# ---------------------------------------------------------------------------


def test_drain_waits_for_batcher_held_queries(monkeypatch):
    """A query drained from the queue but not yet bound to a plan must
    keep ``drain()`` returning False — pre-fix it was invisible (queue
    empty, nothing in flight) and ``stop(drain=True)`` could shut the
    pool under it."""
    import repro.service.batcher as batcher_mod

    inside = threading.Event()
    release = threading.Event()
    real_coalesce = batcher_mod.coalesce

    def slow_coalesce(pending, max_batch):
        inside.set()
        assert release.wait(timeout=60)
        return real_coalesce(pending, max_batch)

    monkeypatch.setattr(batcher_mod, "coalesce", slow_coalesce)
    svc = QueryService(_tiny_config()).start()
    try:
        handle = svc.submit(QueryRequest(graph="PK", algo="bfs", source=1))
        assert inside.wait(timeout=60)  # batcher holds the drained query
        assert len(svc.queue) == 0
        assert not svc._inflight
        # the fix: the accepted-but-unplanned count keeps drain honest
        assert not svc.drain(timeout=0.3)
        release.set()
        assert svc.drain(timeout=60)
        assert handle.wait(timeout=60).status == "ok"
    finally:
        release.set()
        svc.stop(drain=False)


def test_unplanned_count_returns_to_zero_on_shed():
    svc = QueryService(_tiny_config())
    try:
        # expired before the batcher ever runs (service not started)
        handle = svc.submit(
            QueryRequest(graph="PK", algo="bfs", source=0, deadline_s=1e-9)
        )
        svc.start()
        assert handle.wait(timeout=60).status == "shed"
        assert svc.drain(timeout=60)
        assert svc._unplanned == 0
    finally:
        svc.stop(drain=False)


# ---------------------------------------------------------------------------
# regression: plan results missing a query's source were cached as ok-empty
# ---------------------------------------------------------------------------


def _done_future(result) -> Future:
    fut = Future()
    fut.set_result(result)
    return fut


def test_missing_source_resolves_error_and_never_caches():
    svc = QueryService(_tiny_config())
    try:
        request = QueryRequest(graph="PK", algo="bfs", source=3)
        pending = PendingQuery(request, epoch=0)
        result = PlanResult(plan_id=7, epoch=0, summaries={})  # no source 3
        svc._on_plan_done(7, [pending], _done_future(result))
        response = pending.wait(timeout=5)
        assert response.status == "error"
        assert "missing source 3" in response.error
        assert svc.stats.get("missing_source") == 1
        assert svc.stats.get("errored") == 1
        assert svc.stats.get("completed") == 0
        # the poison outcome pre-fix: a permanently cached empty answer
        assert svc.cache.get(request, epoch=0) is None
        assert svc.service_stats()["missing_source"] == 1
    finally:
        svc.stop(drain=False)


def test_present_sources_still_complete_alongside_missing():
    svc = QueryService(_tiny_config())
    try:
        ok_req = QueryRequest(graph="PK", algo="bfs", source=1)
        bad_req = QueryRequest(graph="PK", algo="bfs", source=2)
        ok, bad = PendingQuery(ok_req, 0), PendingQuery(bad_req, 0)
        summaries = {1: [SnapshotSummary(0, 5, 4.0)]}
        result = PlanResult(plan_id=9, epoch=0, summaries=summaries)
        svc._on_plan_done(9, [ok, bad], _done_future(result))
        assert ok.wait(timeout=5).status == "ok"
        assert bad.wait(timeout=5).status == "error"
        assert svc.cache.get(ok_req, 0) is not None
        assert svc.cache.get(bad_req, 0) is None
    finally:
        svc.stop(drain=False)


# ---------------------------------------------------------------------------
# concurrent plan completions stay consistent
# ---------------------------------------------------------------------------


def test_concurrent_plan_completions_keep_books_straight():
    svc = QueryService(_tiny_config())
    try:
        n_plans, per_plan = 16, 4
        plans = []
        for pid in range(1, n_plans + 1):
            queries = [
                PendingQuery(
                    QueryRequest(graph="PK", algo="bfs", source=s), 0
                )
                for s in range(per_plan)
            ]
            summaries = {
                s: [SnapshotSummary(0, 1, 1.0)] for s in range(per_plan)
            }
            with svc._inflight_lock:
                svc._inflight.add(pid)
            plans.append(
                (pid, queries,
                 PlanResult(plan_id=pid, epoch=0, summaries=summaries,
                            elapsed_s=0.01))
            )
        barrier = threading.Barrier(n_plans)
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)

        def complete(pid, queries, result):
            barrier.wait()
            svc._on_plan_done(pid, queries, _done_future(result))

        try:
            threads = [
                threading.Thread(target=complete, args=plan)
                for plan in plans
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(old_interval)
        assert svc.stats.get("completed") == n_plans * per_plan
        assert not svc._inflight
        for __, queries, __r in plans:
            for q in queries:
                assert q.wait(timeout=5).status == "ok"
        # the latency histogram saw every resolution
        assert svc._latency.get()["count"] == n_plans * per_plan
    finally:
        svc.stop(drain=False)


# ---------------------------------------------------------------------------
# regression: serve-bench crashed with --snapshots 1 and a window fraction
# ---------------------------------------------------------------------------


def test_plan_arrivals_single_snapshot_windows(monkeypatch):
    import numpy as np

    monkeypatch.setattr(loadgen, "WINDOW_FRACTION", 1.0)
    cfg = ServiceConfig(scale="tiny", n_snapshots=1)
    spec = LoadSpec(duration_s=1.0, rate_qps=200.0, seed=1)
    pools = {"PK": [0, 1, 2]}
    arrivals = _plan_arrivals(cfg, spec, np.random.default_rng(1), pools)
    assert arrivals
    windows = {req.window for __, req in arrivals}
    assert windows == {(0, 0)}  # the only valid window at 1 snapshot


def test_serve_bench_single_snapshot_end_to_end(monkeypatch):
    monkeypatch.setattr(loadgen, "WINDOW_FRACTION", 0.5)
    cfg = _tiny_config(n_snapshots=1)
    spec = LoadSpec(duration_s=0.4, rate_qps=40.0, seed=2, trace_sample=3)
    with QueryService(cfg) as svc:
        report = run_load(svc, spec)
    r = report.results
    assert not report.degraded
    assert r["submitted"] > 0 and r["errored"] == 0
    assert "total" in r["stage_latency_ms"]
    assert 0 < len(r["traces"]) <= 3
    for tr in r["traces"]:
        assert set(tr) >= {"id", "status", "marks_ms", "stages_ms"}


# ---------------------------------------------------------------------------
# metrics threaded through the service + frontend
# ---------------------------------------------------------------------------


def test_metrics_op_renders_service_instruments():
    svc = QueryService(_tiny_config()).start()
    try:
        svc.submit(QueryRequest(graph="PK", algo="bfs", source=0)).wait(60)
        frontend = ServiceFrontend(svc)
        out = frontend.handle_line('{"op": "metrics"}')
        assert out["ok"]
        text = out["metrics"]
        for name in (
            "mega_queue_depth",
            "mega_inflight_plans",
            "mega_unplanned_queries",
            "mega_result_cache_entries",
            "mega_result_cache_hit_rate",
            "mega_wal_enabled",
            "mega_wal_records",
            "mega_shm_segments",
            "mega_pool_restarts",
            "mega_plan_ewma_seconds",
            "mega_query_latency_seconds_bucket",
            "mega_service_submitted_total",
            "mega_service_missing_source_total",
        ):
            assert name in text, f"missing {name}"
        assert "mega_service_submitted_total 1" in text
    finally:
        svc.stop()


def test_stats_snapshot_shape_is_preserved():
    svc = QueryService(_tiny_config())
    try:
        stats = svc.service_stats()
        for key in (
            "submitted", "completed", "cached", "errored", "rejected",
            "shed", "plans", "plan_queries", "retries", "faults_recovered",
            "ingests", "drain_timeouts", "wal_records", "wal_compactions",
            "batching_factor", "cache", "missing_source",
        ):
            assert key in stats
    finally:
        svc.stop(drain=False)


# ---------------------------------------------------------------------------
# sampled kernel profiling
# ---------------------------------------------------------------------------


def test_profiler_disabled_by_default():
    assert active_profiler() is None


def test_profiler_samples_every_n():
    prof = RoundProfiler(sample_every=3)
    hits = [prof.sample() for __ in range(9)]
    assert hits == [False, False, True] * 3
    prof.add("apply", 0.002)
    snap = prof.snapshot()
    assert snap["rounds_seen"] == 9
    assert snap["sections"]["apply"]["rounds"] == 1
    assert snap["sections"]["apply"]["mean_us"] == pytest.approx(2000.0)


def test_profiled_scope_restores_previous():
    with profiled(2) as prof:
        assert active_profiler() is prof
        with profiled(1) as inner:
            assert active_profiler() is inner
        assert active_profiler() is prof
    assert active_profiler() is None


def test_merge_profiles_folds_workers():
    a = {"sample_every": 4, "rounds_seen": 8,
         "sections": {"apply": {"rounds": 2, "total_s": 0.2, "mean_us": 0}}}
    b = {"sample_every": 4, "rounds_seen": 4,
         "sections": {"apply": {"rounds": 1, "total_s": 0.1, "mean_us": 0},
                      "edge_gather": {"rounds": 1, "total_s": 0.3,
                                      "mean_us": 0}}}
    merged = merge_profiles([a, {}, b])
    assert merged["rounds_seen"] == 12
    assert merged["sections"]["apply"]["rounds"] == 3
    assert merged["sections"]["apply"]["total_s"] == pytest.approx(0.3)
    assert merged["sections"]["apply"]["mean_us"] == pytest.approx(1e5)
    assert merged["sections"]["edge_gather"]["rounds"] == 1


def test_engine_records_sections_when_profiled(tiny_scenario):
    from repro.algorithms import get_algorithm
    from repro.core.multi_query import evaluate_multi_query

    with profiled(1) as prof:
        evaluate_multi_query(tiny_scenario, get_algorithm("bfs"), [0, 1])
    snap = prof.snapshot()
    assert snap["rounds_seen"] > 0
    # the numpy rounds time gather and apply apart; the compiled tier runs
    # the whole loop (gather included) as one fused_relax kernel call
    expected = (
        {"fused_relax"}
        if get_backend().compiled
        else {"edge_gather", "apply", "batch_seed"}
    )
    assert set(snap["sections"]) == expected
    # the same run without a profiler records nothing anywhere
    evaluate_multi_query(tiny_scenario, get_algorithm("bfs"), [0, 1])
    assert active_profiler() is None


def test_service_aggregates_worker_profiles():
    svc = QueryService(_tiny_config(profile_rounds=1)).start()
    try:
        response = svc.submit(
            QueryRequest(graph="PK", algo="bfs", source=0)
        ).wait(timeout=60)
        assert response.status == "ok"
        prof = svc.round_profile()
        assert prof.get("sections"), "worker profile never reached the service"
        assert {"edge_gather", "fused_relax"} & set(prof["sections"])
    finally:
        svc.stop()
