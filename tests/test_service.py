"""Tests for the concurrent query service (`repro.service`).

Unit layers (validation, cache, queue, coalescing, ingest) run without
any pool; the end-to-end tests each spin up a real process-pool service
at tiny scale.  Determinism trick: queries submitted *before*
``service.start()`` sit in the admission queue and are drained together
by the batcher's first pass, so coalescing assertions never race
arrivals.
"""

from __future__ import annotations

import io
import json
import time

import pytest

from repro.cli import main
from repro.core.multi_query import evaluate_multi_query, summarize
from repro.service import (
    AdmissionQueue,
    DeltaBatch,
    LoadSpec,
    PendingQuery,
    QueryRequest,
    QueryService,
    ResultCache,
    ServiceConfig,
    apply_delta,
    coalesce,
    run_load,
    serve_stdio,
    synthesize_delta,
    validate_request,
)
from repro.service import loadgen
from repro.service.loadgen import BENCH_SCHEMA_VERSION
from repro.service.request import SnapshotSummary

TINY = dict(scale="tiny", n_snapshots=4, workers=1)


def _summarize(algo, values, n_snapshots):
    """Per query, its snapshots' summaries by the numpy reference."""
    reached, checksum = summarize(algo, values)
    return SnapshotSummary.table(
        reached.reshape(-1, n_snapshots), checksum.reshape(-1, n_snapshots)
    )


def _config(**kw) -> ServiceConfig:
    merged = {**TINY, **kw}
    return ServiceConfig(**merged)


def _summaries(n=2):
    return [SnapshotSummary(k, 5 + k, 1.5 * k) for k in range(n)]


# -- request validation ----------------------------------------------------


def test_validate_request_accepts_defaults():
    validate_request(QueryRequest("PK", "sssp", 3), 4, "tiny")


@pytest.mark.parametrize(
    "kw",
    [
        {"graph": "NOPE"},
        {"algo": "nope"},
        {"window": (-1, 2)},
        {"source": 10**9},
        {"source": -1},
        {"window": (2, 1)},
        {"window": (0, 99)},
    ],
)
def test_validate_request_rejects(kw):
    base = {"graph": "PK", "algo": "sssp", "source": 3}
    with pytest.raises(ValueError):
        validate_request(QueryRequest(**{**base, **kw}), 4, "tiny")


def test_compat_key_separates_epochs_not_windows():
    """Sources and windows may differ within a plan (every plan runs the
    full window); epochs and algorithms may not."""
    a = QueryRequest("PK", "sssp", 1)
    b = QueryRequest("PK", "sssp", 2)
    assert a.compat_key(0) == b.compat_key(0)  # sources may differ
    assert a.compat_key(0) != a.compat_key(1)
    assert a.compat_key(0) == QueryRequest("PK", "sssp", 1, window=(0, 1)).compat_key(0)
    assert a.compat_key(0) != QueryRequest("PK", "bfs", 1).compat_key(0)


# -- result cache ----------------------------------------------------------


def test_result_cache_slices_one_full_answer_by_epoch_offset():
    """With N = 4 and one full answer held at epoch e, every query epoch
    q (before e too) and window hits iff its snapshots lie inside the
    held window, and answers them: snapshot k at epoch q is snapshot
    q + k of the graph's history, as is snapshot k - e of the held
    answer, whose ``reached`` here is that history index."""
    n = 4
    windows = [None] + [(lo, hi) for lo in range(n) for hi in range(lo, n)]
    for e in range(3):
        held = [SnapshotSummary(k, e + k, 0.5 * k) for k in range(n)]
        for q in range(e + n + 1):
            for window in windows:
                cache = ResultCache(maxsize=8)
                cache.put(QueryRequest("PK", "sssp", 3), e, held)
                got = cache.get(
                    QueryRequest("PK", "sssp", 3, window=window), q
                )
                lo, hi = window or (0, n - 1)
                if not (e <= q + lo and q + hi <= e + n - 1):
                    assert got is None, (e, q, window)
                    continue
                assert [(s.snapshot, s.reached) for s in got] == [
                    (j, q + lo + j) for j in range(hi - lo + 1)
                ], (e, q, window)
                assert got == cache.window_of(
                    held, (lo + q - e, hi + q - e)
                )
    cache = ResultCache(maxsize=8)
    sub = QueryRequest("PK", "sssp", 3, window=(1, 2))
    cache.put(sub, 2, _summaries(n))
    cache.put(sub, 1, _summaries(1))  # older: never replaces the newer
    assert cache.get(QueryRequest("PK", "sssp", 3), 2) == _summaries(n)
    # one entry per source, whatever the window; other keys miss
    assert cache.stats()["entries"] == 1
    assert cache.get(QueryRequest("PK", "sssp", 4), 2) is None
    assert cache.get(QueryRequest("PK", "bfs", 3), 2) is None
    # a new lineage never hits the old one's entry, which is not dropped
    assert cache.get(sub, 2, lineage=1) is None
    cache.put(sub, 2, _summaries(n + 1)[1:], lineage=1)
    assert cache.get(sub, 2, lineage=1) != cache.get(sub, 2)
    stats = cache.stats()
    assert stats["entries"] == 2
    assert stats["hits"] == 3 and stats["misses"] == 3
    assert stats["hit_rate"] == 0.5
    assert cache.window_of(held, None) is held


def test_result_cache_epoch_and_invalidation():
    """An entry answers a later epoch only for the snapshots its held
    window still covers, and only its own lineage: a new lineage at the
    same epoch (a re-sync installed a diverged log) never hits it, and
    nothing is dropped to make that so."""
    cache = ResultCache(maxsize=8)
    req = QueryRequest("PK", "sssp", 3)
    assert ResultCache.key(req, 1) == ("PK", "sssp", 1, 3)
    assert ResultCache.key(QueryRequest("PK", "SSSP", 3), 1) == ("PK", "sssp", 1, 3)
    assert cache.get(req, 0) is None
    cache.put(req, 0, _summaries())
    assert cache.get(req, 0)[0].reached == 5
    # the full window one epoch on reaches past the held one
    assert cache.get(req, 1) is None
    # its first snapshot is the held answer's second
    got = cache.get(QueryRequest("PK", "sssp", 3, window=(0, 0)), 1)
    assert [(s.snapshot, s.reached) for s in got] == [(0, 6)]
    # a new lineage never hits: the old entry is unreachable, not dropped
    assert cache.get(req, 0, lineage=1) is None
    cache.put(req, 0, _summaries(1), lineage=1)
    assert len(cache.get(req, 0, lineage=1)) == 1
    assert len(cache.get(req, 0)) == 2
    stats = cache.stats()
    assert stats["entries"] == 2
    assert stats["hits"] == 4 and stats["misses"] == 3
    assert 0.0 < stats["hit_rate"] < 1.0


def test_result_cache_slices_sub_windows_from_a_full_entry():
    """Same epoch: a sub-window query is its window of the held full
    answer, renumbered from 0; a sub-window query's put holds the full
    answer under the one key of its source."""
    cache = ResultCache(maxsize=8)
    full = _summaries(4)
    sub = QueryRequest("PK", "sssp", 3, window=(1, 2))
    assert cache.get(sub, 0) is None
    cache.put(QueryRequest("PK", "sssp", 3), 0, full)
    want = [(0, 6, 1.5), (1, 7, 3.0)]
    got = cache.get(sub, 0)
    assert [(s.snapshot, s.reached, s.checksum) for s in got] == want
    assert cache.window_of(full, None) is full
    assert cache.get(QueryRequest("PK", "sssp", 4, window=(1, 2)), 0) is None
    assert cache.get(QueryRequest("PK", "bfs", 3, window=(1, 2)), 0) is None
    assert cache.stats()["hits"] == 1
    other = ResultCache(maxsize=8)
    other.put(sub, 0, full)
    assert other.get(QueryRequest("PK", "sssp", 3), 0) == full
    assert other.get(sub, 0) == got
    assert other.stats()["entries"] == 1


def test_result_cache_evicts_lru():
    cache = ResultCache(maxsize=2)
    reqs = [QueryRequest("PK", "sssp", s) for s in range(3)]
    for r in reqs:
        cache.put(r, 0, _summaries())
    assert cache.get(reqs[0], 0) is None  # evicted
    assert cache.get(reqs[2], 0) is not None


@pytest.mark.parametrize("graph", ["PK", "LJ"])
def test_sliced_full_window_answers_equal_window_evaluation(graph):
    """For every algorithm and every one of the 36 windows of 8
    snapshots, the full-window answer's slice is bit-identical to
    from-scratch evaluation of ``window_scenario`` on the active kernel
    tier: a snapshot's values do not depend on the union that computed
    them."""
    import numpy as np

    from repro.algorithms import all_algorithms
    from repro.engines.validation import evaluate_reference
    from repro.evolving.window import window_scenario
    from repro.experiments.runner import scenario_cache

    scenario = scenario_cache(graph, "tiny", n_snapshots=8)
    n = scenario.n_snapshots
    windows = [(lo, hi) for lo in range(n) for hi in range(lo, n)]
    assert len(windows) == 36
    views = {w: window_scenario(scenario, *w) for w in windows}
    for algo in all_algorithms():
        mq = evaluate_multi_query(scenario, algo, [scenario.source])
        full = _summarize(algo, mq.matrix(), n)[0]
        for (lo, hi), view in views.items():
            values = np.stack([
                evaluate_reference(view, algo, k) for k in range(hi - lo + 1)
            ])
            want = _summarize(algo, values, hi - lo + 1)[0]
            got = ResultCache.window_of(full, (lo, hi))
            assert [(s.snapshot, s.reached, s.checksum) for s in got] == [
                (s.snapshot, s.reached, s.checksum) for s in want
            ], (algo.name, lo, hi)


# -- admission queue and coalescing ---------------------------------------


def test_admission_queue_sheds_on_overflow():
    q = AdmissionQueue(max_pending=2)
    items = [PendingQuery(QueryRequest("PK", "sssp", s), 0) for s in range(3)]
    assert q.offer(items[0]) and q.offer(items[1])
    assert not q.offer(items[2])
    assert len(q.drain()) == 2 and len(q) == 0


def test_coalesce_groups_compatible_queries():
    pending = [
        PendingQuery(QueryRequest("PK", "sssp", s), 0) for s in (1, 2, 3)
    ] + [
        PendingQuery(QueryRequest("PK", "bfs", 1), 0),
        PendingQuery(QueryRequest("PK", "sssp", 4), 1),  # later epoch
    ]
    plans = coalesce(pending, max_batch=8)
    assert sorted(len(p) for p in plans) == [1, 1, 3]


def test_coalesce_never_emits_empty_plans():
    pending = [
        PendingQuery(QueryRequest("PK", "sssp", s), 0) for s in (1, 2)
    ]
    for max_batch in (0, 1, 2):
        plans = coalesce(pending, max_batch)
        assert all(plans), plans
        assert sum(len(p) for p in plans) == 2


def test_coalesce_splits_at_max_batch_distinct_sources():
    pending = [
        PendingQuery(QueryRequest("PK", "sssp", s), 0)
        for s in (1, 1, 2, 2, 3, 4)
    ]
    plans = coalesce(pending, max_batch=2)
    # duplicates ride free: {1,1,2,2} fits one 2-source plan, {3,4} the next
    assert [len(p) for p in plans] == [4, 2]
    assert all(
        len({q.request.source for q in p}) <= 2 for p in plans
    )


# -- ingest ----------------------------------------------------------------


def test_synthesize_delta_respects_invariants(small_scenario):
    delta = synthesize_delta(small_scenario, seed=7, n_add=6, n_del=6)
    u = small_scenario.unified
    assert delta.n_additions == 6 and delta.n_deletions == 6
    # deletions come from common edges (present everywhere, untouched)
    common = {
        (int(s), int(d))
        for s, d in zip(
            u.graph.src_of_edge[(u.add_step < 0) & (u.del_step < 0)],
            u.graph.dst[(u.add_step < 0) & (u.del_step < 0)],
        )
    }
    assert set(delta.deletions()) <= common
    # additions are absent from the union graph
    union = set(zip(u.graph.src_of_edge.tolist(), u.graph.dst.tolist()))
    adds = set(zip(delta.add_src.tolist(), delta.add_dst.tolist()))
    assert not (adds & union)


def test_apply_delta_is_pure_and_advances_epoch(small_scenario):
    delta = synthesize_delta(small_scenario, seed=3)
    before = small_scenario.unified.graph.n_edges
    advanced = apply_delta(small_scenario, delta)
    assert advanced is not small_scenario
    assert small_scenario.unified.graph.n_edges == before  # untouched
    assert advanced.metadata["epoch"] == 1
    assert advanced.n_snapshots == small_scenario.n_snapshots
    twice = apply_delta(advanced, synthesize_delta(advanced, seed=4))
    assert twice.metadata["epoch"] == 2


def test_delta_batch_from_lists_wire_format():
    d = DeltaBatch.from_lists([[0, 1, 2.5], [1, 2]], [[3, 4]])
    assert d.n_additions == 2 and d.n_deletions == 1
    assert d.add_wt.tolist() == [2.5, 1.0]
    assert d.deletions() == [(3, 4)]


# -- end-to-end: coalescing, parity, cache, ingest ------------------------


def test_service_coalesces_burst_and_matches_direct_evaluation():
    from repro.algorithms import get_algorithm
    from repro.experiments.runner import scenario_cache

    sources = [1, 2, 3, 5, 1, 2, 3, 5]  # 4 distinct, duplicates ride free
    service = QueryService(_config(max_batch=8))
    handles = [
        service.submit(QueryRequest("PK", "sssp", s)) for s in sources
    ]
    with service:  # start after submitting: one drain, one plan
        responses = [h.wait(timeout=120) for h in handles]
    assert all(r is not None and r.status == "ok" for r in responses)
    stats = service.service_stats()
    assert stats["plans"] == 1
    assert stats["plan_queries"] == 8
    assert stats["batching_factor"] == 8.0

    # parity: the service's digests == direct multi-query evaluation
    scenario = scenario_cache("PK", "tiny", n_snapshots=4)
    algo = get_algorithm("sssp")
    direct = evaluate_multi_query(scenario, algo, [1, 2, 3, 5])
    expected = _summarize(algo, direct.matrix(), scenario.n_snapshots)
    for r, s in zip(responses, sources):
        q = [1, 2, 3, 5].index(s)
        for summary, expect in zip(r.summaries, expected[q], strict=True):
            assert summary.reached == expect.reached
            assert summary.checksum == pytest.approx(expect.checksum)


def test_no_batching_runs_one_plan_per_query():
    service = QueryService(_config(batching=False))
    handles = [
        service.submit(QueryRequest("PK", "sssp", s)) for s in (1, 2, 1, 2)
    ]
    with service:
        assert all(h.wait(timeout=120).ok for h in handles)
    assert service.service_stats()["plans"] == 4


def test_queries_arriving_while_the_pool_is_full_share_one_plan():
    """Dispatch on arrival: while every pool slot is taken, compatible
    queries that arrive 10 ms apart wait in the queue, and leave it
    together as one plan when a slot frees."""
    with QueryService(_config()) as service:
        warm = service.submit(QueryRequest("PK", "sssp", 9))
        assert warm.wait(timeout=120).ok
        fake = [-1 - i for i in range(service.pool.workers + 1)]
        with service._inflight_lock:
            service._inflight.update(fake)
        handles = []
        for source in (1, 2, 3, 4):
            handles.append(service.submit(QueryRequest("PK", "sssp", source)))
            time.sleep(0.01)
        assert not any(h.done.is_set() for h in handles)
        for plan_id in fake:
            service._retire(plan_id)
        responses = [h.wait(timeout=120) for h in handles]
    assert all(r.status == "ok" for r in responses)
    assert len({r.plan_id for r in responses}) == 1
    assert service.service_stats()["plans"] == 2


def test_algorithm_spellings_share_one_plan_and_cache_entry():
    """``get_algorithm`` is case-insensitive, and so are plan and cache
    keys: a burst of ``SSSP`` and ``sssp`` is one plan, and a later
    query in either spelling is a cache hit."""
    assert QueryRequest("PK", "SSSP", 1).compat_key(0) == QueryRequest(
        "PK", "sssp", 1
    ).compat_key(0)
    service = QueryService(_config())
    handles = [
        service.submit(QueryRequest("PK", algo, source))
        for algo, source in (("SSSP", 1), ("sssp", 2))
    ]
    with service:  # start after submitting: one drain, one plan
        responses = [h.wait(timeout=120) for h in handles]
        again = service.submit(QueryRequest("PK", "Sssp", 1)).wait(120)
    assert [r.status for r in responses] == ["ok", "ok"]
    assert service.service_stats()["plans"] == 1
    assert again.status == "cached"
    assert again.summaries == responses[0].summaries


def test_sub_window_queries_ride_the_full_window_plan():
    """One burst of a full-window query and two sub-window queries of
    one algorithm is one plan; each answer is its own window of the
    full-window evaluation, renumbered from 0."""
    from repro.algorithms import get_algorithm
    from repro.experiments.runner import scenario_cache

    asks = [(1, None), (2, (1, 3)), (1, (2, 2))]
    service = QueryService(_config())
    handles = [
        service.submit(QueryRequest("PK", "sswp", s, window=w))
        for s, w in asks
    ]
    with service:  # start after submitting: one drain, one plan
        responses = [h.wait(timeout=120) for h in handles]
    assert [r.status for r in responses] == ["ok", "ok", "ok"]
    assert len({r.plan_id for r in responses}) == 1
    assert service.service_stats()["plans"] == 1

    scenario = scenario_cache("PK", "tiny", n_snapshots=4)
    algo = get_algorithm("sswp")
    direct = evaluate_multi_query(scenario, algo, [1, 2])
    expected = dict(zip((1, 2), _summarize(algo, direct.matrix(), 4)))
    for (source, window), r in zip(asks, responses):
        lo, hi = window or (0, 3)
        assert [(s.snapshot, s.reached, s.checksum) for s in r.summaries] == [
            (k, s.reached, s.checksum)
            for k, s in enumerate(expected[source][lo:hi + 1])
        ]


def test_a_full_window_answer_serves_its_sub_windows_from_the_cache():
    """Containment end to end: after a full-window answer, the same
    (algorithm, source, epoch) over a sub-window comes back ``cached``,
    and equals the sub-window computed by a plan."""
    with QueryService(_config()) as service:
        full = service.submit(QueryRequest("PK", "sssp", 3)).wait(120)
        assert full.status == "ok"
        sub = QueryRequest("PK", "sssp", 3, window=(1, 2))
        hit = service.submit(sub).wait(120)
        assert hit.status == "cached" and hit.epoch == full.epoch
        assert [s.snapshot for s in hit.summaries] == [0, 1]
        assert [(s.reached, s.checksum) for s in hit.summaries] == [
            (s.reached, s.checksum) for s in full.summaries[1:3]
        ]
        service.clear_caches()
        fresh = service.submit(sub).wait(120)
        assert fresh.status == "ok"
        assert [s.as_dict() for s in fresh.summaries] == [
            s.as_dict() for s in hit.summaries
        ]


def test_one_snapshot_window_queries_coalesce_without_retries():
    """Two sources over window (2, 2) ride one plan and both resolve
    ``ok`` first time: no plan failure, no singleton retries."""
    with QueryService(_config()) as service:
        warm = service.submit(QueryRequest("PK", "sssp", 9))
        assert warm.wait(timeout=120).ok
        fake = [-1 - i for i in range(service.pool.workers + 1)]
        with service._inflight_lock:
            service._inflight.update(fake)
        handles = [
            service.submit(QueryRequest("PK", "sssp", source, window=(2, 2)))
            for source in (1, 2)
        ]
        for plan_id in fake:
            service._retire(plan_id)
        responses = [h.wait(timeout=120) for h in handles]
    assert [r.status for r in responses] == ["ok", "ok"]
    assert len({r.plan_id for r in responses}) == 1
    assert all(len(r.summaries) == 1 for r in responses)
    stats = service.service_stats()
    assert stats["retries"] == 0 and stats["plans"] == 2


def test_cache_hits_until_ingest_invalidates():
    service = QueryService(_config())
    req = QueryRequest("PK", "sssp", 3)
    with service:
        first = service.submit(req).wait(timeout=120)
        assert first.status == "ok" and first.epoch == 0
        again = service.submit(QueryRequest("PK", "sssp", 3)).wait(timeout=120)
        assert again.status == "cached"
        assert service.epoch("PK") == 0
        assert service.ingest("PK", seed=1) == 1
        fresh = service.submit(QueryRequest("PK", "sssp", 3)).wait(timeout=120)
        assert fresh.status == "ok" and fresh.epoch == 1
    stats = service.service_stats()
    assert stats["cached"] == 1 and stats["ingests"] == 1
    assert stats["errored"] == 0


def test_invalid_query_gets_error_response_not_crash():
    service = QueryService(_config())
    with service:
        bad = service.submit(QueryRequest("PK", "sssp", 10**9)).wait(5)
        ok = service.submit(QueryRequest("PK", "sssp", 1)).wait(timeout=120)
    assert bad.status == "error" and "out of range" in bad.error
    assert ok.status == "ok"


# -- end-to-end: resilience -----------------------------------------------


def test_transient_worker_fault_recovers_in_worker():
    service = QueryService(
        _config(inject_fault=("service.worker-fault",))
    )
    handles = [
        service.submit(QueryRequest("PK", "sssp", s)) for s in (1, 2, 3)
    ]
    with service:
        responses = [h.wait(timeout=120) for h in handles]
    assert all(r.status == "ok" for r in responses)
    stats = service.service_stats()
    assert stats["faults_recovered"] >= 1
    assert stats["errored"] == 0 and stats["retries"] == 0


def test_poisoned_plan_degrades_to_singletons():
    service = QueryService(
        _config(inject_fault=("service.plan-poison",), max_batch=8)
    )
    handles = [
        service.submit(QueryRequest("PK", "sssp", s)) for s in (1, 2, 3)
    ]
    with service:  # burst -> one poisoned plan -> split into singletons
        responses = [h.wait(timeout=120) for h in handles]
    assert all(r.status == "ok" for r in responses)
    stats = service.service_stats()
    assert stats["retries"] == 3
    assert stats["plans"] == 4  # the poisoned plan + three singletons
    assert stats["errored"] == 0


# -- JSON-lines front end --------------------------------------------------


def test_serve_stdio_protocol_and_exit_codes():
    ops = [
        {"op": "query", "graph": "PK", "algo": "sssp", "source": 1},
        {"op": "batch", "queries": [
            {"graph": "PK", "algo": "sssp", "source": 2},
            {"graph": "PK", "algo": "sssp", "source": 2},
        ]},
        {"op": "ingest", "graph": "PK", "seed": 1},
        {"op": "query", "graph": "PK", "algo": "sssp", "source": 1},
        {"op": "stats"},
        {"op": "nope"},
        "not json",
        {"op": "shutdown"},
    ]
    stdin = io.StringIO(
        "\n".join(o if isinstance(o, str) else json.dumps(o) for o in ops)
    )
    stdout = io.StringIO()
    rc = serve_stdio(QueryService(_config()), stdin=stdin, stdout=stdout)
    lines = [json.loads(ln) for ln in stdout.getvalue().splitlines()]
    assert rc == 0
    assert lines[0]["ok"] and lines[0]["status"] == "ok"
    assert lines[1]["ok"] and len(lines[1]["responses"]) == 2
    # the ingest response always names its durability level (ack block)
    assert lines[2]["ok"] and lines[2]["graph"] == "PK"
    assert lines[2]["epoch"] == 1
    assert lines[2]["ack"]["mode"] == "local"
    assert not lines[2]["ack"]["degraded"]
    assert lines[3]["ok"] and lines[3]["epoch"] == 1
    assert lines[4]["stats"]["ingests"] == 1
    assert not lines[5]["ok"] and "unknown op" in lines[5]["error"]
    assert not lines[6]["ok"] and "bad JSON" in lines[6]["error"]
    assert lines[7]["shutting_down"]


def test_serve_stdio_degraded_session_exits_nonzero():
    stdin = io.StringIO(
        json.dumps({"op": "query", "graph": "PK", "source": 10**9}) + "\n"
    )
    rc = serve_stdio(QueryService(_config()), stdin=stdin, stdout=io.StringIO())
    assert rc == 1


# -- load harness ----------------------------------------------------------


def _bench_schema_ok(doc: dict) -> None:
    assert doc["bench"] == "service"
    assert doc["schema_version"] == BENCH_SCHEMA_VERSION
    r = doc["results"]
    for key in (
        "submitted", "completed", "cached", "errored", "rejected",
        "shed", "client_retries", "gave_up",
        "offered_qps", "throughput_qps", "duration_s", "latency_ms",
        "plans", "batching_factor", "cache_hit_rate", "retries",
        "ingests", "faults", "wal", "stage_latency_ms", "traces",
        # schema 4: replication fields
        "redirects", "role", "replication_lag_epochs",
        # schema 8: sliding-window serving block
        "sliding",
    ):
        assert key in r, key
    assert r["role"] in ("primary", "follower")
    for p in ("p50", "p95", "p99", "mean"):
        assert isinstance(r["latency_ms"][p], float)
    # schema 3: per-stage percentiles over the queries' span timelines
    for stage, pcts in r["stage_latency_ms"].items():
        assert isinstance(stage, str)
        for p in ("p50", "p95", "p99", "mean", "n"):
            assert isinstance(pcts[p], (int, float)), (stage, p)
    assert isinstance(r["traces"], list)
    assert set(r["faults"]) == {"injected", "recovered"}
    assert isinstance(r["wal"].get("enabled"), bool)
    assert isinstance(r["sliding"].get("enabled"), bool)
    if r["sliding"]["enabled"]:
        assert r["sliding"]["parity"]["ok"] in (True, False)
    assert doc["config"]["scale"] in ("tiny", "small", "medium")


def test_run_load_report_schema_and_clean_exit(monkeypatch):
    monkeypatch.setattr(loadgen, "N_SOURCES", 4)
    monkeypatch.setattr(loadgen, "WINDOW_FRACTION", 0.25)
    spec = LoadSpec(duration_s=0.4, rate_qps=40, seed=1, ingest_every_s=0.2)
    with QueryService(_config()) as service:
        report = run_load(service, spec)
    assert not report.degraded
    r = report.results
    assert r["submitted"] == r["completed"] > 0
    assert r["errored"] == 0 and r["rejected"] == 0
    assert r["ingests"] >= 1
    _bench_schema_ok(json.loads(report.to_json()))
    assert "throughput" in report.format_table()


# -- CLI -------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["serve-bench", "--graphs", "NOPE"],
        ["serve-bench", "--algos", "nope"],
        ["serve-bench", "--workers", "0"],
        ["serve-bench", "--max-batch", "0"],
        ["serve-bench", "--inject-fault", "no.such-point"],
        ["serve", "--graphs", "PK,WAT"],  # a query names its graph
        ["serve-bench", "--rate", "0"],
        ["serve-bench", "--rate", "-5"],
        ["serve-bench", "--snapshots", "0"],
        ["serve", "--snapshots", "0"],
        ["serve-bench", "--duration", "-1"],
    ],
)
def test_cli_bad_service_arguments_exit_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.strip()  # one-line operator error


def test_cli_serve_bench_tiny_smoke(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(loadgen, "N_SOURCES", 4)
    out = tmp_path / "bench.json"
    rc = main([
        "serve-bench", "--scale", "tiny", "--snapshots", "4",
        "--workers", "1", "--duration", "0.3", "--rate", "30",
        "--out", str(out),
    ])
    assert rc == 0
    assert "serve-bench" in capsys.readouterr().out
    _bench_schema_ok(json.loads(out.read_text()))
