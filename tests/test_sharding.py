"""Tests for sharded scatter-gather serving (`repro.service.sharding`).

The correctness anchor is differential: a sharded front end must be
bit-exact with the plain single-node service for every algorithm, with
and without ingested deltas, windows included.  The unit layers (row
restriction, delta splitting, the scatter kernel, labeled metrics) run
without any pool; the fleet tests each spin up real per-shard process
pools at tiny scale with one worker per shard.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import ALGORITHMS, get_algorithm
from repro.core.multi_query import evaluate_multi_query
from repro.experiments.runner import scenario_cache
from repro.obs.metrics import MetricsRegistry
from repro.service import (
    DeltaBatch,
    QueryRequest,
    QueryService,
    ScatterGatherFrontEnd,
    ServiceConfig,
    ShardManager,
    run_shard_kill_drill,
    synthesize_delta,
)
from repro.service.sharding import merge_sub_deltas, restrict_rows
from repro.service.sharding.partial import scatter_relax

TINY = dict(scale="tiny", n_snapshots=4, workers=1)
ALGOS = sorted(a.lower() for a in ALGORITHMS)


def _config(**kw) -> ServiceConfig:
    return ServiceConfig(**{**TINY, **kw})


def _scenario():
    return scenario_cache("PK", "tiny", n_snapshots=4)


# -- restrict_rows ----------------------------------------------------------


def test_restrict_rows_partitions_the_union_edges():
    scenario = _scenario()
    g = scenario.unified.graph
    mid = g.n_vertices // 2
    left = restrict_rows(scenario, 0, mid)
    right = restrict_rows(scenario, mid, g.n_vertices)
    assert left.unified.graph.n_vertices == g.n_vertices
    assert (
        left.unified.graph.n_edges + right.unified.graph.n_edges
        == g.n_edges
    )
    # every restricted edge's source is inside its range
    assert np.all(left.unified.graph.src_of_edge < mid)
    assert np.all(right.unified.graph.src_of_edge >= mid)


def test_restrict_rows_full_range_is_identity():
    scenario = _scenario()
    g = scenario.unified.graph
    full = restrict_rows(scenario, 0, g.n_vertices)
    assert full.unified.graph.n_edges == g.n_edges
    np.testing.assert_array_equal(full.unified.graph.indptr, g.indptr)


def test_restrict_rows_rejects_bad_range():
    scenario = _scenario()
    n = scenario.unified.graph.n_vertices
    with pytest.raises(ValueError):
        restrict_rows(scenario, -1, n)
    with pytest.raises(ValueError):
        restrict_rows(scenario, 0, n + 1)
    with pytest.raises(ValueError):
        restrict_rows(scenario, 5, 4)


# -- scatter kernel ---------------------------------------------------------


@pytest.mark.parametrize("algo_name", ["bfs", "sssp"])
def test_scatter_relax_single_range_matches_multi_query(algo_name):
    """One shard owning everything is plain multi-query evaluation."""
    scenario = _scenario()
    algorithm = get_algorithm(algo_name)
    n = scenario.unified.graph.n_vertices
    n_snapshots = scenario.n_snapshots
    sources = [1, 17]
    n_states = len(sources) * n_snapshots
    sv, ss, sval = [], [], []
    for q, src in enumerate(sources):
        for k in range(n_snapshots):
            sv.append(src)
            ss.append(q * n_snapshots + k)
            sval.append(algorithm.source_value)
    out = scatter_relax(
        scenario, algorithm, 0, n, n_states,
        np.array(sv), np.array(ss), np.array(sval, dtype=np.float64),
    )
    values = np.repeat(
        algorithm.identity_values(n)[None, :], n_states, axis=0
    )
    values[out.upd_states, out.upd_vertices] = out.upd_values
    assert out.bnd_vertices.size == 0  # no remote vertices exist
    mq = evaluate_multi_query(scenario, algorithm, sources)
    for q in range(len(sources)):
        for k in range(n_snapshots):
            np.testing.assert_array_equal(
                values[q * n_snapshots + k], mq.values(q, k)
            )


def test_scatter_relax_state_block_suppresses_known_seeds():
    """Seeds that do not improve the preloaded block must not activate."""
    scenario = _scenario()
    algorithm = get_algorithm("bfs")
    n = scenario.unified.graph.n_vertices
    first = scatter_relax(
        scenario, algorithm, 0, n, 1,
        np.array([1]), np.array([0]),
        np.array([algorithm.source_value]),
    )
    block = np.repeat(algorithm.identity_values(n)[None, :], 1, axis=0)
    block[first.upd_states, first.upd_vertices] = first.upd_values
    again = scatter_relax(
        scenario, algorithm, 0, n, 1,
        np.array([1]), np.array([0]),
        np.array([algorithm.source_value]),
        state_block=block,
    )
    assert again.rounds == 0
    assert again.upd_vertices.size == 0


# -- delta splitting --------------------------------------------------------


def _fleet(n_shards, **kw):
    return ShardManager(n_shards, _config(**kw))


def test_split_delta_routes_by_owner_and_merges_back():
    mgr = _fleet(3)
    scenario = _scenario()
    delta = synthesize_delta(scenario, seed=7, n_add=20, n_del=10)
    subs = mgr.split_delta("PK", delta)
    assert len(subs) == 3
    part = mgr.partitioner("PK")
    for i, sub in enumerate(subs):
        if sub.add_src.size:
            assert np.all(part.partition_of(sub.add_src) == i)
        if sub.del_src.size:
            assert np.all(part.partition_of(sub.del_src) == i)
        assert sub.meta["shard"] == i
    merged = merge_sub_deltas(subs)
    want = sorted(zip(delta.add_src, delta.add_dst, delta.add_wt))
    got = sorted(zip(merged.add_src, merged.add_dst, merged.add_wt))
    assert got == want
    assert sorted(zip(merged.del_src, merged.del_dst)) == sorted(
        zip(delta.del_src, delta.del_dst)
    )
    assert "shard" not in merged.meta


def test_split_delta_rejects_out_of_range_vertices():
    mgr = _fleet(2)
    n = _scenario().unified.graph.n_vertices
    bad = DeltaBatch.from_lists(adds=[(n + 5, 0, 1.0)], dels=[])
    with pytest.raises(ValueError):
        mgr.split_delta("PK", bad)


def test_surplus_shards_own_empty_ranges():
    """More shards than partitions: the tail shards own nothing."""
    n = _scenario().unified.graph.n_vertices
    mgr = _fleet(3)
    part = mgr.partitioner("PK")
    for shard in range(part.n_partitions, 3):
        assert mgr.vertex_range("PK", shard) == (n, n)
    # and a genuinely clamped partitioner: more partitions than vertices
    from repro.graph.csr import CSRGraph
    from repro.graph.partition import VertexPartitioner

    g = CSRGraph.from_tuples(3, [(0, 1), (1, 2)])
    p = VertexPartitioner(g.indptr, 10)
    assert p.n_partitions <= 3


# -- labeled metrics --------------------------------------------------------


def test_labeled_counter_renders_per_shard_children():
    reg = MetricsRegistry()
    fam = reg.labeled_counter("mega_test_total", "per-shard test counter")
    fam.labels(0).inc(3)
    fam.labels(1).inc(5)
    text = reg.render()
    assert 'mega_test_total{shard="0"} 3' in text
    assert 'mega_test_total{shard="1"} 5' in text
    # one HELP/TYPE header for the whole family, not one per child
    assert text.count("# HELP mega_test_total") == 1
    assert fam.get() == {"0": 3, "1": 5}


def test_labeled_gauge_set_and_get():
    reg = MetricsRegistry()
    fam = reg.labeled_gauge("mega_test_depth", "per-shard test gauge")
    fam.labels("a").set(7)
    fam.labels("a").set(2)
    assert fam.get() == {"a": 2}
    assert 'mega_test_depth{shard="a"} 2' in reg.render()


# -- fleet: parity with the unsharded service -------------------------------


def _digest(response):
    assert response is not None and response.ok, response
    return [
        (s.snapshot, s.reached, round(s.checksum, 6))
        for s in response.summaries
    ]


def _query_both(plain, fleet, requests, timeout=120.0):
    for request in requests:
        a = plain.submit(
            QueryRequest(**request)
        ).wait(timeout=timeout)
        b = fleet.submit(QueryRequest(**request)).wait(timeout=timeout)
        assert _digest(a) == _digest(b), request


def test_sharded_parity_all_algorithms_with_ingest():
    """The tentpole invariant: 3-shard scatter-gather is bit-exact with
    the single-node engine for every algorithm, before and after a
    routed ingest, windows included."""
    reqs = [
        dict(graph="PK", algo=a, source=s)
        for a in ALGOS
        for s in (1, 17)
    ] + [dict(graph="PK", algo="sssp", source=1, window=(1, 2))]
    with QueryService(_config()) as plain, ScatterGatherFrontEnd(
        _fleet(3)
    ) as fleet:
        _query_both(plain, fleet, reqs)
        delta = synthesize_delta(_scenario(), seed=11, n_add=10, n_del=6)
        assert plain.ingest("PK", delta=delta) == 1
        assert fleet.ingest("PK", delta=delta) == 1
        _query_both(plain, fleet, reqs)


def test_single_shard_fleet_degenerate_parity():
    """--shards 1 semantics: one shard owning every vertex still matches."""
    reqs = [dict(graph="PK", algo="bfs", source=5)]
    with QueryService(_config()) as plain, ScatterGatherFrontEnd(
        _fleet(1)
    ) as fleet:
        _query_both(plain, fleet, reqs)


def test_frontend_rejects_simulate_mode():
    with ScatterGatherFrontEnd(_fleet(2)) as fleet:
        r = fleet.submit(
            QueryRequest(graph="PK", algo="sssp", source=1, mode="simulate")
        ).wait(timeout=30.0)
        assert r is not None and r.status == "error"
        assert "sharded" in r.error


# -- fleet: ingest barrier, rewind, recovery --------------------------------


def test_ingest_aligns_every_shard_epoch():
    mgr = _fleet(2)
    with ScatterGatherFrontEnd(mgr) as fleet:
        assert fleet.ingest("PK", seed=1) == 1
        assert fleet.ingest("PK", seed=2) == 2
        for shard in mgr.shards:
            assert shard.epoch("PK") == 2
        assert mgr.epoch("PK") == 2


def test_failed_ingest_rewinds_every_shard_and_acks_nothing(monkeypatch):
    mgr = _fleet(2)
    with ScatterGatherFrontEnd(mgr) as fleet:
        fleet.ingest("PK", seed=1)
        boom = RuntimeError("injected shard failure")

        def failing_ingest(*a, **kw):
            raise boom

        monkeypatch.setattr(mgr.shards[1], "ingest", failing_ingest)
        with pytest.raises(RuntimeError, match="nothing acked"):
            fleet.ingest("PK", seed=2)
        monkeypatch.undo()
        # no shard moved, the chain did not grow, and ingest still works
        for shard in mgr.shards:
            assert shard.epoch("PK") == 1
        assert mgr.epoch("PK") == 1
        assert fleet.ingest("PK", seed=2) == 2


def test_refused_explicit_ingest_reaches_no_shard():
    """The manager slides the logical window before routing, so a delta
    the window refuses never lands in any shard's log."""
    mgr = _fleet(2)
    with ScatterGatherFrontEnd(mgr) as fleet:
        fleet.ingest("PK", seed=1)
        bad = DeltaBatch.from_lists([], [[0, 0]])  # never present
        with pytest.raises(ValueError, match="cannot delete edge"):
            fleet.ingest("PK", delta=bad)
        assert [s.epoch("PK") for s in mgr.shards] == [1, 1]
        assert mgr.epoch("PK") == 1
        assert fleet.ingest("PK", seed=2) == 2


def test_reconcile_rewinds_a_shard_that_ran_ahead():
    mgr = _fleet(2)
    with ScatterGatherFrontEnd(mgr) as fleet:
        fleet.ingest("PK", seed=1)
        sub = mgr.split_delta(
            "PK", synthesize_delta(_scenario(), seed=99)
        )[0]
        mgr.shards[0].ingest("PK", sub)
        assert mgr.shards[0].epoch("PK") == 2
        assert mgr.reconcile("PK") == {"PK": 1}
        assert [s.epoch("PK") for s in mgr.shards] == [1, 1]


def test_fleet_recovers_per_shard_wals(tmp_path):
    wal_root = str(tmp_path / "fleet")
    cfg = _config()
    mgr = ShardManager(2, cfg, wal_root=wal_root)
    mgr.start()
    try:
        for seed in (1, 2):
            mgr.ingest("PK", seed=seed)
        chain = [d.to_wire() for d in mgr._chains["PK"]]
    finally:
        mgr.stop()
    mgr2 = ShardManager(2, cfg, wal_root=wal_root)
    mgr2.start()
    try:
        assert mgr2.graph_epochs() == {"PK": 2}
        for shard in mgr2.shards:
            assert shard.epoch("PK") == 2
        recovered = [d.to_wire() for d in mgr2._chains["PK"]]

        def canon(wire):
            return (
                sorted(map(tuple, wire["adds"])),
                sorted(map(tuple, wire["dels"])),
            )

        assert [canon(w) for w in recovered] == [canon(w) for w in chain]
    finally:
        mgr2.stop()


def test_frontend_ingest_with_ack_reports_a_local_ack():
    with ScatterGatherFrontEnd(_fleet(2)) as fleet:
        epoch, ack = fleet.ingest_with_ack("PK", seed=1)
        assert epoch == 1 and fleet.ingest("PK", seed=2) == 2
        assert ack == {"mode": "local", "required": 0, "acked_by": [],
                       "degraded": False, "wait_s": 0.0}


def test_shard_kill_drill_zero_loss_and_parity(tmp_path):
    report = run_shard_kill_drill(
        str(tmp_path / "fleet"), n_shards=2, crash_at_epoch=2,
        algos=["bfs"],
    )
    assert report.ok, report.format_table()
    assert report.drill == "shard-kill"
    assert report.facts["lost_deltas"] == 0
    assert report.facts["shard_epochs"] == {0: 2, 1: 2}
    assert report.checks["served_through_kill"]
    assert report.checks["victim_pool_restarted"]
    assert report.checks["parity:bfs"]


# -- fleet: health + metrics surface ---------------------------------------


def test_health_and_metrics_report_per_shard_state():
    with ScatterGatherFrontEnd(_fleet(2)) as fleet:
        fleet.ingest("PK", seed=1)
        r = fleet.submit(
            QueryRequest(graph="PK", algo="bfs", source=1)
        ).wait(timeout=120.0)
        assert r is not None and r.ok
        health = fleet.health()
        sharding = health["sharding"]
        assert sharding["n_shards"] == 2
        assert sharding["scatter_rounds"] >= 1
        assert [e["shard"] for e in sharding["shards"]] == [0, 1]
        for entry in sharding["shards"]:
            assert entry["role"] == "primary"
            assert entry["epochs"] == {"PK": 1}
            assert entry["wal_enabled"] is False
            assert entry["shm_generation"] >= 1
            assert entry["workers"] == 1
        text = fleet.metrics_text()
        assert 'mega_shard_scatter_plans_total{shard="0"}' in text
        assert 'mega_shard_epoch{shard="1"} 1' in text
        stats = fleet.scatter_stats()
        assert stats["global_rounds"] >= 1
        assert stats["scatter_stage"]["rounds"] >= 1
        assert sum(stats["scatter_plans"].values()) >= 1
