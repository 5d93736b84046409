"""WAL-shipping read replicas: follower mode, promotion, failover drill.

The replica unit tests drive ``poll_once()`` by hand against a live
tiny-scale primary so every replication step is deterministic; the
failover drill (subprocess + SIGKILL + promotion) runs once end to end.
"""

from __future__ import annotations

import time

import pytest

from repro.cli import main
from repro.resilience import faults
from repro.resilience.campaign import REPLICA_POINTS, run_trial
from repro.service import (
    LoadSpec,
    NotPrimaryError,
    QueryRequest,
    QueryService,
    ReplicaServer,
    ServiceConfig,
    WriteAheadLog,
    current_fence_token,
    read_from,
    run_failover_drill,
    run_load,
)

TINY = dict(scale="tiny", n_snapshots=4, workers=1)


def _primary(tmp_path) -> QueryService:
    return QueryService(
        ServiceConfig(**TINY, wal_dir=str(tmp_path / "wal"))
    ).start()


def _replica(tmp_path, **kwargs) -> ReplicaServer:
    return ReplicaServer(
        tmp_path / "wal", ServiceConfig(**TINY), **kwargs
    )


def _summaries(service: QueryService, source: int = 1) -> list[dict]:
    response = service.submit(
        QueryRequest("PK", "sssp", source)
    ).wait(timeout=120)
    assert response is not None and response.ok
    return [s.as_dict() for s in response.summaries]


def test_follower_syncs_serves_reads_and_refuses_ingest(tmp_path):
    primary = _primary(tmp_path)
    try:
        for k in (1, 2):
            primary.ingest("PK", seed=k)
        replica = _replica(tmp_path)
        replica.start(tail_thread=False)
        try:
            # initial sync landed both epochs; reads are served from the
            # follower's own pool and match the primary exactly
            assert replica.service.epoch("PK") == 2
            assert _summaries(replica.service) == _summaries(primary)
            # writes have exactly one home
            with pytest.raises(NotPrimaryError) as exc:
                replica.service.ingest("PK", seed=3)
            assert exc.value.role == "follower"
            assert replica.service.service_stats()["not_primary"] == 1
            # incremental tail: one new epoch, one poll, applied
            primary.ingest("PK", seed=3)
            assert replica.poll_once() == 1
            assert replica.service.epoch("PK") == 3
            # replays are idempotent, never double-applied
            assert replica.poll_once() == 0
            # the primary sees the follower's checkpoint and zero lag
            assert primary.follower_lags() == {"replica-1": 0}
            health = primary.health()
            assert health["role"] == "primary"
            assert health["followers"] == {"replica-1": 0}
        finally:
            replica.stop(drain=False)
    finally:
        primary.stop(drain=False)


def test_follower_lag_visible_in_health_and_metrics(tmp_path):
    primary = _primary(tmp_path)
    plan = faults.FaultPlan(["replica.stale-read"], seed=0)
    replica = _replica(tmp_path, fault_hook=plan.maybe_fire)
    try:
        primary.ingest("PK", seed=1)
        replica.start(tail_thread=False)
        primary.ingest("PK", seed=2)
        assert replica.poll_once() == 0  # the batch was withheld
        assert replica.lag_epochs() == 1
        health = replica.service.health()
        assert health["role"] == "follower"
        assert health["replication_lag_epochs"] == 1
        # a follower reports the primary token it observes
        assert health["fencing_token"] == current_fence_token(
            tmp_path / "wal"
        )
        assert ("mega_replication_lag_epochs 1"
                in replica.service.metrics_text())
        # the primary sees the same staleness through the cursor file
        assert primary.follower_lags()["replica-1"] == 1
        # next poll converges (the plan fires at most once)
        assert replica.poll_once() == 1
        assert replica.lag_epochs() == 0
    finally:
        replica.stop(drain=False)
        primary.stop(drain=False)


def test_promotion_fences_zombie_and_accepts_ingest(tmp_path):
    wal_dir = tmp_path / "wal"
    primary = _primary(tmp_path)
    try:
        for k in (1, 2):
            primary.ingest("PK", seed=k)
    finally:
        primary.stop(drain=False)
    old_token = current_fence_token(wal_dir)
    replica = ReplicaServer(wal_dir, ServiceConfig(**TINY))
    try:
        replica.start(tail_thread=False)
        assert replica.service.epoch("PK") == 2
        token = replica.promote()
        assert token == current_fence_token(wal_dir) > old_token
        assert replica.promote() == token  # idempotent
        assert replica.service.role == "primary"
        assert replica.service.health()["fencing_token"] == token
        # the promoted node ingests durably under the new token
        assert replica.service.ingest("PK", seed=3) == 3
        # a late append by the dead primary (still holding the old
        # token) is refused by every reader
        zombie = WriteAheadLog(wal_dir, fsync="always",
                               fence_token=old_token)
        zombie.append({
            "op": "ingest", "graph": "PK", "epoch": 3,
            "delta": {"adds": [[0, 9, 9.0]], "dels": []},
        })
        zombie.close()
        tail = read_from(wal_dir)
        assert tail.fenced == 1
        assert [
            r["epoch"] for r in tail.records if r.get("op") == "ingest"
        ] == [1, 2, 3]
    finally:
        replica.stop(drain=False)


def test_tail_gap_forces_resync_and_converges(tmp_path):
    primary = _primary(tmp_path)
    plan = faults.FaultPlan(["replica.tail-gap"], seed=0)
    replica = _replica(tmp_path, fault_hook=plan.maybe_fire)
    try:
        primary.ingest("PK", seed=1)
        replica.start(tail_thread=False)
        resyncs_before = replica.resyncs
        primary.ingest("PK", seed=2)  # dropped by the armed fault
        replica.poll_once()
        primary.ingest("PK", seed=3)  # trips gap detection
        replica.poll_once()
        assert replica.resyncs == resyncs_before + 1
        assert replica.service.epoch("PK") == primary.epoch("PK") == 3
    finally:
        replica.stop(drain=False)
        primary.stop(drain=False)


def test_compaction_resync_keeps_the_follower_cache(tmp_path):
    """A compaction reset re-syncs to a log that extends the held one:
    the follower's cached answers keep answering the windows they still
    cover."""
    primary = QueryService(ServiceConfig(
        **TINY, wal_dir=str(tmp_path / "wal"), window_slide_every=2,
    )).start()
    replica = _replica(tmp_path)
    try:
        primary.ingest("PK", seed=1)
        replica.start(tail_thread=False)
        follower = replica.service
        assert follower.submit(
            QueryRequest("PK", "sswp", 1, window=(1, 3))
        ).wait(timeout=120).ok
        primary.ingest("PK", seed=2)  # a checkpoint: compacts the WAL
        resyncs = replica.resyncs
        assert replica.poll_once() == 1
        assert replica.resyncs == resyncs + 1
        hit = follower.submit(
            QueryRequest("PK", "sswp", 1, window=(0, 2))
        ).wait(timeout=120)
        assert hit.status == "cached" and hit.epoch == 2
        follower.clear_caches()
        fresh = follower.submit(
            QueryRequest("PK", "sswp", 1, window=(0, 2))
        ).wait(timeout=120)
        assert fresh.status == "ok"
        assert [s.as_dict() for s in hit.summaries] == [
            s.as_dict() for s in fresh.summaries
        ]
    finally:
        replica.stop(drain=False)
        primary.stop(drain=False)


def _diverged_recovery(n_epochs: int):
    """A tiny PK log of ``n_epochs`` seeded deltas that no other test
    ingests, and the WAL recovery that installs it."""
    from repro.experiments.runner import scenario_cache
    from repro.service.ingest import apply_delta, synthesize_delta
    from repro.service.wal import WalRecovery

    scenario = scenario_cache("PK", "tiny", n_snapshots=4)
    diverged = []
    for seed in range(7, 7 + n_epochs):
        diverged.append(synthesize_delta(scenario, seed=seed))
        scenario = apply_delta(scenario, diverged[-1])
    return diverged, WalRecovery(
        snapshot={"logs": {"PK": [d.to_wire() for d in diverged]}}
    )


class _InstallOnFirstRelease:
    """Wraps a lock; its first release runs ``install`` — a re-sync
    landing between two steps of whatever held the lock."""

    def __init__(self, lock, install) -> None:
        self._lock, self._install = lock, install

    def __enter__(self):
        return self._lock.__enter__()

    def __exit__(self, *exc):
        self._lock.__exit__(*exc)
        install, self._install = self._install, None
        if install is not None:
            install()


def test_a_plan_held_across_a_diverged_install_caches_nothing():
    """A plan dispatched before a re-sync installs a diverged log (a
    demoted primary's history replaced) still answers its query, at the
    old history's epoch, but caches nothing a later query can hit: its
    answers go under the old lineage, so the next query at that epoch is
    evaluated on the installed log and matches from-scratch evaluation
    of it."""
    from concurrent.futures import Future

    from repro.service.drill import _reference_summaries

    with QueryService(ServiceConfig(**TINY)) as service:
        for seed in (1, 2):
            service.ingest("PK", seed=seed)
        real, held, dispatched = service.pool.submit, Future(), []

        def hold(payload):
            dispatched.append(real(payload))
            return held

        service.pool.submit = hold
        sub = QueryRequest("PK", "sssp", 1, window=(1, 3))
        pending = service.submit(sub)
        deadline = time.monotonic() + 60
        while not dispatched and time.monotonic() < deadline:
            time.sleep(0.005)
        assert dispatched, "the plan was never dispatched"
        del service.pool.submit
        diverged, recovery = _diverged_recovery(2)
        service._install_recovery(recovery)
        held.set_result(dispatched[0].result(timeout=120))
        assert pending.wait(timeout=120).status == "ok"
        want = _reference_summaries(
            "PK", "tiny", 4, diverged, ["sssp"], 1
        )["sssp"]
        again = service.submit(sub).wait(timeout=120)
        full = service.submit(QueryRequest("PK", "sssp", 1)).wait(timeout=120)
        assert (again.status, again.epoch) == ("ok", 2)
        assert [s.as_dict() for s in full.summaries] == want
        assert [s.as_dict() for s in again.summaries] == [
            dict(w, snapshot=k) for k, w in enumerate(want[1:4])
        ]


def test_a_scenario_built_across_a_diverged_install_is_of_one_history():
    """A re-sync that installs a diverged log between the scenario
    cache's read and the log's read must not extend the old history's
    scenario with the new history's deltas: the query, and the next one
    (served from cache), equal from-scratch evaluation of the installed
    log."""
    from repro.service.drill import _reference_summaries

    with QueryService(ServiceConfig(**TINY)) as service:
        for seed in (1, 2):
            service.ingest("PK", seed=seed)
        diverged, recovery = _diverged_recovery(2)
        service._scenarios_lock = _InstallOnFirstRelease(
            service._scenarios_lock,
            lambda: service._install_recovery(recovery),
        )
        want = _reference_summaries(
            "PK", "tiny", 4, diverged, ["sssp"], 1
        )["sssp"]
        first = service.submit(QueryRequest("PK", "sssp", 1)).wait(120)
        again = service.submit(QueryRequest("PK", "sssp", 1)).wait(120)
        assert (first.status, first.epoch) == ("ok", 2)
        assert [s.as_dict() for s in first.summaries] == want
        assert (again.status, again.epoch) == ("cached", 2)
        assert [s.as_dict() for s in again.summaries] == want


def test_an_epoch_past_a_diverged_install_tip_answers_error():
    """A query admitted at epoch 3 and planned after a re-sync installs
    a 2-epoch diverged log names no scenario of the held history: it
    answers ``error`` in its one plan, and no generation is published
    for it."""
    from repro.service.drill import _reference_summaries

    with QueryService(ServiceConfig(**TINY)) as service:
        for seed in (1, 2, 3):
            service.ingest("PK", seed=seed)
        diverged, recovery = _diverged_recovery(2)
        service._scenarios_lock = _InstallOnFirstRelease(
            service._scenarios_lock,
            lambda: service._install_recovery(recovery),
        )
        published = service.plane.stats()["published"]
        past = service.submit(QueryRequest("PK", "sssp", 1)).wait(120)
        assert (past.status, past.epoch) == ("error", 3)
        assert "past the held log's tip" in past.error
        # terminal: no degraded retry that would fail the same way
        stats = service.service_stats()
        assert (stats["plans"], stats["retries"]) == (1, 0)
        assert service.plane.stats()["published"] == published
        after = service.submit(QueryRequest("PK", "sssp", 1)).wait(120)
        assert (after.status, after.epoch) == ("ok", 2)
        assert [s.as_dict() for s in after.summaries] == _reference_summaries(
            "PK", "tiny", 4, diverged, ["sssp"], 1
        )["sssp"]


@pytest.mark.parametrize("point", REPLICA_POINTS)
def test_fault_campaign_replica_trials_recover(point):
    outcome = run_trial(None, None, point, seed=0, skip=1)
    assert outcome.verdict == "recovered", outcome.detail


def test_run_load_redirects_ingest_to_primary(tmp_path):
    primary = _primary(tmp_path)
    replica = _replica(tmp_path)
    try:
        replica.start()
        spec = LoadSpec(duration_s=0.4, rate_qps=40, seed=1, n_sources=4,
                        ingest_every_s=0.15)
        report = run_load(
            replica.service, spec, resolve_primary=lambda: primary
        )
        r = report.results
        assert not report.degraded
        assert r["role"] == "follower"
        assert r["redirects"] >= 1 and r["ingests"] == 0
        assert "redirects" in report.format_table()
    finally:
        replica.stop(drain=False)
        primary.stop(drain=False)


def test_failover_drill_zero_loss_and_parity(tmp_path):
    report = run_failover_drill(
        tmp_path / "wal", failover_at_epoch=2, algos=["bfs"],
    )
    assert report.ok, report.format_table()
    assert report.facts["lost_deltas"] == 0
    assert report.checks["zombie_fenced"]
    assert report.checks["zombie_not_applied"]
    assert report.facts["new_fence_token"] > report.facts["old_fence_token"]
    assert report.checks["fence_advanced"]
    assert report.facts["orphan_segments"] == []
    table = report.format_table()
    assert "PASS" in table and "fence the zombie" in table
    assert "zombie_fenced" in table


def test_replica_tail_thread_converges_without_manual_polls(tmp_path):
    primary = _primary(tmp_path)
    replica = _replica(tmp_path, poll_interval_s=0.02)
    try:
        primary.ingest("PK", seed=1)
        replica.start()  # background tailer
        primary.ingest("PK", seed=2)
        deadline = time.monotonic() + 30
        while (replica.service.epoch("PK") < 2
               and time.monotonic() < deadline):
            time.sleep(0.02)
        assert replica.service.epoch("PK") == 2
    finally:
        replica.stop(drain=False)
        primary.stop(drain=False)


# -- CLI -------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--follow", "somewhere", "--wal-dir", "elsewhere"],
        ["serve-bench", "--drill", "failover", "--kill-at-epoch", "-1"],
        ["serve-bench", "--drill", "failover,crash"],
    ],
)
def test_cli_replica_bad_arguments_exit_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.strip()


def test_cli_failover_drill_writes_report(tmp_path, capsys):
    out = tmp_path / "BENCH_failover.json"
    rc = main([
        "serve-bench", "--scale", "tiny", "--snapshots", "4",
        "--workers", "1", "--drill", "failover", "--kill-at-epoch", "2",
        "--algos", "bfs",
        "--wal-dir", str(tmp_path / "wal"), "--out", str(out),
    ])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    import json

    doc = json.loads(out.read_text())
    assert doc["drill"] == "failover"
    assert doc["results"]["ok"] and doc["results"]["lost_deltas"] == 0
