"""Self-healing replication cluster: quorum acks, failure detection,
leader election, and the unattended chaos drill.

Every detector/election test runs on a :class:`ManualClock` with
hand-cranked ``tick()`` calls, so suspicion values, election rounds, and
CAS outcomes are deterministic; the chaos drill (subprocess primary +
SIGKILL + self-election) runs once end to end.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.cli import main
from repro.resilience.campaign import CLUSTER_POINTS, run_trial
from repro.service import (
    ClusterNode,
    QueryRequest,
    QueryService,
    ReplicaServer,
    ServiceConfig,
    WalPosition,
    current_fence_token,
    parse_ack_mode,
    run_chaos_kill_drill,
    safe_follower_id,
    try_claim_fence,
)
from repro.service.cluster import (
    Beacon,
    HeartbeatMonitor,
    ManualClock,
    write_beacon,
)
from repro.service.drill import _digests_match, _reference_summaries
from repro.service.wal import write_follower_cursor

TINY = dict(scale="tiny", n_snapshots=4, workers=1)


def _primary(tmp_path, **over) -> QueryService:
    cfg = dict(TINY, wal_dir=str(tmp_path / "wal"))
    cfg.update(over)
    return QueryService(ServiceConfig(**cfg)).start()


def _replica(tmp_path, follower_id="r1", **kwargs) -> ReplicaServer:
    return ReplicaServer(
        tmp_path / "wal", ServiceConfig(**TINY),
        follower_id=follower_id, **kwargs
    )


# -- ack modes -------------------------------------------------------------


def test_parse_ack_mode_accepts_local_and_quorum_spellings():
    assert parse_ack_mode("local") == ("local", 0)
    assert parse_ack_mode("quorum:2") == ("quorum", 2)
    assert parse_ack_mode("quorum(3)") == ("quorum", 3)


@pytest.mark.parametrize("raw", ["", "quorum", "quorum:0", "majority", "2"])
def test_parse_ack_mode_rejects_garbage(raw):
    with pytest.raises(ValueError):
        parse_ack_mode(raw)


def test_quorum_ack_waits_for_follower_cursor(tmp_path):
    primary = _primary(tmp_path, ack_mode="quorum:1", quorum_timeout_s=30.0)
    replica = _replica(tmp_path, poll_interval_s=0.02)
    try:
        replica.start()  # background tailer writes acked-position cursors
        epoch, ack = primary.ingest_with_ack("PK", seed=1)
        assert epoch == 1
        assert ack["mode"] == "quorum" and ack["required"] == 1
        assert not ack["degraded"]
        assert "r1" in ack["acked_by"]
        assert primary.service_stats()["quorum_acks"] == 1
    finally:
        replica.stop(drain=False)
        primary.stop(drain=False)


def test_quorum_ack_degrades_on_timeout_never_blocks_or_loses(tmp_path):
    primary = _primary(tmp_path, ack_mode="quorum:1", quorum_timeout_s=0.2)
    try:
        t0 = time.monotonic()
        epoch, ack = primary.ingest_with_ack("PK", seed=1)
        waited = time.monotonic() - t0
        # no follower ever acks: the ingest degrades to local durability
        # after the timeout instead of stalling forever or raising
        assert epoch == 1 and primary.epoch("PK") == 1
        assert ack["degraded"] and ack["acked_by"] == []
        assert 0.2 <= waited < 10.0
        assert primary.service_stats()["degraded_acks"] == 1
        assert primary.health()["ack_mode"] == "quorum:1"
    finally:
        primary.stop(drain=False)


# -- follower id validation (path traversal) -------------------------------


@pytest.mark.parametrize(
    "bad", ["../escape", "a/../b", "", "/abs", ".hidden", "x" * 65]
)
def test_follower_ids_with_traversal_or_junk_are_rejected(tmp_path, bad):
    with pytest.raises(ValueError):
        safe_follower_id(bad)
    with pytest.raises(ValueError):
        write_follower_cursor(tmp_path, bad, WalPosition(), {})
    with pytest.raises(ValueError):
        ReplicaServer(
            tmp_path / "wal", ServiceConfig(**TINY), follower_id=bad
        )


def test_follower_cursor_stays_inside_followers_dir(tmp_path):
    write_follower_cursor(tmp_path, "ok-1", WalPosition(), {"PK": 1})
    assert (tmp_path / "followers" / "ok-1.json").exists()


# -- fence CAS -------------------------------------------------------------


def test_fence_cas_exactly_one_racer_wins(tmp_path):
    pos = WalPosition(segment=1, offset=10)
    expected = current_fence_token(tmp_path)
    results = []
    barrier = threading.Barrier(2)

    def racer():
        barrier.wait()
        results.append(try_claim_fence(tmp_path, pos, expected))

    threads = [threading.Thread(target=racer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wins = [r for r in results if r is not None]
    assert len(wins) == 1 and wins[0] == expected + 1
    assert current_fence_token(tmp_path) == expected + 1
    # a stale expectation can never claim
    assert try_claim_fence(tmp_path, pos, expected) is None
    # the next round's winner takes the next token
    assert try_claim_fence(tmp_path, pos, expected + 1) == expected + 2


# -- unattended election (manual clock, manual ticks) ----------------------


def _cluster_pair(tmp_path, clk, interval=0.1):
    """A live primary + two supervised followers on one manual clock."""
    primary = _primary(tmp_path)
    wal_dir = tmp_path / "wal"
    pnode = ClusterNode(
        wal_dir, "node-0", service=primary, cluster_size=3,
        heartbeat_interval_s=interval, clock=clk.now,
    )
    followers = []
    for i in (1, 2):
        replica = _replica(tmp_path, follower_id=f"node-{i}")
        node = ClusterNode(
            wal_dir, f"node-{i}", replica=replica, cluster_size=3,
            heartbeat_interval_s=interval, clock=clk.now,
        )
        followers.append(node)
    return primary, pnode, followers


def _teardown(primary, followers):
    for node in followers:
        node.stop()
        node.replica.stop(drain=False)
    primary.stop(drain=False)


def test_unattended_election_exactly_one_winner_and_retarget(tmp_path):
    clk = ManualClock()
    interval = 0.1
    primary, pnode, followers = _cluster_pair(tmp_path, clk, interval)
    try:
        primary.ingest("PK", seed=1)
        primary.ingest("PK", seed=2)
        for node in followers:
            node.replica.start(tail_thread=False)
        # priming: everyone learns everyone's cadence
        for _ in range(6):
            pnode.tick()
            for node in followers:
                node.tick()
                node.replica.poll_once()
            clk.advance(interval)
        # the primary dies (stops beating); nobody calls promote()
        actions: dict[str, list[str]] = {n.node_id: [] for n in followers}
        for _ in range(120):
            clk.advance(interval)
            for node in followers:
                actions[node.node_id].append(node.tick())
            if any(n.role == "primary" for n in followers):
                break
        winners = [n for n in followers if n.role == "primary"]
        assert len(winners) == 1, actions
        winner = winners[0]
        assert winner.elections == 1
        assert winner.service.epoch("PK") == 2  # caught up before claiming
        assert current_fence_token(tmp_path / "wal") == 2
        # the loser settles back to following the new primary
        loser = next(n for n in followers if n is not winner)
        for _ in range(12):
            clk.advance(interval)
            winner.tick()
            last = loser.tick()
        assert last == "follower" and loser.role == "follower"
        assert loser.primary_node_id == winner.node_id
        # and replicates the winner's post-election ingest
        winner.service.ingest("PK", seed=3)
        loser.replica.poll_once()
        assert loser.service.epoch("PK") == 3
    finally:
        _teardown(primary, followers)


def test_late_elector_defers_to_a_fresh_winner_instead_of_reclaiming(
    tmp_path,
):
    """Both followers confirm the dead primary; the first to catch up
    wins.  The other — caught up past the winner's stale follower beacon
    — must not CAS the next token before the winner's primary beacon
    has had an election grace to appear."""
    clk = ManualClock()
    interval = 0.1
    primary, pnode, followers = _cluster_pair(tmp_path, clk, interval)
    try:
        primary.ingest("PK", seed=1)
        for node in followers:
            node.replica.start(tail_thread=False)
        for _ in range(6):
            pnode.tick()
            for node in followers:
                node.tick()
                node.replica.poll_once()
            clk.advance(interval)
        # the primary's last epoch lands, then it dies: every beacon now
        # understates the position an elector reaches by catching up
        primary.ingest("PK", seed=2)
        old = current_fence_token(tmp_path / "wal")
        winner = None
        for _ in range(120):
            clk.advance(interval)
            for node in followers:
                if node.tick() == "promoted":
                    winner = node
                    break
            if winner is not None:
                break
        assert winner is not None
        loser = next(n for n in followers if n is not winner)
        # the winner has not beaten as primary yet; the loser confirms
        # the dead primary within the grace and must back off
        actions = []
        for _ in range(int(winner.election_grace_s / interval) - 1):
            actions.append(loser.tick())
            clk.advance(interval)
        assert "promoted" not in actions and "deferred" in actions, actions
        assert winner.elections + loser.elections == 1
        assert current_fence_token(tmp_path / "wal") == old + 1
        # once the winner beacons, the loser follows it
        for _ in range(12):
            winner.tick()
            clk.advance(interval)
            last = loser.tick()
        assert last == "follower" and loser.primary_node_id == winner.node_id
        assert winner.role == "primary" and winner.elections == 1
        assert current_fence_token(tmp_path / "wal") == old + 1
    finally:
        _teardown(primary, followers)


def test_fsynced_but_unacked_epoch_survives_election_or_reports_degraded(
    tmp_path,
):
    """The kill window between WAL fsync and quorum ack: the epoch must
    either land on the new primary (it does — electors catch up to the
    fsynced tip before claiming) or be reported unacked.  Never both
    acked and lost."""
    primary = _primary(tmp_path, ack_mode="quorum:1", quorum_timeout_s=0.2)
    replica = _replica(tmp_path)
    try:
        replica.start(tail_thread=False)  # syncs, then stops polling
        # the follower is not polling, so the ack degrades: the client
        # is told the epoch is NOT quorum-durable
        epoch, ack = primary.ingest_with_ack("PK", seed=1)
        assert ack["degraded"]
        # primary dies right here; the follower elects itself
        primary.stop(drain=False)
        for _ in range(64):
            if replica.poll_once() == 0:
                break
        token = try_claim_fence(
            tmp_path / "wal", replica.position(),
            current_fence_token(tmp_path / "wal"),
        )
        assert token is not None
        replica.promote(claimed_token=token)
        # the fsynced epoch survived onto the new primary anyway
        assert replica.service.epoch("PK") == epoch == 1
    finally:
        replica.stop(drain=False)
        primary.stop(drain=False)


def test_heartbeat_flapping_under_clock_jitter_never_confirms(tmp_path):
    """Jittered arrivals (0.5x-1.9x cadence) must not confirm a suspect;
    true silence must."""
    clk = ManualClock()
    monitor = HeartbeatMonitor(
        tmp_path, "observer", interval_s=0.1, clock=clk.now
    )

    def beat(seq):
        write_beacon(tmp_path, Beacon(
            node_id="peer", role="primary", fence_token=1,
            position=WalPosition(), epochs={}, seq=seq, sent_unix=0.0,
        ))

    # deterministic jitter pattern around the 0.1s cadence
    gaps = [0.05, 0.19, 0.07, 0.15, 0.11, 0.05, 0.18, 0.06, 0.14, 0.1] * 3
    seq = 0
    for gap in gaps:
        seq += 1
        beat(seq)
        monitor.observe()
        clk.advance(gap)
        monitor.observe()  # a mid-gap observation must not trip either
        assert not monitor.confirmed_suspect("peer"), (
            f"flapped at gap {gap}: phi {monitor.suspicion('peer'):.2f}"
        )
    # now the peer actually dies: suspicion must confirm and stick
    for _ in range(30):
        clk.advance(0.1)
        monitor.observe()
    assert monitor.confirmed_suspect("peer")
    assert monitor.suspects() == ["peer"]
    # hysteresis: one fresh beacon clears the verdict
    beat(seq + 1)
    monitor.observe()
    assert not monitor.confirmed_suspect("peer")


def _sssp_at(service: QueryService, epoch: int) -> list[dict]:
    response = service.submit(QueryRequest("PK", "sssp", 1)).wait(timeout=120)
    assert response is not None and response.ok
    assert response.epoch == epoch
    return [s.as_dict() for s in response.summaries]


def test_zombie_primary_demotes_itself_on_newer_fence(tmp_path):
    clk = ManualClock()
    primary, pnode, followers = _cluster_pair(tmp_path, clk)
    try:
        primary.ingest("PK", seed=1)
        primary.ingest("PK", seed=2)
        follower = followers[0]
        follower.replica.start(tail_thread=False)
        for _ in range(64):
            if follower.replica.poll_once() == 0:
                break
        # a rival claims the fence behind the primary's back (the
        # network-partition shape: the primary is alive but superseded)
        token = try_claim_fence(
            tmp_path / "wal", follower.replica.position(),
            current_fence_token(tmp_path / "wal"),
        )
        follower.replica.promote(claimed_token=token)
        # the zombie still takes one ingest and answers at its own epoch
        # 3, publishing a generation the fence throws out; the new
        # primary writes the real epoch 3
        assert primary.ingest("PK", seed=100) == 3
        zombie_answer = _sssp_at(primary, 3)
        new_primary = follower.replica.service
        assert new_primary.ingest("PK", seed=3) == 3
        assert pnode.tick() == "demoted"
        assert primary.role == "follower"
        assert pnode.demotions == 1
        with pytest.raises(Exception):
            primary.ingest("PK", seed=2)  # refuses as a follower now
        # the re-sync replaced the divergent log: the demoted node serves
        # the new primary's epoch 3, not the scenario it built on its own
        assert primary.epoch("PK") == 3
        want = _reference_summaries(
            "PK", "tiny", 4, primary.graph_deltas("PK"), ["sssp"], 1,
        )["sssp"]
        assert _digests_match(_sssp_at(new_primary, 3), want)
        assert want != zombie_answer
        assert _digests_match(_sssp_at(primary, 3), want)
    finally:
        _teardown(primary, followers)


# -- promote vs in-flight re-sync (regression) -----------------------------


def test_promote_waits_for_inflight_resync(tmp_path, monkeypatch):
    """promote() during a wholesale re-sync must serialize behind it —
    never fence and promote against a half-installed snapshot."""
    primary = _primary(tmp_path)
    replica = _replica(tmp_path)
    try:
        primary.ingest("PK", seed=1)
        replica.start(tail_thread=False)
        primary.ingest("PK", seed=2)

        entered = threading.Event()
        release = threading.Event()
        real_install = replica.service._install_recovery

        def slow_install(recovery):
            entered.set()
            assert release.wait(timeout=30)
            return real_install(recovery)

        monkeypatch.setattr(
            replica.service, "_install_recovery", slow_install
        )
        resync = threading.Thread(target=replica._resync, daemon=True)
        resync.start()
        assert entered.wait(timeout=30)
        assert replica.resync_in_progress

        promoted: list[int] = []
        promote = threading.Thread(
            target=lambda: promoted.append(replica.promote()), daemon=True
        )
        promote.start()
        promote.join(timeout=0.5)
        # the promote is parked behind the re-sync, not interleaved
        assert promote.is_alive() and not promoted
        release.set()
        resync.join(timeout=30)
        promote.join(timeout=30)
        assert not promote.is_alive()
        assert promoted and promoted[0] >= 2
        assert not replica.resync_in_progress
        assert replica.service.role == "primary"
        assert replica.service.epoch("PK") == 2  # full chain, no half state
    finally:
        replica.stop(drain=False)
        primary.stop(drain=False)


# -- fault campaign --------------------------------------------------------


@pytest.mark.parametrize(
    "point,skip",
    [("cluster.heartbeat-drop", 1), ("cluster.split-fence", 0)],
)
def test_fault_campaign_cluster_trials_recover(point, skip):
    assert point in CLUSTER_POINTS
    outcome = run_trial(None, None, point, seed=0, skip=skip)
    assert outcome.verdict == "recovered", outcome.detail


# -- the unattended chaos drill -------------------------------------------


def test_chaos_kill_drill_unattended_election_zero_loss(tmp_path):
    report = run_chaos_kill_drill(
        tmp_path / "wal", cluster=3, kill_at_epoch=2,
        algos=["bfs"], load_duration_s=8.0,
    )
    assert report.ok, report.format_table()
    facts = report.facts
    assert facts["lost_quorum_acked"] == 0
    assert facts["degraded_acks"] == 0
    assert facts["elected_node"] in ("node-1", "node-2")
    assert facts["new_fence_token"] > facts["old_fence_token"]
    assert facts["failovers"] >= 1 and facts["post_kill_ingests"] >= 1
    assert facts["survivor_primary_view"] == facts["elected_node"]
    assert report.checks["survivor_retargeted"]
    parity = {k: v for k, v in report.checks.items() if k.startswith("parity:")}
    assert parity == {"parity:bfs": True}
    assert facts["orphan_segments"] == []
    doc = json.loads(report.to_json())
    assert doc["drill"] == "chaos"
    assert doc["results"]["ok"] and doc["results"]["parity"] == {"bfs": True}
    table = report.format_table()
    assert "PASS" in table and "unattended election" in table


# -- CLI -------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--cluster", "1"],
        ["serve", "--cluster", "3"],  # primary without --wal-dir
        # sharded serving is gone: --shards is an unknown argument now
        ["serve", "--cluster", "2", "--shards", "2", "--wal-dir", "w"],
        ["serve", "--shards", "2"],
        ["serve-bench", "--shards", "2"],
        ["serve-bench", "--drill", "shard-kill"],
        ["serve", "--follow", "w", "--follower-id", "../evil"],
        ["serve-bench", "--ack-mode", "bogus"],
        ["serve-bench", "--ack-mode", "quorum:1"],  # no replication dir
        ["serve-bench", "--quorum-timeout", "0"],
        ["serve-bench", "--drill", "chaos", "--kill-at-epoch", "0"],
        ["serve-bench", "--drill", "chaos-kill"],
    ],
)
def test_cli_cluster_bad_arguments_exit_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err.strip()
    assert "error:" in err.splitlines()[-1]
    assert "Traceback" not in err
