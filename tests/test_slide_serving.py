"""Live sliding-window serving (`--slide-every`): slide parity under
ingest, cache rebasing across slides, WAL slide-record recovery, the
quorum-poll backoff, and the lock-free seeded-ingest race.

The parity tests are differential: a service configured to slide must
answer every query with the same summaries as a service that ingested
the identical delta log without slide checkpoints.
"""

from __future__ import annotations

import threading
import time
import types

import pytest

from repro.service import (
    QueryRequest,
    QueryService,
    ResultCache,
    ServiceConfig,
)
from repro.service.wal import write_follower_cursor

TINY = dict(scale="tiny", n_snapshots=4, workers=1)
ALGOS = ["bfs", "sssp", "sswp", "ssnp", "viterbi"]


def _config(**kw) -> ServiceConfig:
    merged = {**TINY, **kw}
    return ServiceConfig(**merged)


def _checksums(response):
    assert response.ok, response.error
    return [(s.snapshot, s.reached, s.checksum) for s in response.summaries]


# -- cache rebasing --------------------------------------------------------


def test_rebase_graph_moves_surviving_window_entries():
    from repro.service.request import SnapshotSummary

    cache = ResultCache(maxsize=8)
    movable = QueryRequest("PK", "sssp", 1, window=(1, 3))
    edge = QueryRequest("PK", "sssp", 1, window=(0, 2))
    full = QueryRequest("PK", "sssp", 1)
    other = QueryRequest("LJ", "sssp", 1, window=(1, 3))
    rows = [SnapshotSummary(0, 3, 1.0)]
    for req in (movable, edge, full, other):
        cache.put(req, 4, rows)
    rebased, dropped = cache.rebase_graph("PK", 5)
    # the (1,3) entry shifts to (0,2)@5; the lo=0 window and the full
    # query lose their oldest snapshot and must be dropped
    assert (rebased, dropped) == (1, 2)
    assert cache.get(QueryRequest("PK", "sssp", 1, window=(0, 2)), 5) == rows
    assert cache.get(movable, 4) is None
    assert cache.get(edge, 4) is None and cache.get(full, 4) is None
    # other graphs are untouched
    assert cache.get(other, 4) == rows


def test_window_query_cache_survives_a_slide_end_to_end():
    service = QueryService(_config(window_slide_every=2)).start()
    try:
        service.ingest_with_ack("PK", seed=1)
        first = service.submit(
            QueryRequest("PK", "sssp", 1, window=(1, 3))
        ).wait(timeout=120)
        assert first.ok
        service.ingest_with_ack("PK", seed=2)
        hit = service.submit(
            QueryRequest("PK", "sssp", 1, window=(0, 2))
        ).wait(timeout=120)
        assert hit.status == "cached"
        assert service.service_stats()["cache_rebased"] >= 1
        # the rebased entry is *correct*: recompute without the cache
        service.clear_caches()
        fresh = service.submit(
            QueryRequest("PK", "sssp", 1, window=(0, 2))
        ).wait(timeout=120)
        assert _checksums(hit) == _checksums(fresh)
    finally:
        service.stop(drain=False)


# -- slide parity under live ingest ---------------------------------------


def test_sliding_service_matches_scratch_service_all_algos():
    """With ``--slide-every`` on, every algorithm answers bit-identically
    to a no-sliding service that ingested the same delta log, before and
    after a slide checkpoint's eager republish."""
    slid = QueryService(_config(window_slide_every=2)).start()
    plain = QueryService(_config()).start()
    try:
        slid.ingest_with_ack("PK", seed=1)
        # attach epoch 1's generation, which the checkpoint at epoch 2
        # then retires
        for algo in ALGOS:
            assert slid.submit(QueryRequest("PK", algo, 1)).wait(120).ok
        slid.ingest_with_ack("PK", seed=2)
        slid.ingest_with_ack("PK", seed=3)
        for delta in slid.graph_deltas("PK"):
            plain.ingest_with_ack("PK", delta=delta)
        assert plain.epoch("PK") == slid.epoch("PK") == 3
        for algo in ALGOS:
            a = slid.submit(QueryRequest("PK", algo, 1)).wait(timeout=120)
            b = plain.submit(QueryRequest("PK", algo, 1)).wait(timeout=120)
            assert _checksums(a) == _checksums(b), algo
        stats = slid.service_stats()
        assert stats["errored"] == 0
        health = slid.health()["sliding"]
        assert health["enabled"] and health["slide_every"] == 2
        assert health["slides"]["PK"] == 1  # epoch 2 was the checkpoint
    finally:
        slid.stop(drain=False)
        plain.stop(drain=False)


# -- WAL slide records -----------------------------------------------------


def test_slide_records_recover_counters_and_are_not_unknown(tmp_path, caplog):
    wal_dir = str(tmp_path / "wal")
    service = QueryService(
        _config(window_slide_every=2, wal_dir=wal_dir)
    ).start()
    try:
        for seed in (1, 2, 3, 4):
            service.ingest_with_ack("PK", seed=seed)
        wires = [d.to_wire() for d in service.graph_deltas("PK")]
        assert service.health()["sliding"]["slides"] == {"PK": 2}
    finally:
        service.stop(drain=False)

    with caplog.at_level("WARNING", logger="repro.service.core"):
        revived = QueryService(
            _config(window_slide_every=2, wal_dir=wal_dir)
        ).start()
        try:
            assert revived.epoch("PK") == 4
            assert [
                d.to_wire() for d in revived.graph_deltas("PK")
            ] == wires
            # the slide counters survive the restart via the slide
            # records / compaction snapshot, not by re-running slides
            assert revived.health()["sliding"]["slides"] == {"PK": 2}
        finally:
            revived.stop(drain=False)
    assert "unknown record op" not in caplog.text


# -- quorum ack polling ----------------------------------------------------


def test_slow_follower_ack_is_not_degraded(tmp_path):
    """A follower that needs ~100 ms to ack must still produce a clean
    (non-degraded) quorum ack — the backoff waits, it does not give up."""
    wal_dir = tmp_path / "wal"
    primary = QueryService(
        _config(ack_mode="quorum:1", quorum_timeout_s=30.0,
                wal_dir=str(wal_dir))
    ).start()
    try:
        def late_ack():
            time.sleep(0.12)
            write_follower_cursor(
                wal_dir, "f1", primary.wal.position(), {"PK": 1}
            )

        t = threading.Thread(target=late_ack)
        t.start()
        epoch, ack = primary.ingest_with_ack("PK", seed=1)
        t.join()
        assert epoch == 1
        assert not ack["degraded"] and ack["acked_by"] == ["f1"]
        assert ack["wait_s"] >= 0.1
    finally:
        primary.stop(drain=False)


def test_quorum_poll_backs_off_exponentially(monkeypatch):
    """Unit test of `_await_quorum` on a fake clock: the poll pause
    starts at 1 ms, grows geometrically, caps at 50 ms, and therefore
    issues far fewer polls than the old fixed 3 ms spin."""
    from repro.service import core as score

    service = QueryService(
        _config(ack_mode="quorum:1", quorum_timeout_s=0.5)
    )
    # an unstarted service has no WAL; stub one whose dir has no
    # follower cursors so every poll comes up empty until the deadline
    service.wal = types.SimpleNamespace(wal_dir="/nonexistent-wal-dir")
    clock = {"t": 0.0}
    sleeps: list[float] = []

    def fake_sleep(s):
        sleeps.append(s)
        clock["t"] += max(s, 1e-6)

    monkeypatch.setattr(score.time, "monotonic", lambda: clock["t"])
    monkeypatch.setattr(score.time, "sleep", fake_sleep)
    ack = service._await_quorum("PK", 1)
    assert ack["degraded"] and ack["acked_by"] == []
    assert sleeps[0] == pytest.approx(score._QUORUM_POLL_MIN_S)
    assert max(sleeps) <= score._QUORUM_POLL_MAX_S + 1e-12
    # monotone non-decreasing growth (the final sleep may be clamped to
    # the remaining deadline)
    body = sleeps[:-1]
    assert all(b >= a for a, b in zip(body, body[1:]))
    assert sleeps.count(score._QUORUM_POLL_MAX_S) >= 2  # reached the cap
    # the old behavior was ~166 fixed 3 ms polls over a 0.5 s timeout
    assert len(sleeps) <= 20


# -- optimistic seeded-ingest concurrency ----------------------------------


def test_concurrent_seeded_ingests_all_land_validly():
    """Seeded delta synthesis runs outside `_graphs_lock`; two racing
    ingest threads must both land (the loser resynthesizes against the
    new epoch) and the combined log must replay cleanly."""
    service = QueryService(_config()).start()
    try:
        errors: list[Exception] = []
        barrier = threading.Barrier(2)

        def ingest(base_seed):
            try:
                barrier.wait()
                for i in range(3):
                    service.ingest_with_ack("PK", seed=base_seed + i)
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=ingest, args=(s,)) for s in (10, 20)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert service.epoch("PK") == 6
        assert len(service.graph_deltas("PK")) == 6
        # the landed log is consistent: publishing its scenario applies
        # all six deltas and must succeed, not trip delta validation
        resp = service.submit(QueryRequest("PK", "sssp", 1)).wait(120)
        assert resp.ok
        assert service.service_stats()["errored"] == 0
    finally:
        service.stop(drain=False)
