"""Durable ingest: WAL framing, recovery, overload protection, drills.

The WAL unit layer needs no service at all; the recovery-into-service
tests spin up a real tiny-scale process-pool service; the crash drill is
exercised end to end (subprocess + SIGKILL) once, at tiny scale.
"""

from __future__ import annotations

import json
import os
import pathlib
import stat
import tempfile
import threading
import time
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.resilience import faults
from repro.resilience.campaign import WAL_POINTS, run_trial
from repro.service import (
    DeltaBatch,
    QueryRequest,
    QueryService,
    ServiceConfig,
    SimulatedCrash,
    recover_wal,
    run_crash_drill,
    split_expired,
    validate_request,
)
from repro.service import wal as wal_module
from repro.service.batcher import PendingQuery
from repro.service.server import ServiceFrontend
from repro.service.wal import (
    _HEADER,
    FENCE_NAME,
    QUARANTINE_NAME,
    SNAPSHOT_NAME,
    JsonText,
    WalPosition,
    WalWriteError,
    WriteAheadLog,
    advance_fence,
    current_fence_token,
    read_from,
    read_snapshot,
    write_follower_cursor,
)

TINY = dict(scale="tiny", n_snapshots=4, workers=1)


def _record(epoch: int, graph: str = "PK") -> dict:
    return {
        "op": "ingest", "graph": graph, "epoch": epoch,
        "delta": {"adds": [[0, epoch, 1.0]], "dels": []},
    }


def _fill(wal: WriteAheadLog, n: int, graph: str = "PK") -> list[dict]:
    records = [_record(k, graph) for k in range(1, n + 1)]
    for r in records:
        wal.append(r)
    return records


# -- framing and recovery (no service) -------------------------------------


def test_wal_roundtrip_preserves_records_and_order(tmp_path):
    wal = WriteAheadLog(tmp_path, fsync="always")
    records = _fill(wal, 5)
    assert wal.stats()["records"] == 5
    assert wal.stats()["lag_records"] == 0  # always-fsync: nothing pending
    wal.close()
    recovery = recover_wal(tmp_path)
    assert recovery.clean and not recovery.truncated_tail
    assert recovery.records == records


def test_wal_segment_rotation_and_reopen(tmp_path):
    wal = WriteAheadLog(tmp_path, fsync="never", segment_bytes=64)
    _fill(wal, 6)  # every frame is ~> 64 bytes, so one record per segment
    wal.close()
    segments = sorted(tmp_path.glob("wal-*.seg"))
    assert len(segments) >= 6
    # reopening never appends into an old segment
    wal2 = WriteAheadLog(tmp_path)
    wal2.append(_record(7))
    wal2.close()
    assert sorted(tmp_path.glob("wal-*.seg"))[-1] not in segments
    recovery = recover_wal(tmp_path)
    assert [r["epoch"] for r in recovery.records] == [1, 2, 3, 4, 5, 6, 7]


def test_wal_batch_fsync_tracks_lag(tmp_path):
    wal = WriteAheadLog(tmp_path, fsync="batch", sync_every=4)
    _fill(wal, 6)
    assert wal.stats()["lag_records"] == 2  # synced at 4, two pending
    wal.sync()
    assert wal.stats()["lag_records"] == 0
    wal.close()


def test_wal_rejects_unknown_fsync_policy(tmp_path):
    with pytest.raises(ValueError, match="fsync"):
        WriteAheadLog(tmp_path, fsync="sometimes")


def test_wal_torn_tail_truncated_once_then_clean(tmp_path):
    wal = WriteAheadLog(tmp_path, fsync="always")
    _fill(wal, 3)
    wal.close()
    segment = sorted(tmp_path.glob("wal-*.seg"))[-1]
    segment.write_bytes(segment.read_bytes()[:-5])  # tear the last record
    recovery = recover_wal(tmp_path)
    assert recovery.truncated_tail and not recovery.clean
    assert [r["epoch"] for r in recovery.records] == [1, 2]
    assert any("torn tail" in w for w in recovery.warnings)
    # the repair is durable: a second recovery sees a clean log
    again = recover_wal(tmp_path)
    assert again.clean and [r["epoch"] for r in again.records] == [1, 2]


def test_wal_short_header_tail_truncated(tmp_path):
    wal = WriteAheadLog(tmp_path, fsync="always")
    _fill(wal, 2)
    wal.close()
    segment = sorted(tmp_path.glob("wal-*.seg"))[-1]
    with open(segment, "ab") as fh:
        fh.write(b"\x00\x00")  # 2 of 8 header bytes
    recovery = recover_wal(tmp_path)
    assert recovery.truncated_tail
    assert len(recovery.records) == 2


def test_wal_crc_mismatch_quarantines_exactly_that_record(tmp_path):
    wal = WriteAheadLog(tmp_path, fsync="always")
    _fill(wal, 3)
    wal.close()
    segment = sorted(tmp_path.glob("wal-*.seg"))[-1]
    data = bytearray(segment.read_bytes())
    # flip one payload byte of the *second* record
    first_len = _HEADER.unpack_from(data, 0)[0]
    second_at = _HEADER.size + first_len
    data[second_at + _HEADER.size] ^= 0xFF
    segment.write_bytes(bytes(data))
    recovery = recover_wal(tmp_path)
    assert recovery.quarantined == 1
    assert [r["epoch"] for r in recovery.records] == [1, 3]
    quarantine = (tmp_path / QUARANTINE_NAME).read_text().strip().splitlines()
    assert len(quarantine) == 1
    entry = json.loads(quarantine[0])
    assert entry["reason"] == "crc-mismatch" and entry["payload_hex"]


def test_wal_valid_crc_invalid_json_quarantined(tmp_path):
    payload = b"not json at all"
    frame = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
    (tmp_path / "wal-00000001.seg").write_bytes(frame)
    recovery = recover_wal(tmp_path)
    assert recovery.quarantined == 1 and not recovery.records


def test_wal_compaction_snapshots_and_drops_segments(tmp_path):
    wal = WriteAheadLog(tmp_path, fsync="always")
    _fill(wal, 3)
    wal.compact({"epochs": {"PK": 3}, "logs": {"PK": []}})
    assert not list(tmp_path.glob("wal-*.seg"))
    assert (tmp_path / SNAPSHOT_NAME).exists()
    post = _fill(wal, 1)  # appends after compaction land in a new segment
    wal.close()
    recovery = recover_wal(tmp_path)
    assert recovery.snapshot == {"epochs": {"PK": 3}, "logs": {"PK": []}}
    assert recovery.records == post
    assert wal.stats()["compactions"] == 1


def _fs_steps(monkeypatch, action) -> list[str]:
    """The file-system steps ``action()`` takes, in order: file and
    directory fsyncs, renames and unlinks."""
    steps: list[str] = []
    real_fsync, real_replace = os.fsync, os.replace
    real_unlink = pathlib.Path.unlink
    # the patches are process-wide: threads other tests left running
    # (heartbeats, cursors) must not land in this list
    mine = threading.get_ident()

    def record(step: str) -> None:
        if threading.get_ident() == mine:
            steps.append(step)

    def fsync(fd):
        record("fsync dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file")
        real_fsync(fd)

    def replace(src, dst):
        record(f"replace {pathlib.Path(dst).name}")
        real_replace(src, dst)

    def unlink(path, *args, **kwargs):
        record(f"unlink {path.name}")
        real_unlink(path, *args, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(os, "fsync", fsync)
        patched.setattr(os, "replace", replace)
        patched.setattr(pathlib.Path, "unlink", unlink)
        action()
    return steps


def _compaction_steps(monkeypatch, wal_dir, fsync: str) -> list[str]:
    """The file-system steps one compaction over two segments takes,
    in order."""
    wal = WriteAheadLog(wal_dir, fsync=fsync)
    _fill(wal, 3)
    wal.rotate()
    _fill(wal, 2)
    steps = _fs_steps(
        monkeypatch,
        lambda: wal.compact({"epochs": {"PK": 5}, "logs": {"PK": []}}),
    )
    wal.close()
    return steps


_DURABLE_COMPACTION = [
    "fsync file",
    f"replace {SNAPSHOT_NAME}",
    "fsync dir",
    "unlink wal-00000001.seg",
    "unlink wal-00000002.seg",
]


@pytest.mark.parametrize(
    "fsync, steps",
    [
        ("always", _DURABLE_COMPACTION),
        ("batch", _DURABLE_COMPACTION),
        ("never", [s for s in _DURABLE_COMPACTION if "fsync" not in s]),
    ],
)
def test_compaction_snapshot_is_durable_before_any_segment_goes(
    tmp_path, monkeypatch, fsync, steps
):
    """A power cut anywhere in a compaction keeps every acknowledged
    epoch: the snapshot's bytes, then its name, reach the disk before
    the first segment is unlinked.  Only ``never`` skips both syncs."""
    assert _compaction_steps(monkeypatch, tmp_path, fsync) == steps


@pytest.mark.parametrize(
    "name, write",
    [
        (FENCE_NAME, lambda d: advance_fence(d, WalPosition())),
        ("f1.json", lambda d: write_follower_cursor(
            d, "f1", WalPosition(), {"PK": 1}
        )),
    ],
    ids=["fence", "cursor"],
)
def test_fence_and_cursor_renames_are_durable(tmp_path, monkeypatch,
                                              name, write):
    """A fence advance and a follower's acked-position report survive a
    power cut: the tmp file is fsync'd, renamed, then its directory is
    fsync'd so the rename itself reaches the disk."""
    steps = _fs_steps(monkeypatch, lambda: write(tmp_path))
    assert steps == ["fsync file", f"replace {name}", "fsync dir"]


def test_wal_stats_report_the_snapshot_size(tmp_path):
    wal = WriteAheadLog(tmp_path, fsync="always")
    assert wal.stats()["snapshot_bytes"] == 0
    records = _fill(wal, 3)
    wal.compact({
        "epochs": {"PK": 3}, "logs": {"PK": [r["delta"] for r in records]},
    })
    size = (tmp_path / SNAPSHOT_NAME).stat().st_size
    assert size > 0 and wal.stats()["snapshot_bytes"] == size
    wal.close()
    # a reopened log reports the snapshot it found
    assert WriteAheadLog(tmp_path).stats()["snapshot_bytes"] == size


def test_spliced_snapshot_text_equals_encoding_the_whole_dict(tmp_path):
    """Pre-encoded values spliced into the snapshot give the bytes
    ``json.dumps(..., sort_keys=True)`` gives for the decoded dict."""
    logs = {
        "PK": [{"adds": [[0, 1, 1.25]], "dels": [], "meta": {"seed": 2}}],
        "ÉW": [],
        "LJ": [{"adds": [], "dels": [[3, 4]], "meta": {"z": 1, "a": "é"}}],
    }
    wal = WriteAheadLog(tmp_path, fsync="never")
    wal.compact({
        "slides": {"PK": 1},
        "logs": {g: JsonText(json.dumps(w, sort_keys=True))
                 for g, w in logs.items()},
        "epochs": {"PK": 1},
    })
    wal.close()
    raw = (tmp_path / SNAPSHOT_NAME).read_bytes()
    decoded = json.loads(raw)
    assert decoded["logs"] == logs
    assert raw == json.dumps(decoded, sort_keys=True).encode()


def test_wal_unreadable_snapshot_is_warned_not_fatal(tmp_path):
    wal = WriteAheadLog(tmp_path, fsync="always")
    records = _fill(wal, 2)
    wal.close()
    (tmp_path / SNAPSHOT_NAME).write_text("{truncated")
    recovery = recover_wal(tmp_path)
    assert recovery.snapshot is None
    assert any(SNAPSHOT_NAME in w for w in recovery.warnings)
    assert recovery.records == records


def test_recover_missing_dir_is_empty_and_clean(tmp_path):
    recovery = recover_wal(tmp_path / "never-created")
    assert recovery.clean and not recovery.records


def test_wal_injected_torn_write_never_acknowledges(tmp_path):
    wal = WriteAheadLog(tmp_path, fsync="always")
    plan = faults.FaultPlan(["service.wal-torn-write"], seed=3, skip=1)
    acked = []
    with faults.inject(plan):
        for k in range(1, 5):
            try:
                wal.append(_record(k))
                acked.append(k)
            except WalWriteError:
                pass
    wal.close()
    assert acked == [1, 3, 4]  # skip=1: the second append tore
    recovery = recover_wal(tmp_path)
    assert [r["epoch"] for r in recovery.records] == acked
    assert not recovery.clean  # the torn frame was noticed


# -- replication cursor: read_from, rotation, compaction, fencing ----------


def test_read_from_genesis_and_incremental_cursor(tmp_path):
    wal = WriteAheadLog(tmp_path, fsync="always")
    records = _fill(wal, 3)
    tail = read_from(tmp_path)
    assert tail.records == records and not tail.reset
    position = tail.position
    # the cursor round-trips through its wire form (follower checkpoint)
    assert WalPosition.from_dict(position.as_dict()) == position
    assert read_from(tmp_path, position).records == []
    wal.append(_record(4))
    wal.append(_record(5))
    incremental = read_from(tmp_path, position)
    assert incremental.records == [_record(4), _record(5)]
    assert read_from(tmp_path, incremental.position).records == []
    wal.close()


def test_read_from_follows_appends_across_rotation(tmp_path):
    # segment_bytes=1 rotates after every append: each record lands in
    # its own segment and the cursor must follow without a gap
    wal = WriteAheadLog(tmp_path, fsync="always", segment_bytes=1)
    records = _fill(wal, 3)
    tail = read_from(tmp_path)
    assert tail.records == records
    more = [_record(4), _record(5)]
    for r in more:
        wal.append(r)
    assert read_from(tmp_path, tail.position).records == more
    wal.close()


def test_read_from_cursor_into_compacted_away_segment_resets(tmp_path):
    # regression: a cursor pointing into a segment that compaction
    # deleted must surface as an explicit reset, never as silently-empty
    # progress (the follower would stall forever at a dead offset)
    wal = WriteAheadLog(tmp_path, fsync="always")
    _fill(wal, 4)
    position = read_from(tmp_path).position
    wal.compact({"epochs": {"PK": 4}, "logs": {"PK": []}})
    wal.append(_record(5))
    tail = read_from(tmp_path, position)
    assert tail.reset and tail.records == [] and tail.warnings
    # re-sync: snapshot plus a genesis read, then the cursor is live again
    assert read_snapshot(tmp_path)["epochs"] == {"PK": 4}
    fresh = read_from(tmp_path)
    assert fresh.records == [_record(5)]
    assert not read_from(tmp_path, fresh.position).reset
    wal.close()


def test_read_from_parks_before_in_progress_frame_then_resumes(tmp_path):
    wal = WriteAheadLog(tmp_path, fsync="always")
    records = _fill(wal, 2)
    position = read_from(tmp_path).position
    # a half-written frame at the tip of the live segment is an append in
    # progress: the tailer parks before it — never truncates —
    payload = json.dumps(_record(3), sort_keys=True).encode("utf-8")
    frame = _HEADER.pack(
        len(payload), zlib.crc32(payload) & 0xFFFFFFFF
    ) + payload
    with open(wal.segment_path, "ab") as fh:
        fh.write(frame[:7])
    parked = read_from(tmp_path, position)
    assert parked.records == [] and parked.position == position
    # — and picks the record up once the writer finishes the frame
    with open(wal.segment_path, "ab") as fh:
        fh.write(frame[7:])
    assert read_from(tmp_path, position).records == [_record(3)]
    assert recover_wal(tmp_path).records == records + [_record(3)]
    wal.close()


def test_read_from_skips_torn_record_in_rotated_segment(tmp_path):
    wal = WriteAheadLog(tmp_path, fsync="always")
    _fill(wal, 2)
    # half a frame reaches disk, then the writer rotates away and dies:
    # that torn tail is permanent, not in-progress — skip with a warning
    payload = json.dumps(_record(3), sort_keys=True).encode("utf-8")
    frame = _HEADER.pack(
        len(payload), zlib.crc32(payload) & 0xFFFFFFFF
    ) + payload
    with open(wal.segment_path, "ab") as fh:
        fh.write(frame[: len(frame) // 2])
    wal.rotate()
    wal.append(_record(4))
    tail = read_from(tmp_path)
    assert tail.records == [_record(1), _record(2), _record(4)]
    assert any("torn record" in w for w in tail.warnings)
    wal.close()


def test_compaction_racing_tailer_with_old_segment_held_open(tmp_path):
    # the follower may hold a rotated segment open while the primary
    # compacts it away (POSIX keeps the inode alive); the follower's
    # *next* tail must detect the compaction and reset rather than keep
    # ordering against deleted files
    wal = WriteAheadLog(tmp_path, fsync="always")
    _fill(wal, 3)
    mid = read_from(tmp_path).position
    with open(wal.segment_path) as held:
        wal.compact({"epochs": {"PK": 3}, "logs": {"PK": []}})
        wal.append(_record(4))
        raced = read_from(tmp_path, mid)
        assert raced.reset and raced.records == []
        assert held.readable()  # stale handle still open, never consulted
    resynced = read_from(tmp_path)
    assert resynced.records == [_record(4)]
    wal.close()


def test_read_from_never_opens_the_snapshot(tmp_path, monkeypatch):
    # the cursor's segment being gone is the compaction signal: tailing
    # must not parse snapshot.json, whose size grows with history
    wal = WriteAheadLog(tmp_path, fsync="always")
    _fill(wal, 3)
    position = read_from(tmp_path).position
    wal.compact({"epochs": {"PK": 3}, "logs": {"PK": []}})
    wal.append(_record(4))
    snapshot_text = (tmp_path / SNAPSHOT_NAME).read_text()
    parsed: list[str] = []
    real_loads = wal_module.json.loads

    def spy_loads(text, *args, **kwargs):
        parsed.append(text)
        return real_loads(text, *args, **kwargs)

    def no_snapshot(*_args):
        raise AssertionError("read_from opened the snapshot")

    monkeypatch.setattr(wal_module, "read_snapshot", no_snapshot)
    monkeypatch.setattr(wal_module.json, "loads", spy_loads)
    assert read_from(tmp_path, position).reset
    fresh = read_from(tmp_path)
    assert not fresh.reset and fresh.records == [_record(4)]
    assert not read_from(tmp_path, fresh.position).reset
    assert parsed and snapshot_text not in parsed
    wal.close()


def test_read_from_resets_when_a_listed_segment_vanishes(tmp_path, monkeypatch):
    # compaction may unlink a segment between the directory listing and
    # the read: that is a reset, not a FileNotFoundError
    wal = WriteAheadLog(tmp_path, fsync="always")
    _fill(wal, 2)
    wal.close()
    listed = wal_module._segments(tmp_path)
    gone = tmp_path / "wal-00000009.seg"
    monkeypatch.setattr(wal_module, "_segments", lambda _d: listed + [gone])
    tail = read_from(tmp_path)
    assert tail.reset and tail.records == [] and tail.warnings


def _frame(payload: bytes, length: int | None = None) -> bytes:
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return _HEADER.pack(len(payload) if length is None else length, crc) + payload


_PIECES = st.one_of(
    st.tuples(st.just("valid"), st.integers(1, 50)),
    st.tuples(st.just("stale"), st.integers(1, 50)),
    st.tuples(st.just("length"), st.sampled_from([0, 2**31])),
    st.tuples(st.just("json"), st.sampled_from([b"[1]", b"7", b"{\"fence\": \"x\"}", b"{"])),
)


def _piece(kind, arg) -> bytes:
    if kind in ("valid", "stale"):
        # the directory is fenced at its genesis by token 2: token-1
        # records anywhere are a zombie's
        record = dict(_record(arg), fence=2 if kind == "valid" else 1)
        return _frame(json.dumps(record, sort_keys=True).encode("utf-8"))
    if kind == "length":
        return _frame(b"{}", length=arg)
    return _frame(arg)


@settings(max_examples=150, deadline=None)
@given(
    segments=st.lists(
        st.tuples(
            st.lists(_PIECES, max_size=5),
            st.lists(st.integers(0, 10_000), max_size=3),  # flipped bytes
            st.integers(0, 12),  # bytes torn off the end
        ),
        min_size=1, max_size=3,
    ),
)
def test_fuzzed_segments_read_the_same_through_both_readers(segments):
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        for name in ("a", "b"):
            wal_dir = root / name
            wal_dir.mkdir()
            advance_fence(wal_dir, WalPosition())
            advance_fence(wal_dir, WalPosition())
            for index, (pieces, flips, torn) in enumerate(segments, 1):
                data = bytearray(b"".join(_piece(*p) for p in pieces))
                for flip in flips:
                    if data:
                        data[flip % len(data)] ^= 0xFF
                data = data[: max(0, len(data) - torn)]
                (wal_dir / f"wal-{index:08d}.seg").write_bytes(bytes(data))
        before = {p.name: p.read_bytes() for p in (root / "b").iterdir()}
        tail = read_from(root / "b")
        after = {p.name: p.read_bytes() for p in (root / "b").iterdir()}
        assert before == after  # tailing never writes
        assert recover_wal(root / "a").records == tail.records


def test_fence_advance_and_zombie_append_detection(tmp_path):
    old = WriteAheadLog(tmp_path, fsync="always")
    records = _fill(old, 2)
    tip = read_from(tmp_path).position
    token = advance_fence(tmp_path, tip)
    assert token == 1 and current_fence_token(tmp_path) == 1
    new = WriteAheadLog(tmp_path, fsync="always", fence_token=token)
    new.append(_record(3))
    # the fenced-off writer appends after the fence position: a zombie —
    # every reader must refuse the record, and recovery quarantines it
    old.append(_record(99))
    old.close()
    tail = read_from(tmp_path)
    assert tail.records == records + [_record(3)]
    assert tail.fenced == 1
    recovery = recover_wal(tmp_path)
    assert recovery.records == records + [_record(3)]
    assert recovery.fenced == 1 and recovery.quarantined == 1
    assert (tmp_path / QUARANTINE_NAME).exists()
    # records appended *before* the fence keep their validity: only the
    # post-fence zombie write is refused
    assert records[0] in recovery.records
    new.close()


# -- recovery into the service ---------------------------------------------


def test_service_recovers_epochs_and_results_from_wal(tmp_path):
    cfg = ServiceConfig(**TINY, wal_dir=str(tmp_path), wal_fsync="batch")
    with QueryService(cfg) as svc:
        for k in range(1, 4):
            svc.ingest("PK", seed=k)
        before = svc.submit(
            QueryRequest(graph="PK", algo="sssp", source=1)
        ).wait(timeout=120)
        assert before.ok and before.epoch == 3

    with QueryService(cfg) as revived:
        assert revived.epoch("PK") == 3
        assert revived.last_recovery is not None
        assert revived.last_recovery.clean
        after = revived.submit(
            QueryRequest(graph="PK", algo="sssp", source=1)
        ).wait(timeout=120)
    assert after.ok and after.epoch == 3
    assert [s.checksum for s in after.summaries] == [
        s.checksum for s in before.summaries
    ]


def test_service_compaction_preserves_recovery(tmp_path):
    cfg = ServiceConfig(**TINY, wal_dir=str(tmp_path), window_slide_every=2)
    with QueryService(cfg) as svc:
        for k in range(1, 6):
            svc.ingest("PK", seed=k)
        assert svc.wal.compactions >= 2
    with QueryService(cfg) as revived:
        assert revived.epoch("PK") == 5


def test_service_freezes_graph_at_gap_behind_quarantined_record(tmp_path):
    wal = WriteAheadLog(tmp_path, fsync="always")
    plan = faults.FaultPlan(["service.wal-corrupt-record"], seed=0, skip=1)
    with faults.inject(plan):
        _fill(wal, 3)  # second record commits corrupted
    wal.close()
    cfg = ServiceConfig(**TINY, wal_dir=str(tmp_path))
    with QueryService(cfg) as svc:
        # epoch 2 was quarantined, so epoch 3 must not be applied
        assert svc.epoch("PK") == 1
        assert svc.last_recovery.quarantined == 1


def test_crash_on_ingest_commits_without_acknowledging(tmp_path):
    cfg = ServiceConfig(
        **TINY, wal_dir=str(tmp_path),
        inject_fault=("service.crash-on-ingest",),
    )
    svc = QueryService(cfg).start()
    try:
        with pytest.raises(SimulatedCrash):
            svc.ingest("PK", seed=1)
        assert svc.epoch("PK") == 0  # never applied in memory
    finally:
        svc.stop(drain=False)
    with QueryService(ServiceConfig(**TINY, wal_dir=str(tmp_path))) as after:
        # committed-but-unacknowledged may legally be replayed
        assert after.epoch("PK") == 1


@pytest.mark.parametrize("point", WAL_POINTS)
def test_fault_campaign_wal_trials_recover(point):
    outcome = run_trial(None, None, point, seed=7)
    assert outcome.injected and outcome.detected and outcome.recovered


# -- overload protection ----------------------------------------------------


def test_split_expired_separates_blown_deadlines():
    fresh = PendingQuery(QueryRequest("PK", "sssp", 1), epoch=0)
    blown = PendingQuery(
        QueryRequest("PK", "sssp", 2, deadline_s=1e-9), epoch=0
    )
    live, expired = split_expired([fresh, blown])
    assert live == [fresh] and expired == [blown]


def test_validate_request_rejects_nonpositive_deadline():
    with pytest.raises(ValueError, match="deadline"):
        validate_request(
            QueryRequest("PK", "sssp", 1, deadline_s=0.0), 4, "tiny"
        )


def test_expired_query_is_shed_with_retry_after():
    with QueryService(ServiceConfig(**TINY)) as svc:
        svc.submit(QueryRequest("PK", "sssp", 1)).wait(timeout=120)  # warm
        # fake in-flight plans fill the pool, so the batcher leaves the
        # query queued until its 1 ms deadline has passed
        fake = [-1 - i for i in range(svc.pool.workers + 1)]
        with svc._inflight_lock:
            svc._inflight.update(fake)
        handle = svc.submit(QueryRequest("PK", "sssp", 2, deadline_s=0.001))
        time.sleep(0.02)
        assert not handle.done.is_set()
        for plan_id in fake:
            svc._retire(plan_id)
        response = handle.wait(timeout=30)
        assert response.status == "shed"
        assert response.retryable
        assert response.retry_after and response.retry_after > 0
        assert svc.service_stats()["shed"] == 1
        assert "shed" in svc.health()


def test_stop_reports_drain_timeout():
    with QueryService(ServiceConfig(**TINY)) as svc:
        svc.submit(QueryRequest("PK", "sssp", 1)).wait(timeout=120)
        # a fake in-flight plan that never completes
        with svc._inflight_lock:
            svc._inflight.add(-1)
        assert svc.stop(drain=True, timeout=0.2) is False
        assert svc.service_stats()["drain_timeouts"] == 1
        with svc._inflight_lock:
            svc._inflight.discard(-1)


# -- health op ---------------------------------------------------------------


def test_health_op_reports_epochs_queue_and_wal(tmp_path):
    cfg = ServiceConfig(**TINY, wal_dir=str(tmp_path))
    with QueryService(cfg) as svc:
        svc.ingest("PK", seed=1)
        front = ServiceFrontend(svc)
        health = front.handle_line(json.dumps({"op": "health"}))
        assert health["ok"] and health["status"] == "ok"
        assert health["epochs"] == {"PK": 1}
        assert health["queue_depth"] == 0
        assert health["retry_after_s"] > 0
        assert health["wal"]["enabled"] and health["wal"]["records"] == 1
        assert "recovery" in health["wal"]
        # a deadline arrives on the wire in milliseconds
        shed = front.handle_line(json.dumps(
            {"op": "query", "graph": "PK", "algo": "sssp", "source": 1,
             "deadline_ms": 0.001}
        ))
        assert shed["status"] == "shed" and "retry_after_s" in shed


# -- the kill-and-recover drill ---------------------------------------------


def test_crash_drill_zero_loss_and_parity(tmp_path):
    report = run_crash_drill(
        str(tmp_path / "wal"), crash_at_epoch=2, graph="PK",
        scale="tiny", n_snapshots=4, workers=1, algos=["bfs", "sssp"],
    )
    assert report.ok, report.format_table()
    assert report.drill == "crash"
    assert report.facts["lost_deltas"] == 0
    assert report.facts["recovered_epoch"] == report.facts["acked_epoch"] == 2
    assert report.checks["no_acked_loss"]
    parity = {k: v for k, v in report.checks.items() if k.startswith("parity:")}
    assert parity == {"parity:bfs": True, "parity:sssp": True}
    assert report.checks["no_orphan_segments"]
    assert "PASS" in report.format_table()


# -- DeltaBatch wire format and edge cases (satellite) ----------------------


def test_from_lists_empty_adds_and_dels():
    batch = DeltaBatch.from_lists([], [])
    assert batch.n_additions == 0 and batch.n_deletions == 0


def test_from_lists_defaults_weight_to_one():
    batch = DeltaBatch.from_lists([[1, 2], [3, 4, 2.5]], [])
    assert batch.add_wt.tolist() == [1.0, 2.5]


@pytest.mark.parametrize(
    "adds, dels, match",
    [
        ([[1]], [], "addition row 0"),
        ([[1, 2, 3.0, 4]], [], "addition row 0"),
        ([[1, 2], [3]], [], "addition row 1"),
        ([], [[1]], "deletion row 0"),
        ([], [[1, 2, 3]], "deletion row 0"),
        (7, [], "delta rows"),
        ([], 7, "delta rows"),
    ],
)
def test_from_lists_ragged_rows_raise_clean_valueerror(adds, dels, match):
    with pytest.raises(ValueError, match=match):
        DeltaBatch.from_lists(adds, dels)


def test_delta_wire_roundtrip():
    batch = DeltaBatch.from_lists(
        [[0, 1, 2.0], [2, 3]], [[4, 5]], seed=9
    )
    clone = DeltaBatch.from_wire(batch.to_wire())
    assert clone.to_wire() == batch.to_wire()
    assert clone.meta == {"seed": 9}


# -- CLI surface (satellite: --no-out) --------------------------------------


def _bench_argv(*extra: str) -> list[str]:
    return [
        "serve-bench", "--scale", "tiny", "--snapshots", "4",
        "--workers", "1", "--duration", "0.2", "--rate", "20",
        "--sources", "4", *extra,
    ]


def test_cli_no_out_skips_report_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(_bench_argv("--no-out")) == 0
    assert not list(tmp_path.glob("*.json"))
    assert "deprecated" not in capsys.readouterr().err


def test_cli_empty_out_still_works_but_warns(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(_bench_argv("--out", "")) == 0
    assert not list(tmp_path.glob("*.json"))
    assert "deprecated" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra",
    [
        ("--drill", "crash", "--kill-at-epoch", "-1"),
        ("--drill", "crash", "--kill-at-epoch", "0"),
        ("--drill", "bogus"),
    ],
)
def test_cli_rejects_bad_drill_arguments(extra, capsys):
    assert main(_bench_argv(*extra)) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err


def test_cli_crash_drill_writes_report(tmp_path, capsys):
    out = tmp_path / "BENCH_crash.json"
    rc = main(_bench_argv(
        "--drill", "crash", "--kill-at-epoch", "1", "--algos", "bfs",
        "--wal-dir", str(tmp_path / "wal"), "--out", str(out),
    ))
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["drill"] == "crash" and doc["kill_at_epoch"] == 1
    assert doc["results"]["ok"] and doc["results"]["lost_deltas"] == 0
    assert doc["results"]["parity"] == {"bfs": True}


def test_cli_wal_flags_reach_service_config(capsys):
    from repro.cli import build_parser, _service_config

    args = build_parser().parse_args(_bench_argv(
        "--wal-dir", "w", "--wal-fsync", "batch", "--slide-every", "5"
    ))
    cfg = _service_config(args)
    assert cfg.wal_dir == "w"
    assert cfg.wal_fsync == "batch"
    assert cfg.window_slide_every == 5
    # --slide-every is the one compaction cadence
    assert main(_bench_argv("--wal-compact-every", "5")) == 2
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert "error: unrecognized arguments: --wal-compact-every 5" in err


def test_checkpoint_ingest_makes_three_fsyncs_and_no_slide_record(
    tmp_path, monkeypatch
):
    """Under ``fsync="always"`` a checkpoint ingest fsyncs its ingest
    record, the snapshot and the directory; the WAL only ever carries
    ingest records."""
    real_fsync, real_append = os.fsync, WriteAheadLog.append
    mine = threading.get_ident()
    fsyncs: list[int] = []
    ops: list[str] = []

    def fsync(fd):
        if threading.get_ident() == mine:
            fsyncs.append(fd)
        real_fsync(fd)

    def append(self, record):
        ops.append(record["op"])
        return real_append(self, record)

    config = ServiceConfig(**TINY, wal_dir=str(tmp_path), wal_fsync="always",
                           window_slide_every=2)
    with QueryService(config) as service:
        service.ingest("PK", seed=1)
        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(WriteAheadLog, "append", append)
        service.ingest("PK", seed=2)  # the checkpoint at epoch 2
        assert len(fsyncs) == 3 and service.wal.compactions == 1
        service.ingest("PK", seed=3)
        assert len(fsyncs) == 4
    assert ops == ["ingest", "ingest"]


def test_cli_failover_drill_runs_across_a_checkpoint(tmp_path, capsys):
    """With a checkpoint every 2 ingests the promoted primary compacts
    the zombie's segment away at epoch 6; the drill counts the fenced
    record before that and passes."""
    out = tmp_path / "BENCH_failover_slide.json"
    rc = main(_bench_argv(
        "--drill", "failover", "--slide-every", "2", "--kill-at-epoch", "5",
        "--algos", "bfs", "--wal-dir", str(tmp_path / "wal"),
        "--out", str(out),
    ))
    assert rc == 0, capsys.readouterr().out
    results = json.loads(out.read_text())["results"]
    assert results["ok"] and results["zombie_fenced"]
    assert results["final_epoch"] == 7


def test_cli_crash_drill_kills_after_a_slide_compaction(tmp_path, capsys):
    """``--slide-every`` reaches the drill's serve children: with a
    slide every 2 ingests, the kill at epoch 5 lands one record past
    the compaction at epoch 4, and recovery starts from its snapshot."""
    out = tmp_path / "BENCH_crash_slide.json"
    rc = main(_bench_argv(
        "--drill", "crash", "--slide-every", "2", "--kill-at-epoch", "5",
        "--algos", "bfs", "--wal-dir", str(tmp_path / "wal"),
        "--out", str(out),
    ))
    assert rc == 0, capsys.readouterr().out
    results = json.loads(out.read_text())["results"]
    assert results["ok"] and results["lost_deltas"] == 0
    recovery = results["wal_recovery"]
    assert recovery["snapshot"] and recovery["records"] == 1
