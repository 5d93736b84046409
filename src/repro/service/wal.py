"""Write-ahead log for the ingest path: durability before acknowledgement.

PR 2 defined the live state of an evolving graph *reproducibly* — the
deterministic base scenario plus the ordered ingest log — but kept that
log only in coordinator memory, so a crash after an acknowledged
``ingest`` silently lost churn and reset epochs.  This module makes the
log the durable source of truth (the streaming-systems convention): every
delta batch is appended here **before** the service acknowledges it, and
recovery replays the segments to rebuild per-graph delta logs exactly.

On-disk format, designed so recovery never has to trust a torn or
bit-rotted file:

* a *segment* (``wal-00000001.seg``) is a sequence of records, each
  ``[4-byte big-endian payload length][4-byte CRC32 of payload][payload]``
  with the payload being one JSON object;
* segments rotate at ``segment_bytes`` so no single file grows unbounded;
* ``snapshot.json`` captures the full per-graph delta logs at a
  compaction point; compaction deletes every segment, so replay cost
  stays bounded by the churn since the last snapshot.  Unless the
  policy is ``fsync="never"``, the snapshot is fsync'd before its
  rename and the directory after it, both before the first segment is
  unlinked: an acknowledged epoch is on disk in a segment or in the
  snapshot at every instant of a compaction.

Recovery policy (:func:`recover_wal`): a torn tail — a record whose
promised bytes are missing — is *expected* (the writer died mid-write,
necessarily before acknowledging) and is truncated with a warning; a
record whose CRC32 does not match (bit rot, partial overwrite) is
**quarantined** to ``quarantine.log`` and skipped with a warning.  Neither
ever raises: losing an unacknowledged suffix is correct, and losing an
acknowledged record to corruption must degrade the one graph it belongs
to, not crash the service (:meth:`repro.service.core.QueryService.start`
skips the now-unappliable epochs with a warning).

Two registered fault points make both paths provable from the campaign
(``mega-repro faults``): ``service.wal-torn-write`` cuts a record short
mid-append, ``service.wal-corrupt-record`` flips a payload byte after the
CRC is computed.

Replication (PR 6, :mod:`repro.service.replica`): the WAL doubles as the
shipping stream between a primary and its read replicas.

* :class:`WalPosition` is a durable ``(segment, offset)`` cursor;
  :meth:`WriteAheadLog.position` reports the writer's tip and
  :func:`read_from` reads everything committed after a cursor *without
  mutating the directory* — an in-progress tail record is "not yet",
  never "torn", because the writer may still be alive.  Segment indices
  are globally monotonic (compaction stamps ``next_segment`` into the
  snapshot), so ``(segment, offset)`` totally orders all records ever
  written to one directory.
* A cursor that points into a compacted-away segment cannot be resumed
  record-by-record; :func:`read_from` signals ``reset`` and the caller
  re-syncs from the snapshot (:func:`read_snapshot`) plus the surviving
  segments.
* One decoder (:func:`_frames`) parses every frame either reader sees;
  :func:`recover_wal` and :func:`read_from` differ only in what they do
  about a damaged one.
* **Fencing**: ``fence.json`` holds a monotonic token history.  A writer
  stamps its token into every record; :func:`advance_fence` (called by
  replica promotion) records the new token *and the position it took
  over at*.  On any later read, a record written at or past a fence
  position by a staler token is a zombie primary's late append: it is
  quarantined, never applied — the read-side half of the fencing
  contract that makes promotion safe without consensus.
"""

from __future__ import annotations

import json
import logging
import os
import pathlib
import re
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.resilience.checkpoint import atomic_write
from repro.resilience.faults import Fire, maybe_fire, register_fault_point

__all__ = [
    "FSYNC_POLICIES",
    "OP_INGEST",
    "FenceEvent",
    "JsonText",
    "WalPosition",
    "WalRecovery",
    "WalTail",
    "WalWriteError",
    "WriteAheadLog",
    "advance_fence",
    "current_fence_token",
    "drop_follower_cursor",
    "read_fences",
    "read_follower_cursors",
    "read_from",
    "read_snapshot",
    "recover_wal",
    "safe_follower_id",
    "try_claim_fence",
    "write_follower_cursor",
]

log = logging.getLogger(__name__)

register_fault_point(
    "service.wal-torn-write",
    "service/wal.py",
    "a WAL append is cut short mid-record (writer died before the ack)",
)
register_fault_point(
    "service.wal-corrupt-record",
    "service/wal.py",
    "a committed WAL record's payload is corrupted on disk (CRC mismatch)",
)

_HEADER = struct.Struct(">II")  # payload length, CRC32(payload)
#: a length prefix beyond this is treated as frame corruption, not a record
MAX_RECORD_BYTES = 64 * 1024 * 1024
#: fsync after every append / every ``sync_every`` appends / never
FSYNC_POLICIES = ("always", "batch", "never")

SNAPSHOT_NAME = "snapshot.json"
QUARANTINE_NAME = "quarantine.log"
FENCE_NAME = "fence.json"
_SEGMENT_GLOB = "wal-*.seg"
#: key under which compaction stamps writer metadata into the snapshot
SNAPSHOT_WAL_KEY = "wal"

# The one record op the query service writes: ``ingest`` carries one
# delta batch (``{"op", "graph", "epoch", "delta"}``).  Checkpoint
# counters travel in the compaction snapshot's ``slides`` map.
OP_INGEST = "ingest"


class WalWriteError(RuntimeError):
    """An append failed before the record was durably committed."""


class WalFencedError(WalWriteError):
    """The writer's fencing token has been superseded (it is a zombie)."""


@dataclass(frozen=True)
class WalPosition:
    """Durable replication cursor: everything up to here has been read.

    ``segment``/``offset`` name the byte after the last consumed record.
    ``segment == 0`` is the genesis cursor: read from the oldest data.
    """

    segment: int = 0
    offset: int = 0

    def key(self) -> tuple[int, int]:
        """Total order over all records of one WAL directory."""
        return (self.segment, self.offset)

    def as_dict(self) -> dict:
        return {"segment": self.segment, "offset": self.offset}

    @classmethod
    def from_dict(cls, d: dict) -> "WalPosition":
        return cls(
            segment=int(d.get("segment", 0)), offset=int(d.get("offset", 0))
        )


@dataclass(frozen=True)
class FenceEvent:
    """One promotion: ``token`` took over at ``(segment, offset)``."""

    token: int
    segment: int
    offset: int


def _fence_path(wal_dir: pathlib.Path) -> pathlib.Path:
    return pathlib.Path(wal_dir) / FENCE_NAME


def read_fences(wal_dir: str | pathlib.Path) -> list[FenceEvent]:
    """The fence history of a WAL directory, oldest first ([] if none)."""
    path = _fence_path(pathlib.Path(wal_dir))
    if not path.exists():
        return []
    try:
        doc = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError):
        log.warning("wal fence: %s unreadable; treating as no fences", path)
        return []
    return sorted(
        (
            FenceEvent(int(f["token"]), int(f["segment"]), int(f["offset"]))
            for f in doc.get("fences", [])
        ),
        key=lambda f: f.token,
    )


def current_fence_token(wal_dir: str | pathlib.Path) -> int:
    """The latest fencing token (0 = the directory was never fenced)."""
    fences = read_fences(wal_dir)
    return fences[-1].token if fences else 0


def _atomic_write_sync(path: pathlib.Path, text: str) -> None:
    """``atomic_write`` made durable: fsync the tmp file, rename it over
    ``path``, then fsync the directory so the rename survives too.

    Fence history, follower acked-position reports and the compaction
    snapshot are durability statements — a quorum ack, an election
    claim or a dropped segment must survive a power cut.  The
    tmp name carries the pid AND thread id: racing electors (a CAS
    winner publishing while a loser rolls an orphan forward — they write
    identical content) may share a process, and must never interleave
    bytes in, or rename away, each other's tmp file.
    """
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class JsonText(str):
    """Text that already is JSON: :meth:`WriteAheadLog.compact` splices
    it into the snapshot as it stands instead of encoding it again."""


def _snapshot_text(value) -> str:
    """``json.dumps(value, sort_keys=True)`` with each :class:`JsonText`
    spliced in verbatim.

    The encoder lays a str-keyed dict out as ``{"k": v, ...}`` in key
    order, whatever ``v`` is, so encoding the values apart and joining
    them gives the same bytes as encoding the whole dict at once.
    """
    if isinstance(value, JsonText):
        return value
    if isinstance(value, dict) and all(isinstance(k, str) for k in value):
        return "{" + ", ".join(
            f"{json.dumps(k)}: {_snapshot_text(value[k])}" for k in sorted(value)
        ) + "}"
    return json.dumps(value, sort_keys=True)


def _write_fences(wal_dir: pathlib.Path, fences: list[FenceEvent]) -> None:
    _atomic_write_sync(
        _fence_path(wal_dir),
        json.dumps(
            {
                "fences": [
                    {"token": f.token, "segment": f.segment,
                     "offset": f.offset}
                    for f in fences
                ]
            },
            sort_keys=True,
        ),
    )


def advance_fence(
    wal_dir: str | pathlib.Path, position: WalPosition
) -> int:
    """Record the next fencing token as of ``position``; returns it.

    Called on first primary start (token 1 at the empty tip) and on every
    promotion.  Any record a staler writer appends at or beyond
    ``position`` is quarantined by every subsequent read.

    This is an unconditional read-modify-write for the single-promoter
    paths (manual promotion, first start).  Racing electors must use
    :func:`try_claim_fence`, which turns the advance into a CAS.
    """
    wal_dir = pathlib.Path(wal_dir)
    wal_dir.mkdir(parents=True, exist_ok=True)
    fences = read_fences(wal_dir)
    token = (fences[-1].token + 1) if fences else 1
    fences.append(FenceEvent(token, position.segment, position.offset))
    _write_fences(wal_dir, fences)
    return token


def _claim_path(wal_dir: pathlib.Path, token: int) -> pathlib.Path:
    return wal_dir / f"fence.claim-{token:08d}"


def try_claim_fence(
    wal_dir: str | pathlib.Path,
    position: WalPosition,
    expected_token: int,
) -> int | None:
    """Compare-and-swap the fence: advance it iff it is still at
    ``expected_token``.  Returns the claimed token, or None if the CAS
    lost (someone else already advanced past ``expected_token``).

    The swap is arbitrated by an exclusive-create marker file
    (``fence.claim-<token>``): among any number of racing electors that
    read the same ``expected_token``, exactly one ``O_CREAT | O_EXCL``
    succeeds — the filesystem picks the winner, no consensus protocol
    needed.  The winner then appends the :class:`FenceEvent` to
    ``fence.json`` exactly like :func:`advance_fence`.

    A winner that dies between claiming the marker and publishing
    ``fence.json`` would wedge the token forever, so a loser that finds
    an orphaned marker (claim exists but the fence history never caught
    up) rolls the fence forward on the dead winner's behalf — it still
    returns None (it did not win; the rolled-forward token has no live
    owner and the next CAS round claims the one after it).
    """
    wal_dir = pathlib.Path(wal_dir)
    wal_dir.mkdir(parents=True, exist_ok=True)
    fences = read_fences(wal_dir)
    current = fences[-1].token if fences else 0
    if current != expected_token:
        return None
    token = expected_token + 1
    claim = _claim_path(wal_dir, token)
    event = FenceEvent(token, position.segment, position.offset)
    try:
        fd = os.open(claim, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        try:
            doc = json.loads(claim.read_text())
            orphan = FenceEvent(
                int(doc["token"]), int(doc["segment"]), int(doc["offset"])
            )
        except (OSError, ValueError, KeyError):
            orphan = None
        if orphan is not None and current_fence_token(wal_dir) < orphan.token:
            log.warning(
                "wal fence: rolling forward orphaned claim for token %d",
                orphan.token,
            )
            _write_fences(wal_dir, fences + [orphan])
        return None
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(
            {"token": token, "segment": position.segment,
             "offset": position.offset},
            sort_keys=True,
        ))
        fh.flush()
        os.fsync(fh.fileno())
    fences.append(event)
    _write_fences(wal_dir, fences)
    return token


def _record_allowed(
    fences: list[FenceEvent], token: int, segment: int, offset: int
) -> bool:
    """Is a record with ``token`` at ``(segment, offset)`` legitimate?

    A record is a zombie append iff some newer token fenced the log at or
    before the record's position: the writer kept appending after it had
    been superseded.
    """
    for fence in fences:
        if fence.token > token and (segment, offset) >= (
            fence.segment, fence.offset,
        ):
            return False
    return True


def read_snapshot(wal_dir: str | pathlib.Path) -> dict | None:
    """The compaction snapshot, or None (unreadable snapshots are None
    too — segments alone still recover post-snapshot churn)."""
    path = pathlib.Path(wal_dir) / SNAPSHOT_NAME
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None


def _snapshot_wal_stamp(wal_dir: pathlib.Path) -> dict:
    snapshot = read_snapshot(wal_dir)
    if not isinstance(snapshot, dict):
        return {}
    stamp = snapshot.get(SNAPSHOT_WAL_KEY)
    return stamp if isinstance(stamp, dict) else {}


FOLLOWERS_DIR = "followers"

#: follower/node ids become file names under the WAL root — one flat
#: alphabet, no separators, no leading dot, so ``--follower-id ../x``
#: cannot escape ``<wal>/followers/``
_FOLLOWER_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def safe_follower_id(follower_id: str) -> str:
    """Validate a follower/node id destined for a path component.

    Returns the id unchanged, or raises ``ValueError`` for anything that
    could traverse out of the cursor directory (path separators, ``..``
    components, leading dots, empty or oversized ids).
    """
    fid = str(follower_id)
    if not _FOLLOWER_ID_RE.match(fid) or ".." in fid:
        raise ValueError(
            f"invalid follower id {fid!r}: ids must be 1-64 chars of "
            "[A-Za-z0-9._-], start alphanumeric, and contain no '..'"
        )
    return fid


def write_follower_cursor(
    wal_dir: str | pathlib.Path,
    follower_id: str,
    position: WalPosition,
    epochs: dict[str, int],
) -> None:
    """Persist a follower's replication cursor next to the primary's WAL.

    One atomic JSON file per follower under ``followers/``; the primary
    scans them to report per-follower replication lag in ``health`` and
    the metrics render, and a restarted follower resumes from its own
    cursor instead of a full re-sync.

    The cursor doubles as the follower's **acked-position report**: the
    quorum-ack path (:meth:`repro.service.core.QueryService.ingest`)
    counts an epoch as follower-durable exactly when it appears in the
    cursor's ``epochs`` map, so the write is fsynced before publication.
    """
    follower_id = safe_follower_id(follower_id)
    cursor_dir = pathlib.Path(wal_dir) / FOLLOWERS_DIR
    cursor_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write_sync(
        cursor_dir / f"{follower_id}.json",
        json.dumps(
            {
                "id": follower_id,
                "position": position.as_dict(),
                "epochs": {g: int(e) for g, e in sorted(epochs.items())},
                "updated_unix": time.time(),
            },
            sort_keys=True,
        ),
    )


def read_follower_cursors(
    wal_dir: str | pathlib.Path,
) -> dict[str, dict]:
    """Every follower cursor in a WAL directory (id -> cursor doc)."""
    cursor_dir = pathlib.Path(wal_dir) / FOLLOWERS_DIR
    if not cursor_dir.is_dir():
        return {}
    out: dict[str, dict] = {}
    for path in sorted(cursor_dir.glob("*.json")):
        try:
            doc = json.loads(path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError):
            log.warning("follower cursor %s unreadable; skipped", path)
            continue
        doc["position"] = WalPosition.from_dict(doc.get("position", {}))
        doc["age_s"] = max(0.0, time.time() - float(
            doc.get("updated_unix", 0.0)
        ))
        out[str(doc.get("id", path.stem))] = doc
    return out


def drop_follower_cursor(
    wal_dir: str | pathlib.Path, follower_id: str
) -> None:
    """Remove a follower's cursor (promotion: it is not a follower now)."""
    follower_id = safe_follower_id(follower_id)
    path = pathlib.Path(wal_dir) / FOLLOWERS_DIR / f"{follower_id}.json"
    try:
        path.unlink()
    except FileNotFoundError:
        pass


def _segment_name(index: int) -> str:
    return f"wal-{index:08d}.seg"


def _segment_index(path: pathlib.Path) -> int:
    return int(path.stem.split("-", 1)[1])


def _segments(wal_dir: pathlib.Path) -> list[pathlib.Path]:
    return sorted(wal_dir.glob(_SEGMENT_GLOB), key=_segment_index)


class WriteAheadLog:
    """Append-only, CRC-framed, segment-rotated log of ingest records.

    Opening always starts a *fresh* segment: recovery has already
    truncated any torn tail, and never appending after a previously
    written region means a crash can only tear the very last record.
    """

    def __init__(
        self,
        wal_dir: str | pathlib.Path,
        fsync: str = "always",
        segment_bytes: int = 4 * 1024 * 1024,
        sync_every: int = 32,
        fault_hook: Callable[[str], Fire | None] | None = None,
        fence_token: int | None = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {fsync!r}; choose from {FSYNC_POLICIES}"
            )
        self.wal_dir = pathlib.Path(wal_dir)
        self.wal_dir.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.segment_bytes = int(segment_bytes)
        self.sync_every = max(1, int(sync_every))
        self._maybe_fire = fault_hook if fault_hook is not None else maybe_fire
        #: stamped into every record so a zombie writer's late appends are
        #: detectable; None adopts the directory's current token
        self.fence_token = (
            current_fence_token(self.wal_dir)
            if fence_token is None else int(fence_token)
        )
        stamp = _snapshot_wal_stamp(self.wal_dir)
        existing = _segments(self.wal_dir)
        # segment indices are globally monotonic even across compaction
        # (which deletes all segments): the compaction snapshot stamps the
        # next index, so (segment, offset) totally orders all records ever
        # written here — the property WalPosition cursors rely on.
        self._segment_index = max(
            _segment_index(existing[-1]) + 1 if existing else 1,
            int(stamp.get("next_segment", 1)),
        )
        self._fh = None
        self._segment_size = 0
        self.records = 0  # appended this process
        self.synced = 0  # appended and known fsync-durable
        self.compactions = int(stamp.get("compactions", 0))
        snapshot = self.wal_dir / SNAPSHOT_NAME
        #: size of the snapshot on disk; it grows with the logs it holds
        self.snapshot_bytes = (
            snapshot.stat().st_size if snapshot.exists() else 0
        )

    # -- write path --------------------------------------------------------

    @property
    def segment_path(self) -> pathlib.Path:
        return self.wal_dir / _segment_name(self._segment_index)

    def _open_segment(self):
        if self._fh is None:
            self._fh = open(self.segment_path, "ab")
            self._segment_size = self._fh.tell()
        return self._fh

    def append(self, record: dict) -> int:
        """Durably append one JSON record; returns its ordinal this session.

        Raises :class:`WalWriteError` if the record could not be committed
        — the caller must NOT acknowledge the operation then.
        """
        if self.fence_token:
            record = {**record, "fence": self.fence_token}
        payload = json.dumps(record, sort_keys=True).encode("utf-8")
        crc = zlib.crc32(payload) & 0xFFFFFFFF

        fire = self._maybe_fire("service.wal-corrupt-record")
        if fire is not None:
            # flip one payload byte *after* the CRC was computed: the
            # record commits (and is acknowledged) but reads back bad
            pos = int(fire.rng.integers(len(payload)))
            corrupted = bytearray(payload)
            corrupted[pos] ^= 0xFF
            fire.note(byte=pos, segment=self.segment_path.name)
            payload = bytes(corrupted)

        fh = self._open_segment()
        frame = _HEADER.pack(len(payload), crc) + payload

        fire = self._maybe_fire("service.wal-torn-write")
        if fire is not None:
            # the writer "dies" mid-record: half the frame reaches disk
            # and the append fails before any acknowledgement.  Rotate so
            # this process's later appends land in a clean segment (a real
            # torn write implies the process is gone).
            torn = frame[: max(1, len(frame) // 2)]
            fh.write(torn)
            fh.flush()
            os.fsync(fh.fileno())
            fire.note(
                segment=self.segment_path.name,
                written=len(torn),
                expected=len(frame),
            )
            self.rotate()
            raise WalWriteError(
                f"injected torn write in {self.wal_dir} "
                f"({len(torn)}/{len(frame)} bytes)"
            )

        fh.write(frame)
        fh.flush()
        self.records += 1
        self._segment_size += len(frame)
        if self.fsync == "always" or (
            self.fsync == "batch" and self.records % self.sync_every == 0
        ):
            os.fsync(fh.fileno())
            self.synced = self.records
        if self._segment_size >= self.segment_bytes:
            self.rotate()
        return self.records

    def position(self) -> WalPosition:
        """The writer's durable tip: everything before it is committed.

        A reader that has consumed up to this position has seen every
        record this writer acknowledged; the cursor stays valid across
        rotation (indices only grow).
        """
        return WalPosition(self._segment_index, self._segment_size)

    def sync(self) -> None:
        """Force everything appended so far onto stable storage."""
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
        self.synced = self.records

    def rotate(self) -> None:
        """Close the current segment and start the next one."""
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None
            self.synced = self.records
        self._segment_index += 1
        self._segment_size = 0

    # -- compaction --------------------------------------------------------

    def compact(self, snapshot: dict) -> pathlib.Path:
        """Atomically persist ``snapshot`` and drop every segment.

        The caller must guarantee no append races this call (the service
        holds its ingest lock): the snapshot then covers every committed
        record, so deleting the segments loses nothing and replay cost
        resets to zero.  ``snapshot`` is written as
        ``json.dumps(snapshot, sort_keys=True)`` would write it, with any
        :class:`JsonText` value spliced in as it stands.

        Unless the policy is ``"never"``, the snapshot goes through
        :func:`_atomic_write_sync`, so it is durable before the first
        segment goes.
        """
        path = self.wal_dir / SNAPSHOT_NAME
        stamped = dict(snapshot)
        stamped[SNAPSHOT_WAL_KEY] = {
            "compactions": self.compactions + 1,
            "next_segment": self._segment_index + 1,
        }
        text = _snapshot_text(stamped)
        if self.fsync != "never":
            _atomic_write_sync(path, text)
        else:
            atomic_write(path, text)
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        for segment in _segments(self.wal_dir):
            segment.unlink()
        # json.dumps escapes every non-ASCII character: one byte a char
        self.snapshot_bytes = len(text)
        self._segment_index += 1
        self._segment_size = 0
        self.synced = self.records
        self.compactions += 1
        return path

    def close(self) -> None:
        if self._fh is not None:
            self.sync()
            self._fh.close()
            self._fh = None

    def stats(self) -> dict:
        return {
            "enabled": True,
            "dir": str(self.wal_dir),
            "segments": len(_segments(self.wal_dir)),
            "records": self.records,
            "synced": self.synced,
            "lag_records": self.records - self.synced,
            "compactions": self.compactions,
            "snapshot_bytes": self.snapshot_bytes,
            "fsync": self.fsync,
            "fence_token": self.fence_token,
        }


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------


@dataclass
class WalRecovery:
    """Everything :func:`recover_wal` found, plus what it had to repair."""

    snapshot: dict | None = None
    records: list[dict] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    truncated_tail: bool = False
    quarantined: int = 0
    #: zombie-primary appends caught by the fencing contract (a subset of
    #: ``quarantined``: they also land in quarantine.log)
    fenced: int = 0
    #: the tip after repair: the end of the last segment (genesis if none)
    position: WalPosition = field(default_factory=WalPosition)

    @property
    def clean(self) -> bool:
        return not self.warnings

    def summary(self) -> dict:
        return {
            "records": len(self.records),
            "snapshot": self.snapshot is not None,
            "warnings": len(self.warnings),
            "truncated_tail": self.truncated_tail,
            "quarantined": self.quarantined,
            "fenced": self.fenced,
        }


def _quarantine(wal_dir: pathlib.Path, segment: str, frame: _Frame) -> None:
    entry = {"segment": segment, "offset": frame.offset, "reason": frame.note,
             "payload_hex": frame.payload.hex()}
    with open(wal_dir / QUARANTINE_NAME, "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


#: what a reader calls each damaged frame in its warnings
_DAMAGE = {
    "torn": "torn record",
    "implausible": "torn record",
    "crc": "CRC mismatch",
    "json": "undecodable record",
    "fenced": "zombie append",
}


@dataclass(frozen=True)
class _Frame:
    """One frame :func:`_frames` decoded, or the damage it found there.

    ``problem`` is None for a record to apply; ``"torn"`` (the frame's
    promised bytes are missing) and ``"implausible"`` (a length prefix no
    writer produces) end the segment, so ``end`` is the segment's length;
    ``"crc"``, ``"json"`` and ``"fenced"`` span one whole frame, and
    ``note`` is their quarantine reason.
    """

    offset: int
    end: int
    problem: str | None = None
    record: dict | None = None
    payload: bytes = b""
    note: str = ""

    def warning(self, segment: pathlib.Path, action: str) -> str:
        return (
            f"{segment.name}: {_DAMAGE[self.problem]} at byte {self.offset} "
            f"({self.note}); {action}"
        )


def _frames(
    data: bytes, segment: int, offset: int, fences: list[FenceEvent]
) -> Iterator[_Frame]:
    """Decode the frames of one segment's bytes from ``offset`` on.

    The one place the WAL's framing, CRC, JSON and fence token are
    parsed; never raises.  Each reader applies its own policy to a
    damaged frame: :func:`recover_wal` repairs the directory,
    :func:`read_from` only skips.
    """
    while offset < len(data):
        header_end = offset + _HEADER.size
        if header_end > len(data):
            yield _Frame(offset, len(data), "torn",
                         note=f"short header ({len(data) - offset} bytes)")
            return
        length, crc = _HEADER.unpack_from(data, offset)
        if length == 0 or length > MAX_RECORD_BYTES:
            yield _Frame(offset, len(data), "implausible",
                         note=f"implausible record length {length}")
            return
        end = header_end + length
        if end > len(data):
            yield _Frame(offset, len(data), "torn", note=(
                f"record promises {length} bytes, "
                f"{len(data) - header_end} present"
            ))
            return
        payload = data[header_end:end]
        if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
            yield _Frame(offset, end, "crc", payload=payload,
                         note="crc-mismatch")
        else:
            try:
                record = json.loads(payload.decode("utf-8"))
                token = int(record.pop("fence", 0) or 0)
            except (ValueError, TypeError, AttributeError,
                    OverflowError) as exc:
                # not UTF-8 JSON, not an object, or a fence that is no
                # integer
                yield _Frame(offset, end, "json", payload=payload,
                             note=f"bad-json: {exc}")
            else:
                if _record_allowed(fences, token, segment, offset):
                    yield _Frame(offset, end, record=record)
                else:
                    yield _Frame(offset, end, "fenced", payload=payload, note=(
                        f"fenced: token {token} superseded before this "
                        f"position"
                    ))
        offset = end


def recover_wal(wal_dir: str | pathlib.Path) -> WalRecovery:
    """Read back a WAL directory: snapshot (if any) plus surviving records.

    Never raises on damaged data — a torn tail is truncated, CRC-failing
    records are quarantined, and every repair is a warning on the returned
    :class:`WalRecovery` (the service logs them).
    """
    wal_dir = pathlib.Path(wal_dir)
    out = WalRecovery(snapshot=read_snapshot(wal_dir))
    if out.snapshot is None and (wal_dir / SNAPSHOT_NAME).exists():
        # snapshots are written atomically, so this is external damage;
        # replaying segments alone still recovers post-snapshot churn
        out.warnings.append(f"{SNAPSHOT_NAME} unreadable; ignored")
    if isinstance(out.snapshot, dict):
        # the writer stamp (compaction count, next segment index) is WAL
        # metadata, not service payload — keep the round trip exact
        out.snapshot.pop(SNAPSHOT_WAL_KEY, None)
    fences = read_fences(wal_dir)
    segments = _segments(wal_dir)
    for segment in segments:
        seg_index = _segment_index(segment)
        data = segment.read_bytes()
        size = len(data)
        for frame in _frames(data, seg_index, 0, fences):
            if frame.problem is None:
                out.records.append(frame.record)
            elif frame.problem in ("torn", "implausible"):
                out.truncated_tail = True
                if segment is segments[-1]:
                    os.truncate(segment, frame.offset)
                    size = frame.offset
                    action = "torn tail truncated"
                else:
                    action = "rest of the rotated segment skipped"
                out.warnings.append(frame.warning(segment, action))
            else:
                out.quarantined += 1
                out.fenced += frame.problem == "fenced"
                _quarantine(wal_dir, segment.name, frame)
                out.warnings.append(
                    frame.warning(segment, "record quarantined")
                )
        out.position = WalPosition(seg_index, size)
    for warning in out.warnings:
        log.warning("wal recovery: %s", warning)
    return out


# ---------------------------------------------------------------------------
# incremental tailing (replication read path)
# ---------------------------------------------------------------------------


@dataclass
class WalTail:
    """One :func:`read_from` step: new records plus the advanced cursor.

    ``reset`` means the cursor pointed at data that no longer exists
    (compaction folded it into the snapshot): the records list is empty
    and the caller must re-sync from :func:`read_snapshot` plus a genesis
    read before trusting any further tails.
    """

    records: list[dict] = field(default_factory=list)
    position: WalPosition = field(default_factory=WalPosition)
    reset: bool = False
    warnings: list[str] = field(default_factory=list)
    #: zombie-primary appends skipped by the fencing check (never applied,
    #: but NOT quarantined on disk — tailing must not mutate the primary's
    #: directory; the owner quarantines them on its own recovery)
    fenced: int = 0


def read_from(
    wal_dir: str | pathlib.Path, position: WalPosition | None = None
) -> WalTail:
    """Read every record committed after ``position``, without mutating.

    Unlike :func:`recover_wal` this never truncates or quarantines: an
    incomplete frame at the tip of the *highest* segment is an in-progress
    append by a possibly-live writer — the cursor parks just before it and
    the next call retries.  An incomplete frame in a rotated segment is a
    genuine torn write (the writer rotated away and died); its remainder
    is skipped with a warning.  CRC-failing and fence-violating records
    are skipped with warnings but left on disk for the owner to repair.

    ``position=None`` (or ``segment == 0``) is the genesis read: everything
    in the surviving segments, oldest first.  Callers doing an initial
    sync also read :func:`read_snapshot` — post-compaction segments only
    hold churn since that snapshot.

    Only compaction deletes segments, it deletes all of them, and segment
    indices only grow: so a cursor whose segment is gone — before or
    while this call reads it — was compacted away, and the tail comes
    back as ``reset``.  The snapshot is never opened here.
    """
    wal_dir = pathlib.Path(wal_dir)
    position = position or WalPosition()
    fences = read_fences(wal_dir)
    segments = [
        s for s in _segments(wal_dir)
        if _segment_index(s) >= position.segment
    ]
    tail = WalTail(position=position)
    try:
        if position.segment and (
            not segments or _segment_index(segments[0]) != position.segment
        ):
            raise FileNotFoundError
        for segment in segments:
            seg_index = _segment_index(segment)
            data = segment.read_bytes()
            start = position.offset if seg_index == position.segment else 0
            consumed = start
            for frame in _frames(data, seg_index, start, fences):
                if frame.problem == "torn" and segment is segments[-1]:
                    # an in-progress append by a possibly-live writer:
                    # park here and retry next poll — never truncate
                    break
                consumed = frame.end
                if frame.problem is None:
                    tail.records.append(frame.record)
                    continue
                tail.fenced += frame.problem == "fenced"
                tail.warnings.append(frame.warning(segment, (
                    "rest of the segment skipped"
                    if frame.problem in ("torn", "implausible")
                    else "record skipped"
                )))
            tail.position = WalPosition(seg_index, consumed)
    except FileNotFoundError:
        # the segments the cursor ordered against were folded into the
        # snapshot; record-by-record resume is impossible
        return WalTail(reset=True, warnings=[
            f"compaction superseded cursor ({position.segment}, "
            f"{position.offset}); re-sync from {SNAPSHOT_NAME}"
        ])
    for warning in tail.warnings:
        log.warning("wal tail: %s", warning)
    return tail
