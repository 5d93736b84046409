"""WAL-shipping read replicas: tail the primary's log, serve reads, fail over.

The primary's write-ahead log (:mod:`repro.service.wal`) is already a
complete replication stream — ordered, CRC-framed epoch records plus a
compaction snapshot — so a replica needs no second protocol: a
:class:`ReplicaServer` wraps an ordinary :class:`QueryService` in
**follower** mode, tails the primary's WAL directory with the
non-destructive :func:`~repro.service.wal.read_from` cursor, and replays
each new epoch into its own delta logs (and, lazily, its own
shared-memory scenario plane) while serving queries from its
own worker pool.  Ingest sent to a follower is refused with a
``not_primary`` redirect (:class:`~repro.service.core.NotPrimaryError`)
— writes have exactly one home.

Consistency contract (docs/SERVICE.md, Replication): a follower always
serves a **prefix of the primary's epoch order**.  Three mechanisms hold
the line:

* records apply through
  :meth:`~repro.service.core.QueryService.apply_replicated`, which is
  idempotent on replays and raises
  :class:`~repro.service.core.ReplicationGapError` on any hole;
* a gap — or a cursor invalidated by compaction (``tail.reset``) —
  triggers a **re-sync** from a genesis read plus the primary's
  snapshot, never an interpolation across missing epochs; the service
  keeps its caches when the re-synced log extends the one it held and
  drops them when it diverged;
* replication lag is observable end to end: the follower reports
  ``replication_lag_epochs`` (observed primary tip minus applied epoch)
  in ``health`` and the metrics render, and the primary reports
  per-follower lag by scanning the ``followers/`` cursor files each
  replica checkpoints next to the WAL.

**Promotion** (:meth:`ReplicaServer.promote`) is the failover path: stop
tailing, replay to the WAL tip, write a new fencing token into the WAL
directory at that position (:func:`~repro.service.wal.advance_fence`),
sweep the dead primary's orphaned shm segments, and open a
:class:`~repro.service.wal.WriteAheadLog` with the new token — the node
now accepts ingest, and any late append by the SIGKILLed primary (a
"zombie") lands at or past the fence position with a stale token, so
every subsequent read quarantines it.  ``serve-bench --drill
failover`` drives the whole sequence as a drill
(:func:`repro.service.drill.run_failover_drill`).

Two fault points make the replication failure modes provable from the
``mega-repro faults`` campaign: ``replica.stale-read`` withholds a
freshly tailed batch for one poll (lag becomes visible, then the replica
converges), and ``replica.tail-gap`` drops one tailed record (the next
record trips gap detection and forces a snapshot re-sync).
"""

from __future__ import annotations

import logging
import pathlib
import threading
import time
from typing import Callable

from repro.resilience.faults import Fire, maybe_fire, register_fault_point
from repro.service.core import (
    QueryService,
    ReplicationGapError,
    ServiceConfig,
)
from repro.service.shm import sweep_orphan_segments
from repro.service.wal import (
    WalPosition,
    WalRecovery,
    WriteAheadLog,
    advance_fence,
    drop_follower_cursor,
    read_from,
    read_snapshot,
    safe_follower_id,
    write_follower_cursor,
)

__all__ = [
    "REPLICA_FAULT_POINTS",
    "ReplicaServer",
]

log = logging.getLogger(__name__)

register_fault_point(
    "replica.stale-read",
    "service/replica.py",
    "the tailer withholds a freshly read batch for one poll: the replica "
    "serves stale epochs and its replication lag becomes visible",
)
register_fault_point(
    "replica.tail-gap",
    "service/replica.py",
    "one tailed record is dropped before apply: the next record trips "
    "gap detection and the replica re-syncs from the snapshot",
)

#: fault points that fire inside the replica tailer
REPLICA_FAULT_POINTS = ("replica.stale-read", "replica.tail-gap")


class ReplicaServer:
    """A read replica: follower-mode query service plus the WAL tailer.

    ``poll_once()`` is the synchronous unit of replication (one tail read
    + apply); ``start()`` wraps it in a daemon thread polling every
    ``poll_interval_s``.  Deterministic tests and the fault campaign call
    ``poll_once()`` directly.
    """

    def __init__(
        self,
        primary_wal_dir: str | pathlib.Path,
        config: ServiceConfig | None = None,
        follower_id: str = "replica-1",
        poll_interval_s: float = 0.05,
        fault_hook: Callable[[str], Fire | None] | None = None,
        service: QueryService | None = None,
    ) -> None:
        self.primary_wal_dir = pathlib.Path(primary_wal_dir)
        # the id becomes a file name under <wal>/followers/ — reject
        # anything that could traverse out of that directory
        self.follower_id = safe_follower_id(follower_id)
        self.poll_interval_s = float(poll_interval_s)
        self._maybe_fire = fault_hook if fault_hook is not None else maybe_fire
        # a demoted primary re-enters follower mode with its service (and
        # worker pool, caches, front end) intact; fresh followers build
        # their own
        self.service = service if service is not None else QueryService(config)
        self.service.role = "follower"
        self.service.primary_wal_dir = str(self.primary_wal_dir)
        self.service.replica = self
        self._lock = threading.Lock()
        #: serializes whole replication units — a re-sync, one poll's
        #: apply, a promotion — so ``promote()`` can never run against a
        #: half-installed snapshot (it waits for the in-flight re-sync to
        #: finish and then proceeds from consistent state)
        self._repl_lock = threading.RLock()
        self.resync_in_progress = False
        self._position = WalPosition()
        #: highest primary epoch per graph this replica has *observed* in
        #: the stream (applied or not) — the basis of self-reported lag
        self._seen_epochs: dict[str, int] = {}
        self.resyncs = 0
        self.fenced_skipped = 0
        self.tail_warnings = 0
        self.promoted = False
        self._tailing = False
        self._thread: threading.Thread | None = None

    # -- lifecycle ----------------------------------------------------------

    def start(self, tail_thread: bool = True) -> "ReplicaServer":
        """Start serving: initial sync from the primary's WAL, then tail."""
        self.service.start()
        self._resync()
        self._write_cursor()
        if tail_thread:
            self._tailing = True
            self._thread = threading.Thread(
                target=self._tail_loop, name="mega-replica-tail", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, drain: bool = True, timeout: float = 60.0) -> bool:
        self._stop_tailer()
        return self.service.stop(drain=drain, timeout=timeout)

    def _stop_tailer(self) -> None:
        self._tailing = False
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    def __enter__(self) -> "ReplicaServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _tail_loop(self) -> None:
        while self._tailing and not self.promoted:
            try:
                self.poll_once()
            except Exception:  # noqa: BLE001 - tailer must outlive one bad poll
                log.exception("replica tailer: poll failed; retrying")
            time.sleep(self.poll_interval_s)

    # -- replication --------------------------------------------------------

    def _resync(self) -> int:
        """Re-sync: genesis read of the surviving segments + snapshot.

        The only correct answer to a compaction that outran the cursor or
        a gap in the stream — record-by-record resume would interpolate
        across missing epochs and break the prefix contract.  The service
        installs the result by its one rule
        (:meth:`~repro.service.core.QueryService._install_recovery`).
        Returns the epochs it advanced.
        """
        with self._repl_lock:
            before = sum(self._applied_epochs().values())
            self.resync_in_progress = True
            try:
                # tail first: a compaction between the two reads then
                # leaves a snapshot that covers the records read (and a
                # cursor the next poll resets), never a snapshot older
                # than the segments after it
                tail = read_from(self.primary_wal_dir)
                while tail.reset:
                    tail = read_from(self.primary_wal_dir)
                recovery = WalRecovery(
                    snapshot=read_snapshot(self.primary_wal_dir),
                    records=tail.records,
                    position=tail.position,
                )
                self.service._install_recovery(recovery)
                applied = self._applied_epochs()
                self._note_tail(tail, applied)
                with self._lock:
                    self._position = tail.position
                    self.resyncs += 1
            finally:
                self.resync_in_progress = False
        log.info(
            "replica %s: re-synced to %s (resync #%d)",
            self.follower_id, tail.position, self.resyncs,
        )
        return max(0, sum(applied.values()) - before)

    def poll_once(self) -> int:
        """One replication step: read new records, apply them, checkpoint.

        Returns the number of epochs applied.  Never raises on stream
        damage — gaps and compaction resets degrade to a re-sync.
        """
        if self.promoted:
            return 0
        with self._repl_lock:
            applied, _clean = self._catch_up(faults=True)
        self._write_cursor()
        return applied

    def _catch_up(self, faults: bool) -> tuple[int, bool]:
        """Read the tail after the cursor and apply it: the one
        replication step polling and promotion share.

        A compaction reset or an epoch gap re-syncs instead.  Returns the
        epochs applied and whether the pass was clean: the tail applied
        whole and the cursor moved to its end.  ``faults`` arms the
        replica fault points; promotion runs without them, since it must
        land on the true tip even mid-campaign.
        """
        with self._lock:
            position = self._position
        tail = read_from(self.primary_wal_dir, position)
        if tail.reset:
            return self._resync(), False
        records = [
            (r.get("graph", ""), int(r.get("epoch", 0)), r)
            for r in tail.records if r.get("op") == "ingest"
        ]
        self._note_tail(tail, {graph: epoch for graph, epoch, _ in records})
        if faults and records:
            fire = self._maybe_fire("replica.stale-read")
            if fire is not None:
                # withhold the whole batch and do NOT advance the cursor:
                # the replica keeps serving its current (stale) epochs and
                # the lag gauge shows exactly how far behind it is; the
                # next poll re-reads and converges
                fire.note(withheld=len(records), at=position.key())
                return 0, False
        applied = 0
        for graph, epoch, record in records:
            fire = self._maybe_fire("replica.tail-gap") if faults else None
            if fire is not None:
                # drop this record on the floor: the next record for the
                # graph cannot extend the log and forces a re-sync
                fire.note(graph=graph, epoch=epoch)
                continue
            try:
                applied += self.service.apply_replicated(
                    graph, epoch, record["delta"]
                )
            except ReplicationGapError as exc:
                log.warning(
                    "replica %s: %s; re-syncing", self.follower_id, exc
                )
                return applied + self._resync(), False
        with self._lock:
            self._position = tail.position
        return applied, True

    def _note_tail(self, tail, epochs: dict[str, int]) -> None:
        """Count what a tail skipped; note the primary epochs it showed."""
        with self._lock:
            self.fenced_skipped += tail.fenced
            self.tail_warnings += len(tail.warnings)
            for graph, epoch in epochs.items():
                if epoch > self._seen_epochs.get(graph, 0):
                    self._seen_epochs[graph] = epoch

    def _applied_epochs(self) -> dict[str, int]:
        with self.service._graphs_lock:
            return {
                g: lg.epoch for g, lg in self.service._graphs.items()
            }

    def _write_cursor(self) -> None:
        """Checkpoint this follower's cursor next to the primary's WAL."""
        try:
            with self._lock:
                position = self._position
            write_follower_cursor(
                self.primary_wal_dir,
                self.follower_id,
                position,
                self._applied_epochs(),
            )
        except OSError as exc:  # pragma: no cover - disk trouble
            log.warning(
                "replica %s: cursor write failed: %s", self.follower_id, exc
            )

    # -- observability ------------------------------------------------------

    def position(self) -> WalPosition:
        """The replication cursor (frozen, so safe to hand out)."""
        with self._lock:
            return self._position

    def lag_epochs(self) -> int:
        """Epochs this replica trails the primary tip it has observed."""
        applied = self._applied_epochs()
        with self._lock:
            seen = dict(self._seen_epochs)
        return max(0, max(
            (e - applied.get(g, 0) for g, e in seen.items()), default=0
        ))

    def health(self) -> dict:
        """Replica-side fields merged into the service's ``health`` op."""
        with self._lock:
            position = self._position
        return {
            "follower_id": self.follower_id,
            "primary_wal_dir": str(self.primary_wal_dir),
            "cursor": position.as_dict(),
            "resyncs": self.resyncs,
            "resync_in_progress": self.resync_in_progress,
            "fenced_skipped": self.fenced_skipped,
            "tail_warnings": self.tail_warnings,
            "promoted": self.promoted,
        }

    # -- failover -----------------------------------------------------------

    def promote(self, claimed_token: int | None = None) -> int:
        """Become the primary: catch up, fence the old role, accept ingest.

        1. stop the tailer and replay to the WAL tip (an in-progress tail
           frame is an *unacknowledged* append by the dead primary and is
           correctly left behind);
        2. :func:`~repro.service.wal.advance_fence` at the consumed tip —
           the new token invalidates any later append by a zombie primary
           holding the old one;
        3. sweep the dead primary's orphaned shm segments and open a
           :class:`~repro.service.wal.WriteAheadLog` with the new token;
        4. flip the role: ingest is accepted, the follower cursor file is
           dropped.

        Returns the new fencing token.  Idempotent: a second call returns
        the token already held.

        ``claimed_token`` is the election path: the cluster supervisor
        already won the fence CAS (:func:`~repro.service.wal
        .try_claim_fence`), so the token is adopted instead of advanced —
        advancing again would burn a token with no owner.

        Serialized against the tailer via the replication lock: a
        promotion that lands during an in-flight wholesale re-sync waits
        for the re-sync to complete rather than fencing and serving from
        a partially-installed snapshot.
        """
        if self.promoted:
            return self.service.wal.fence_token if self.service.wal else 0
        self._stop_tailer()
        with self._repl_lock:
            return self._promote_locked(claimed_token)

    def _promote_locked(self, claimed_token: int | None) -> int:
        while not self._catch_up(faults=False)[1]:
            pass
        with self._lock:
            position = self._position
        if claimed_token is None:
            token = advance_fence(self.primary_wal_dir, position)
        else:
            token = int(claimed_token)
        # the dead primary cannot unlink its own shm segments; as the new
        # owner of the serving role we reclaim them before publishing
        sweep_orphan_segments()
        config = self.service.config
        self.service.wal = WriteAheadLog(
            self.primary_wal_dir,
            fsync=config.wal_fsync,
            fault_hook=self.service._maybe_fire,
            fence_token=token,
        )
        self.service.role = "primary"
        self.service.primary_wal_dir = None
        self.promoted = True
        drop_follower_cursor(self.primary_wal_dir, self.follower_id)
        log.info(
            "replica %s: promoted to primary at %s with fence token %d",
            self.follower_id, position, token,
        )
        return token
