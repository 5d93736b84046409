"""The per-node cluster brain: beat, observe, demote, elect.

One :class:`ClusterNode` wraps either a primary :class:`QueryService`
(it has a live WAL writer) or a follower :class:`ReplicaServer`, and
runs a small deterministic ``tick()`` — a daemon thread calls it on a
jittered cadence, but tests and the fault campaign drive it manually
with an injected clock.

Per tick:

1. **beat** — publish this node's beacon (role, fence token, position,
   applied epochs) unless the ``cluster.heartbeat-drop`` fault eats it;
2. **observe** — sample every peer's beacon through the
   :class:`~repro.service.cluster.heartbeat.HeartbeatMonitor`;
3. **primary**: check the on-disk fence.  A token newer than our own
   means we were superseded while alive (a zombie) — stop ingesting and
   demote to follower.  The WAL fencing path already quarantines any
   append we raced in, so demotion is cleanup, not correctness;
4. **follower**: if the detector *confirms* the primary suspect, run the
   election protocol — catch up to the durable WAL tip (the shared
   directory still holds everything the dead primary fsynced), defer to
   any more-caught-up live follower, then attempt the fence CAS
   (:func:`repro.service.wal.try_claim_fence`).  Exactly one claimant
   wins and promotes; losers back off for an election grace and
   re-evaluate — if the winner's primary beacon appears they follow it,
   if not (the winner died mid-promotion, or ``cluster.split-fence``
   burned the token) the next CAS round recovers.  A disk token already
   past the one the suspected primary beaconed means a peer won: the
   candidate defers one grace for the winner's beacon instead of
   claiming the token after it.

Election safety does not depend on the ranking heuristics: the CAS is
the single arbiter, and a candidate always catches up to the fsynced
tip *before* claiming, so every quorum-acked epoch (indeed every
fsynced epoch) survives onto the new primary.
"""

from __future__ import annotations

import hashlib
import logging
import threading
import time

from repro.resilience.faults import Fire, maybe_fire, register_fault_point
from repro.service.cluster.heartbeat import (
    Beacon,
    HeartbeatMonitor,
    write_beacon,
)
from repro.service.wal import (
    WalPosition,
    current_fence_token,
    safe_follower_id,
    try_claim_fence,
)

__all__ = ["CLUSTER_FAULT_POINTS", "ClusterNode"]

log = logging.getLogger(__name__)

register_fault_point(
    "cluster.heartbeat-drop",
    "service/cluster/supervisor.py",
    "a node's heartbeat beacon is dropped before publication (the peer "
    "looks late; suspicion must rise, hysteresis must absorb it)",
)
register_fault_point(
    "cluster.split-fence",
    "service/cluster/supervisor.py",
    "a rival fence claim lands just before an elector's CAS (the elector "
    "must lose cleanly and re-elect on the next token)",
)

CLUSTER_FAULT_POINTS = ("cluster.heartbeat-drop", "cluster.split-fence")


class ClusterNode:
    """Supervises one service process as a member of an N-node group.

    Exactly one of ``service`` (primary mode) / ``replica`` (follower
    mode) is given at construction; the node flips between the two roles
    as elections and demotions happen.  Context-manager use starts the
    underlying service/replica and the tick thread together (the shape
    ``serve_stdio`` expects from its ``replica`` argument).
    """

    def __init__(
        self,
        wal_dir,
        node_id: str,
        *,
        service=None,
        replica=None,
        cluster_size: int = 3,
        heartbeat_interval_s: float = 0.1,
        phi_threshold: float = 6.0,
        confirm_ticks: int = 2,
        jitter_frac: float = 0.2,
        election_grace_s: float | None = None,
        fault_hook=None,
        clock=time.monotonic,
    ):
        if (service is None) == (replica is None):
            raise ValueError(
                "ClusterNode needs exactly one of service= (primary) "
                "or replica= (follower)"
            )
        self.wal_dir = wal_dir
        self.node_id = safe_follower_id(node_id)
        self.cluster_size = int(cluster_size)
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.replica = replica
        self.service = service if service is not None else replica.service
        self._fault_hook = fault_hook
        self._clock = clock
        # losers and deferrers wait this long before re-contending, long
        # enough for a fresh winner's primary beacon to show up
        self.election_grace_s = (
            float(election_grace_s)
            if election_grace_s is not None
            else heartbeat_interval_s * phi_threshold
        )
        self.monitor = HeartbeatMonitor(
            wal_dir,
            self.node_id,
            interval_s=heartbeat_interval_s,
            phi_threshold=phi_threshold,
            confirm_ticks=confirm_ticks,
            jitter_frac=jitter_frac,
            clock=clock,
            registry=self.service.metrics,
        )
        self.seq = 0
        self.elections = 0
        self.claims_lost = 0
        self.deferrals = 0
        self.demotions = 0
        self.heartbeats_dropped = 0
        self.primary_node_id: str | None = (
            self.node_id if service is not None else None
        )
        self._defer_until = 0.0
        #: fence token the followed primary last beaconed, and the newer
        #: disk token this node already deferred on once
        self._primary_token = 0
        self._passed_token: int | None = None
        self._zombie_wal = None
        self._running = False
        self._thread: threading.Thread | None = None
        # jitter the tick cadence per node so N nodes spread their I/O
        digest = hashlib.sha256(self.node_id.encode()).digest()
        self._tick_jitter = 1.0 + 0.25 * (digest[0] / 255.0)
        self.service.cluster_node = self

    # -- role / fault plumbing ------------------------------------------

    @property
    def role(self) -> str:
        return self.service.role

    def _maybe_fire(self, point: str) -> Fire | None:
        fire = maybe_fire(point)
        if fire is not None:
            return fire
        if self._fault_hook is not None:
            return self._fault_hook(point)
        return None

    # -- the deterministic tick -----------------------------------------

    def tick(self) -> str:
        """One supervision round; returns the action taken (for tests)."""
        self._beat()
        beacons = self.monitor.observe()
        if self.service.role == "primary":
            return self._primary_tick()
        return self._follower_tick(beacons)

    def _beat(self) -> None:
        self.seq += 1
        fire = self._maybe_fire("cluster.heartbeat-drop")
        if fire is not None:
            self.heartbeats_dropped += 1
            fire.note(node_id=self.node_id, seq=self.seq)
            return
        write_beacon(self.wal_dir, Beacon(
            node_id=self.node_id,
            role=self.service.role,
            fence_token=self._own_token(),
            position=self._own_position(),
            epochs=self._own_epochs(),
            seq=self.seq,
            sent_unix=time.time(),
        ))

    def _own_token(self) -> int:
        if self.service.role == "primary" and self.service.wal is not None:
            return int(self.service.wal.fence_token or 0)
        return int(current_fence_token(self.wal_dir))

    def _own_position(self) -> WalPosition:
        if self.service.role == "primary" and self.service.wal is not None:
            try:
                return self.service.wal.position()
            except (OSError, ValueError):
                return WalPosition()
        if self.replica is not None:
            return self.replica.position()
        return WalPosition()

    def _own_epochs(self) -> dict[str, int]:
        with self.service._graphs_lock:
            return {
                name: live.epoch
                for name, live in self.service._graphs.items()
            }

    # -- primary side: zombie self-demotion -----------------------------

    def _primary_tick(self) -> str:
        disk = current_fence_token(self.wal_dir)
        own = self._own_token()
        if own and disk > own:
            self._demote(disk)
            return "demoted"
        return "primary"

    def _demote(self, disk_token: int) -> None:
        """We were fenced out while alive: stop writing, become a
        follower of whoever owns the newer token.

        Ordering matters: flip the role first (new ingests refuse with a
        redirect), then drop the WAL handle.  Any append that raced the
        flip carries our stale token and is quarantined by every reader
        — the fencing contract, not this method, is the safety boundary.
        """
        from repro.service.replica import ReplicaServer

        log.warning(
            "cluster: %s demoting — on-disk fence token %d supersedes "
            "ours (%d)", self.node_id, disk_token, self._own_token(),
        )
        self.service.role = "follower"
        self.service.primary_wal_dir = str(self.wal_dir)
        self._zombie_wal = self.service.wal
        self.service.wal = None
        self.replica = ReplicaServer(
            self.wal_dir,
            follower_id=self.node_id,
            service=self.service,
        )
        self.replica.start(tail_thread=True)
        self.primary_node_id = None
        self.demotions += 1

    # -- follower side: detection + election ----------------------------

    def _follower_tick(self, beacons: dict[str, Beacon]) -> str:
        primary = self._primary_of(beacons)
        if primary is not None:
            self.primary_node_id = primary.node_id
            self._primary_token = primary.fence_token
        target = self.primary_node_id
        if target is None or target == self.node_id:
            # never seen a primary: fall back to suspecting the void —
            # the monitor's never-seen ramp keeps a fresh cluster from
            # electing before a slow primary finishes starting
            target = None
        suspect = (
            self.monitor.confirmed_suspect(target)
            if target is not None
            else False
        )
        if not suspect:
            return "follower"
        if float(self._clock()) < self._defer_until:
            return "deferred"
        return self._attempt_election(beacons)

    def _primary_of(self, beacons: dict[str, Beacon]) -> Beacon | None:
        primaries = [
            b for node_id, b in beacons.items()
            if b.role == "primary" and node_id != self.node_id
        ]
        if not primaries:
            return None
        return max(primaries, key=lambda b: (b.fence_token, b.sent_unix))

    def _attempt_election(self, beacons: dict[str, Beacon]) -> str:
        if self.replica is None:
            return "follower"
        expected = current_fence_token(self.wal_dir)
        if expected > self._primary_token and expected != self._passed_token:
            # the fence already moved past the suspected primary's token:
            # a peer won and its primary beacon is not visible yet.  Give
            # it an election grace; contend from this token only if it
            # never shows up (the winner died mid-promotion)
            self._passed_token = expected
            self.deferrals += 1
            self._defer_until = float(self._clock()) + self.election_grace_s
            return "deferred"
        # 1. catch up to the durable tip: everything the dead primary
        #    fsynced is still in the shared directory, so the winner by
        #    construction carries every quorum-acked epoch
        for _ in range(256):
            if self.replica.poll_once() == 0:
                break
        position = self.replica.position()
        mine = (self._progress_key(), self.node_id)
        for node_id, beacon in beacons.items():
            if node_id == self.node_id or beacon.role != "follower":
                continue
            if self.monitor.confirmed_suspect(node_id):
                continue  # a dead peer must not veto the election
            theirs = (beacon.progress_key(), node_id)
            if theirs > mine:
                # a more-caught-up live follower should win; give it an
                # election grace before we contend anyway (it may be
                # dead without being confirmed yet)
                self.deferrals += 1
                self._defer_until = (
                    float(self._clock()) + self.election_grace_s
                )
                return "deferred"
        fire = self._maybe_fire("cluster.split-fence")
        if fire is not None:
            rival = try_claim_fence(self.wal_dir, position, expected)
            fire.note(
                node_id=self.node_id,
                rival_token=int(rival or 0),
            )
        token = try_claim_fence(self.wal_dir, position, expected)
        if token is None:
            self.claims_lost += 1
            self._defer_until = float(self._clock()) + self.election_grace_s
            log.info(
                "cluster: %s lost the fence CAS at token %d; backing off",
                self.node_id, expected + 1,
            )
            return "claim-lost"
        self.replica.promote(claimed_token=token)
        self.elections += 1
        self.primary_node_id = self.node_id
        log.warning(
            "cluster: %s won election with fence token %d at %s",
            self.node_id, token, position,
        )
        return "promoted"

    def _progress_key(self) -> tuple[int, int, int]:
        position = self.replica.position()
        return (
            sum(self._own_epochs().values()),
            position.segment,
            position.offset,
        )

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "ClusterNode":
        if self._running:
            return self
        self._running = True
        self._thread = threading.Thread(
            target=self._tick_loop,
            name=f"cluster-{self.node_id}",
            daemon=True,
        )
        self._thread.start()
        return self

    def _tick_loop(self) -> None:
        while self._running:
            try:
                self.tick()
            except Exception:
                log.exception(
                    "cluster: %s tick failed; retrying", self.node_id
                )
            time.sleep(self.heartbeat_interval_s * self._tick_jitter)

    def stop(self) -> None:
        self._running = False
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5.0)
        if self._zombie_wal is not None:
            try:
                self._zombie_wal.close()
            except (OSError, ValueError):
                pass
            self._zombie_wal = None

    def promote(self) -> int:
        """Manual promotion override (the ``promote`` front-end op)."""
        if self.replica is None:
            return self._own_token()
        token = self.replica.promote()
        self.primary_node_id = self.node_id
        return token

    def __enter__(self) -> "ClusterNode":
        if self.replica is not None:
            self.replica.start()
        else:
            self.service.start(wal_dir=self.wal_dir)
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
        if self.replica is not None:
            self.replica.stop()
        else:
            self.service.stop()

    # -- observability ---------------------------------------------------

    def health(self) -> dict:
        beacons = read_beacons_safe(self.wal_dir)
        peers = {}
        for node_id, beacon in beacons.items():
            if node_id == self.node_id:
                continue
            peers[node_id] = {
                "role": beacon.role,
                "fence_token": beacon.fence_token,
                "suspicion": round(self.monitor.suspicion(node_id), 3),
                "suspect": self.monitor.confirmed_suspect(node_id),
            }
        return {
            "node_id": self.node_id,
            "cluster_size": self.cluster_size,
            "role": self.service.role,
            "primary_node_id": self.primary_node_id,
            "heartbeat_interval_s": self.heartbeat_interval_s,
            "elections": self.elections,
            "claims_lost": self.claims_lost,
            "deferrals": self.deferrals,
            "demotions": self.demotions,
            "heartbeats_dropped": self.heartbeats_dropped,
            "suspects": self.monitor.suspects(),
            "peers": peers,
        }


def read_beacons_safe(wal_dir) -> dict[str, Beacon]:
    from repro.service.cluster.heartbeat import read_beacons

    try:
        return read_beacons(wal_dir)
    except OSError:
        return {}
