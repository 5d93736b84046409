"""SIGKILL drills: kill the service mid-stream, prove nothing acked is lost.

Every drill runs the serving primary as a separate ``mega-repro serve``
process (:class:`ServeChild`), ingests the seeded chain ``1..N`` until
epoch ``N`` is acknowledged, and SIGKILLs the child's process group — no
atexit handlers, no flush, exactly what a crashed coordinator looks like.
It then checks that a served answer equals from-scratch evaluation at a
named epoch (digests for every requested algorithm against an
uninterrupted in-process replay of the same seeded chain), and that no
shared-memory segment is left orphaned at the end.

``mega-repro serve-bench --drill NAME --kill-at-epoch N`` runs one:

* **crash** (:func:`run_crash_drill`): restart on the same ``--wal-dir``;
  the recovered epoch must equal the last acknowledged one.
* **failover** (:func:`run_failover_drill`): promote an in-process read
  replica, then append as the dead primary's ghost with its stale fencing
  token — skipped by every read, quarantined by recovery, never applied.
* **chaos** (:func:`run_chaos_kill_drill`): kill the primary of an N-node
  ``quorum:1`` cluster under redirect-following load with no promotion
  driver; one follower must elect itself, the writer must follow it, the
  survivor must re-target, and no quorum-acked epoch may be lost.

Each returns one :class:`DrillReport` of named facts and named checks.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field

from repro.algorithms import ALGORITHMS, get_algorithm
from repro.service.shm import list_orphan_segments

__all__ = [
    "CrashDrillError",
    "DrillReport",
    "ServeChild",
    "run_chaos_kill_drill",
    "run_crash_drill",
    "run_failover_drill",
]

#: per-exchange ceiling; far above any tiny/small-scale op
OP_TIMEOUT_S = 180.0

_TITLES = {
    "crash": "SIGKILL the serve child, restart it on its WAL",
    "failover": "SIGKILL the primary, promote the follower, fence the zombie",
    "chaos": "SIGKILL the cluster primary, unattended election",
}


class CrashDrillError(RuntimeError):
    """The drill could not run (dead subprocess, protocol breakdown)."""


@dataclass
class DrillReport:
    """Outcome of one drill: what was observed, and what had to hold."""

    #: ``crash``, ``failover`` or ``chaos``
    drill: str
    graph: str
    kill_at_epoch: int
    #: observations: epochs, fence tokens, timings, health blocks
    facts: dict = field(default_factory=dict)
    #: one named invariant per entry; parity as ``parity:<algo>``
    checks: dict[str, bool] = field(default_factory=dict)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return bool(self.checks) and all(self.checks.values())

    def format_table(self) -> str:
        lines = [
            f"== {self.drill} drill on {self.graph} at epoch "
            f"{self.kill_at_epoch}: {_TITLES.get(self.drill, '')} =="
        ]
        for key, value in self.facts.items():
            text = json.dumps(value, sort_keys=True, default=str)
            if isinstance(value, dict) and len(text) > 100:
                text = f"{{{len(value)} keys; see the JSON report}}"
            lines.append(f"  {key:<24} {text}")
        for name, passed in self.checks.items():
            lines.append(f"  check {name:<24} {'ok' if passed else 'FAIL'}")
        lines.append(
            f"verdict: {'PASS' if self.ok else 'FAIL'} "
            f"({self.elapsed_s:.1f}s)"
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        """The BENCH envelope; ``results`` holds every fact and every
        non-parity check by name, parity grouped per algorithm."""
        from repro.service.loadgen import BENCH_SCHEMA_VERSION

        results: dict = {**self.facts, "parity": {}}
        for name, passed in self.checks.items():
            if name.startswith("parity:"):
                results["parity"][name.split(":", 1)[1]] = passed
            else:
                results[name] = passed
        return json.dumps(
            {
                "bench": "service",
                "schema_version": BENCH_SCHEMA_VERSION,
                "drill": self.drill,
                "graph": self.graph,
                "kill_at_epoch": self.kill_at_epoch,
                "results": {**results, "ok": self.ok,
                            "elapsed_s": round(self.elapsed_s, 3)},
            },
            indent=2,
            sort_keys=True,
            default=str,
        )


class ServeChild:
    """One ``mega-repro serve`` child: JSON lines in on a pipe, out to a
    temp file — a full pipe would deadlock teardown — polled under a
    deadline, so a wedged child fails the drill instead of hanging it.

    Also the stdio ingest target for :func:`~repro.service.loadgen
    .run_load`'s redirecting writer: ``ingest`` raises when the child
    refuses or is dead (the writer then dedups a maybe-applied write
    through ``epoch``).  Leaving a ``with`` block SIGKILLs the child
    unless it was shut down.
    """

    def __init__(self, cli_args: list[str]) -> None:
        fd, self._out_path = tempfile.mkstemp(
            prefix="mega-drill-", suffix=".jsonl"
        )
        self._writer = os.fdopen(fd, "w")
        self._reader = open(self._out_path, "r")
        self._closed = False
        # a load writer and a supervisor may share one child: requests
        # must not interleave on the stdin pipe
        self._lock = threading.Lock()
        # own session/process group: a SIGKILL must take down the child's
        # forked pool workers too, not orphan them onto init
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", *cli_args],
            stdin=subprocess.PIPE,
            stdout=self._writer,
            stderr=subprocess.DEVNULL,
            text=True,
            start_new_session=True,
        )

    def __enter__(self) -> "ServeChild":
        return self

    def __exit__(self, *exc) -> None:
        self.kill()

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None

    def _read_line(self, timeout: float) -> str:
        """Next complete response line ('' once the child is dead and
        drained), polling the output file."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                mark = self._reader.tell()
                line = self._reader.readline()
            except ValueError:  # a concurrent kill() closed the file
                raise CrashDrillError("serve process killed mid-read")
            if line.endswith("\n"):
                return line
            self._reader.seek(mark)  # partial line or nothing yet
            if self.proc.poll() is not None:
                return ""
            if time.monotonic() >= deadline:
                raise CrashDrillError(
                    f"no response from serve process within {timeout:.0f}s"
                )
            time.sleep(0.01)

    def request(self, op: dict, timeout: float = OP_TIMEOUT_S) -> dict:
        with self._lock:
            if self.proc.poll() is not None:
                raise CrashDrillError(
                    f"serve process exited early (rc={self.proc.returncode})"
                )
            try:
                self.proc.stdin.write(json.dumps(op) + "\n")
                self.proc.stdin.flush()
            except (OSError, ValueError):
                raise CrashDrillError("serve process pipe closed")
            line = self._read_line(timeout)
            if not line:
                raise CrashDrillError(
                    "serve process closed stdout mid-session "
                    f"(rc={self.proc.poll()})"
                )
            return json.loads(line)

    def health(self) -> dict:
        resp = self.request({"op": "health"})
        if not resp.get("ok"):
            raise CrashDrillError(f"health op failed: {resp}")
        return resp

    def epoch(self, graph: str) -> int:
        return int(self.health().get("epochs", {}).get(graph, 0))

    def ingest_with_ack(
        self, graph: str, seed: int | None = None,
        n_add: int = 8, n_del: int = 8,
    ) -> tuple[int, dict]:
        op = {"op": "ingest", "graph": graph, "n_add": n_add, "n_del": n_del}
        if seed is not None:
            op["seed"] = int(seed)
        resp = self.request(op)
        if not resp.get("ok"):
            raise CrashDrillError(f"serve process refused ingest: {resp}")
        return int(resp["epoch"]), resp.get("ack", {})

    def ingest(self, graph: str, seed: int | None = None,
               n_add: int = 8, n_del: int = 8) -> int:
        return self.ingest_with_ack(graph, seed, n_add, n_del)[0]

    def kill(self) -> None:
        """SIGKILL the child's process group and release its files."""
        if self._closed:
            return
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # pragma: no cover - group already gone
            pass
        self.proc.wait(timeout=30)
        self._release()

    def shutdown(self) -> None:
        """Graceful stop (the child unlinks its shm segments); a child
        that does not exit in time is killed."""
        try:
            self.request({"op": "shutdown"})
            self.proc.stdin.close()
            self.proc.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if self.proc.returncode is None:
                self.kill()
            self._release()

    def _release(self) -> None:
        if self._closed:
            return
        self._closed = True
        for fh in (self.proc.stdin, self._writer, self._reader):
            try:
                fh.close()
            except OSError:  # pragma: no cover - pipe already broken
                pass
        try:
            os.unlink(self._out_path)
        except FileNotFoundError:  # pragma: no cover - raced cleanup
            pass


# -- shared steps ------------------------------------------------------------


@dataclass
class _Setup:
    """What a drill is parameterized by, besides its fault schedule."""

    drill: str
    kill_at_epoch: int
    wal_dir: str
    graph: str
    scale: str
    n_snapshots: int
    workers: int
    algos: list[str]
    source: int
    #: slide checkpoint (and WAL compaction) every N ingests; 0 = never
    slide_every: int = 0
    t0: float = field(default_factory=time.monotonic)

    def __post_init__(self) -> None:
        if self.kill_at_epoch < 1:
            raise ValueError("--kill-at-epoch must be >= 1")
        self.wal_dir = str(self.wal_dir)
        self.algos = list(self.algos or sorted(a.lower() for a in ALGORITHMS))

    def serve_args(self, *topology: str) -> list[str]:
        return [
            "--scale", self.scale,
            "--snapshots", str(self.n_snapshots),
            "--workers", str(self.workers),
            "--graphs", self.graph,
            "--wal-dir", self.wal_dir,
            "--slide-every", str(self.slide_every),
            *topology,
        ]

    def config(self, **over):
        from repro.service.core import ServiceConfig

        return ServiceConfig(scale=self.scale, n_snapshots=self.n_snapshots,
                             workers=self.workers,
                             window_slide_every=self.slide_every, **over)

    def query_op(self, algo: str) -> dict:
        return {"op": "query", "graph": self.graph, "algo": algo,
                "source": self.source}

    def report(self, facts: dict, checks: dict, stranded: int) -> DrillReport:
        """Close the drill with orphan accounting: ``stranded`` segments
        the kill left behind are informational (the next server sweeps
        them); any still orphaned now fail the drill."""
        orphans = list_orphan_segments()
        return DrillReport(
            drill=self.drill,
            graph=self.graph,
            kill_at_epoch=self.kill_at_epoch,
            facts={**facts, "orphans_after_kill": stranded,
                   "orphan_segments": orphans},
            checks={**checks, "no_orphan_segments": not orphans},
            elapsed_s=time.monotonic() - self.t0,
        )


def _warm(child: ServeChild, setup: _Setup) -> None:
    """Serve a real query first so the kill lands on a warmed service
    (worker caches populated, plan path exercised), not a blank one."""
    child.request(setup.query_op(setup.algos[0]))


def _ingest_chain(target, graph: str, first: int, last: int) -> list:
    """Ingest seeds ``first..last`` into a :class:`ServeChild` or an
    in-process service; ``[(epoch, ack), ...]``, a refusal raises."""
    return [
        target.ingest_with_ack(graph, seed=seed)
        for seed in range(first, last + 1)
    ]


def _await(predicate, timeout: float, what: str):
    """Poll ``predicate`` until it returns something truthy (returned),
    or raise :class:`CrashDrillError` naming ``what`` after ``timeout``."""
    deadline = time.monotonic() + timeout
    while not (value := predicate()):
        if time.monotonic() >= deadline:
            raise CrashDrillError(f"timed out after {timeout:.0f}s: {what}")
        time.sleep(0.01)
    return value


def _reference_summaries(
    graph: str, scale: str, n_snapshots: int, deltas, algos, source: int,
    window: tuple[int, int] | None = None,
) -> dict[str, list]:
    """From-scratch digests per algorithm over the base scenario advanced
    through ``deltas``: each a :class:`~repro.service.ingest.DeltaBatch`,
    or the seed a seeded ingest draws its delta from.  With ``window``,
    over that sub-window's own scenario (``window_scenario``)."""
    from repro.core.multi_query import evaluate_multi_query
    from repro.evolving.window import window_scenario
    from repro.experiments.runner import scenario_cache
    from repro.service.ingest import DeltaBatch, apply_delta, synthesize_delta
    from repro.service.pool import _summarize

    scenario = scenario_cache(graph, scale, n_snapshots=n_snapshots)
    for delta in deltas:
        if not isinstance(delta, DeltaBatch):
            delta = synthesize_delta(scenario, seed=delta)
        scenario = apply_delta(scenario, delta)
    if window is not None:
        scenario = window_scenario(scenario, *window)
    out = {}
    for algo_name in algos:
        algorithm = get_algorithm(algo_name)
        mq = evaluate_multi_query(scenario, algorithm, [source])
        out[algo_name] = [
            s.as_dict()
            for s in _summarize(algorithm, mq.matrix(), scenario.n_snapshots)[0]
        ]
    return out


def _digests_match(got: list[dict], want: list[dict]) -> bool:
    return len(got) == len(want) and all(
        g["snapshot"] == w["snapshot"] and g["reached"] == w["reached"]
        and abs(g["checksum"] - w["checksum"])
        <= 1e-6 * max(1.0, abs(w["checksum"]))
        for g, w in zip(got, want)
    )


def _parity(query, setup: _Setup, epoch: int) -> dict[str, bool]:
    """``parity:<algo>`` checks: each answer is served at ``epoch`` and
    equals from-scratch evaluation of the seeded chain ``1..epoch`` (an
    uninterrupted replay: what a crash-free run would serve);
    ``query(algo) -> (ok, epoch, summaries)``."""
    reference = _reference_summaries(
        setup.graph, setup.scale, setup.n_snapshots, range(1, epoch + 1),
        setup.algos, setup.source,
    )
    checks = {}
    for algo in setup.algos:
        ok, served_at, summaries = query(algo)
        checks[f"parity:{algo}"] = bool(
            ok and served_at == epoch
            and _digests_match(summaries, reference[algo])
        )
    return checks


def _stdio_query(child: ServeChild, setup: _Setup):
    def query(algo: str):
        resp = child.request(setup.query_op(algo))
        return (resp.get("ok"), int(resp.get("epoch", -1)),
                resp.get("snapshots", []))
    return query


def _service_query(service, setup: _Setup):
    from repro.service.request import QueryRequest

    def query(algo: str):
        resp = service.submit(
            QueryRequest(graph=setup.graph, algo=algo, source=setup.source)
        ).wait(timeout=OP_TIMEOUT_S)
        if resp is None:
            return False, -1, []
        return resp.ok, resp.epoch, [s.as_dict() for s in resp.summaries]
    return query


# -- the four drills ---------------------------------------------------------


def run_crash_drill(
    wal_dir: str,
    crash_at_epoch: int = 2,
    graph: str = "PK",
    scale: str = "tiny",
    n_snapshots: int = 4,
    workers: int = 1,
    algos: list[str] | None = None,
    source: int = 1,
    slide_every: int = 0,
) -> DrillReport:
    """SIGKILL a serving process after ``crash_at_epoch`` acknowledged
    ingests, restart it on the same WAL, and check loss + parity.  With
    ``slide_every`` the kill can land after a slide compaction."""
    setup = _Setup("crash", crash_at_epoch, wal_dir, graph, scale,
                   n_snapshots, workers, algos, source, slide_every)
    with ServeChild(setup.serve_args()) as victim:
        _warm(victim, setup)
        acked = _ingest_chain(victim, graph, 1, crash_at_epoch)[-1][0]
        # leaving the block SIGKILLs right after the last ack: anything
        # acknowledged must survive, nothing unacknowledged is in flight
    stranded = len(list_orphan_segments())

    with ServeChild(setup.serve_args()) as survivor:
        health = survivor.health()
        recovered = int(health.get("epochs", {}).get(graph, 0))
        checks = {
            "no_acked_loss": recovered == acked,
            **_parity(_stdio_query(survivor, setup), setup, recovered),
        }
        survivor.shutdown()
    return setup.report({
        "acked_epoch": acked,
        "recovered_epoch": recovered,
        "lost_deltas": max(0, acked - recovered),
        "wal_recovery": health.get("wal", {}).get("recovery", {}),
    }, checks, stranded)


def run_failover_drill(
    wal_dir: str,
    failover_at_epoch: int = 3,
    graph: str = "PK",
    scale: str = "tiny",
    n_snapshots: int = 4,
    workers: int = 1,
    algos: list[str] | None = None,
    source: int = 1,
    slide_every: int = 0,
    post_promote_ingests: int = 2,
    catchup_timeout_s: float = 60.0,
) -> DrillReport:
    """Kill the serving primary once an in-process
    :class:`~repro.service.replica.ReplicaServer` tailing its WAL has
    every acknowledged epoch, promote the replica, append as the dead
    primary's zombie, ingest ``post_promote_ingests`` more epochs on the
    new primary, and check loss, fencing and parity.  With
    ``slide_every`` a checkpoint among those ingests compacts the
    zombie's segment away, so recovery counts the fenced record first."""
    from repro.service.replica import ReplicaServer
    from repro.service.wal import (
        WriteAheadLog,
        current_fence_token,
        read_from,
        recover_wal,
    )

    setup = _Setup("failover", failover_at_epoch, wal_dir, graph, scale,
                   n_snapshots, workers, algos, source, slide_every)
    with ExitStack() as stack:
        primary = stack.enter_context(ServeChild(setup.serve_args()))
        _warm(primary, setup)
        old_token = current_fence_token(wal_dir)
        replica = stack.enter_context(ReplicaServer(
            wal_dir, setup.config(), follower_id="drill-follower"
        ))
        acked = _ingest_chain(primary, graph, 1, failover_at_epoch)[-1][0]
        _await(lambda: replica.service.epoch(graph) >= acked,
               catchup_timeout_s, f"follower catch-up to epoch {acked}")
        # replication must have been *observable* before the kill
        replication = {
            "followers_seen_by_primary": list(
                primary.health().get("followers", {})
            ),
            "follower_health": replica.health(),
        }
        primary.kill()
        stranded = len(list_orphan_segments())

        new_token = replica.promote()
        promoted_epoch = replica.service.epoch(graph)
        # the ghost's stale-token append: skipped by every read and
        # quarantined by recovery, counted here before a checkpoint
        # among the next ingests compacts its segment away
        zombie = WriteAheadLog(wal_dir, fence_token=old_token)
        zombie.append({
            "op": "ingest", "graph": graph, "epoch": promoted_epoch + 1,
            "delta": {"adds": [[0, 1, 1.0]], "dels": []},
        })
        zombie.close()
        zombie_fenced = (read_from(wal_dir).fenced >= 1
                         and recover_wal(wal_dir).fenced >= 1)

        chain = _ingest_chain(replica.service, graph, acked + 1,
                              acked + post_promote_ingests)
        final_epoch = chain[-1][0] if chain else promoted_epoch
        epoch_after_zombie = replica.service.epoch(graph)
        parity = _parity(
            _service_query(replica.service, setup), setup, final_epoch
        )
        replication["promoted_health"] = replica.health()

    replication["final_recovery"] = recover_wal(wal_dir).summary()
    return setup.report({
        "acked_epoch": acked,
        "promoted_epoch": promoted_epoch,
        "lost_deltas": max(0, acked - promoted_epoch),
        "post_promote_ingests": post_promote_ingests,
        "final_epoch": final_epoch,
        "epoch_after_zombie": epoch_after_zombie,
        "old_fence_token": old_token,
        "new_fence_token": new_token,
        "replication": replication,
    }, {
        "no_acked_loss": promoted_epoch == acked,
        "fence_advanced": new_token > old_token,
        "zombie_fenced": zombie_fenced,
        "new_primary_ingests": final_epoch == acked + post_promote_ingests,
        "zombie_not_applied": epoch_after_zombie == final_epoch,
        **parity,
    }, stranded)


def run_chaos_kill_drill(
    wal_dir: str,
    cluster: int = 3,
    kill_at_epoch: int = 3,
    graph: str = "PK",
    scale: str = "tiny",
    n_snapshots: int = 4,
    workers: int = 1,
    algos: list[str] | None = None,
    source: int = 1,
    slide_every: int = 0,
    heartbeat_interval_s: float = 0.1,
    load_duration_s: float = 15.0,
    election_timeout_s: float = 60.0,
    catchup_timeout_s: float = 60.0,
) -> DrillReport:
    """SIGKILL the primary of a ``quorum:1`` cluster (a ``serve
    --cluster N`` child plus ``N - 1`` in-process
    :class:`~repro.service.cluster.ClusterNode` followers) under live
    load, and let the cluster heal itself — **nothing here calls
    promote()**.  Phase 1 ingests ``kill_at_epoch`` quorum-acked epochs;
    phase 2 starts a redirect-following writer and kills the child once
    its epochs replicate; phase 3 only watches the election, the writer's
    failover and the survivor's re-target.  With ``slide_every`` the
    followers re-sync from slide compactions as they tail.
    """
    from repro.service.cluster import ClusterNode
    from repro.service.loadgen import DRAIN_TIMEOUT_S, LoadSpec, run_load
    from repro.service.replica import ReplicaServer
    from repro.service.wal import current_fence_token, recover_wal

    if cluster < 2:
        raise ValueError("the chaos drill needs a cluster of >= 2 nodes")
    setup = _Setup("chaos", kill_at_epoch, wal_dir, graph, scale,
                   n_snapshots, workers, algos, source, slide_every)
    with ExitStack() as stack:
        primary = stack.enter_context(ServeChild(setup.serve_args(
            "--cluster", str(cluster),
            "--node-id", "node-0",
            "--ack-mode", "quorum:1",
            "--quorum-timeout", "30",
            "--heartbeat-interval", str(heartbeat_interval_s),
        )))
        _warm(primary, setup)
        old_token = current_fence_token(wal_dir)
        nodes = [
            stack.enter_context(ClusterNode(
                wal_dir, f"node-{i}",
                replica=ReplicaServer(
                    wal_dir,
                    setup.config(ack_mode="quorum:1", quorum_timeout_s=30.0),
                    follower_id=f"node-{i}",
                ),
                cluster_size=cluster,
                heartbeat_interval_s=heartbeat_interval_s,
            ))
            for i in range(1, cluster)
        ]
        for node in nodes:  # unwinds first: no tick runs during teardown
            stack.callback(node.stop)

        def epochs() -> list[int]:
            return [n.service.epoch(graph) for n in nodes]

        # phase 1: without live replication the kill's premise is void
        acks = _ingest_chain(primary, graph, 1, kill_at_epoch)
        if any(ack.get("mode") != "quorum" for _, ack in acks):
            raise CrashDrillError(f"expected quorum acks, got {acks}")
        degraded_acks = sum(bool(ack.get("degraded")) for _, ack in acks)
        quorum_acked = max(
            (epoch for epoch, ack in acks if not ack.get("degraded")),
            default=0,
        )
        _await(lambda: min(epochs()) >= kill_at_epoch, catchup_timeout_s,
               "followers catch up to the phase-1 epochs")

        # phase 2: the writer prefers an elected in-process primary and
        # falls back to the live child; the most caught-up follower's
        # epoch at the kill bounds every quorum:1-acked epoch
        def resolve():
            for node in nodes:
                if node.role == "primary":
                    return node.service
            return primary if primary.alive else None

        spec = LoadSpec(
            duration_s=load_duration_s, rate_qps=5.0,
            seed=kill_at_epoch,  # the writer continues the seeded chain
            graphs=(graph,), algos=(setup.algos[0],),
            ingest_every_s=0.2, max_retries=3,
        )
        load_box: dict = {}

        def load() -> None:
            try:
                load_box["report"] = run_load(
                    nodes[0].service, spec, resolve_primary=resolve
                )
            except Exception as exc:  # noqa: BLE001 - reported below
                load_box["error"] = exc

        load_thread = threading.Thread(target=load, name="chaos-load",
                                       daemon=True)
        load_thread.start()

        def replicating() -> bool:
            if "error" in load_box:
                raise CrashDrillError(
                    f"load failed before the kill: {load_box['error']!r}"
                )
            return max(epochs()) > kill_at_epoch

        _await(replicating, catchup_timeout_s,
               "the writer's ingests replicate before the kill")
        quorum_floor = max(epochs())
        primary.kill()
        kill_t = time.monotonic()
        stranded = len(list_orphan_segments())

        # phase 3: unattended election — the drill only watches
        elected = _await(
            lambda: next((n for n in nodes if n.role == "primary"), None),
            election_timeout_s, "a follower elects itself",
        )
        election_s = time.monotonic() - kill_t
        elected_epoch = elected.service.epoch(graph)
        new_token = current_fence_token(wal_dir)
        load_thread.join(
            timeout=load_duration_s + DRAIN_TIMEOUT_S + 120.0
        )
        if load_thread.is_alive():
            raise CrashDrillError("load generator wedged after the election")
        final_epoch = elected.service.epoch(graph)

        # with two nodes the elected one is its own survivor
        survivor = next((n for n in nodes if n is not elected), elected)

        def retargeted() -> bool:
            return (survivor.service.epoch(graph) == final_epoch
                    and survivor.primary_node_id == elected.node_id)

        try:
            survivor_ok = _await(retargeted, catchup_timeout_s,
                                 "the survivor re-targets the new primary")
        except CrashDrillError:
            survivor_ok = False  # reported as a failed check
        survivor_facts = {
            "survivor_node": "" if survivor is elected else survivor.node_id,
            "survivor_epoch": survivor.service.epoch(graph),
            "survivor_primary_view": survivor.primary_node_id or "",
        }
        parity = _parity(
            _service_query(elected.service, setup), setup, final_epoch
        )
        cluster_health = elected.health()

    cluster_health["final_recovery"] = recover_wal(wal_dir).summary()
    bench = load_box.get("report")
    results = bench.results if bench is not None else {}
    facts = {
        "cluster": cluster,
        "quorum_acked_epoch": quorum_acked,
        "degraded_acks": degraded_acks,
        "quorum_floor": quorum_floor,
        "lost_quorum_acked": max(0, quorum_floor - elected_epoch),
        "elected_node": elected.node_id,
        "election_s": round(election_s, 3),
        "elected_epoch": elected_epoch,
        "old_fence_token": old_token,
        "new_fence_token": new_token,
        "final_epoch": final_epoch,
        "post_kill_ingests": max(0, final_epoch - quorum_floor),
        "failovers": int(results.get("failovers", 0)),
        "redirects": int(results.get("redirects", 0)),
        "load_degraded": bench is None or bench.degraded,
        **survivor_facts,
        "cluster_health": cluster_health,
    }
    return setup.report(facts, {
        "no_acked_loss": facts["lost_quorum_acked"] == 0,
        "no_degraded_acks": degraded_acks == 0,
        "fence_advanced": new_token > old_token,
        "writer_failed_over": facts["failovers"] >= 1,
        "post_kill_progress": facts["post_kill_ingests"] >= 1,
        "load_clean": not facts["load_degraded"],
        "survivor_retargeted": survivor_ok,
        **parity,
    }, stranded)
