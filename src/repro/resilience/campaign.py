"""Fault-injection campaigns: inject, detect, recover, summarize.

A campaign arms each registered fault point in turn, runs the workload
with the fault live, and classifies the outcome:

* **detected** — validation (independent reference per snapshot, version
  table cross-check, or a budget watchdog) rejected the corrupted run;
* **recovered** — the rejected state was repaired by recomputing from the
  common graph / the immutable plan, and the repair re-validated;
* **masked** — the fault fired but the datapath absorbed it (e.g. a
  duplicated event coalesced away) and the full-state check confirms the
  output is still exactly right;
* **escaped** — the fault fired, validation passed, and the output is
  wrong.  The acceptance bar for the harness is **zero** escapes.

Trials are seeded and deterministic: the same (scenario, algorithm, seed)
reproduces the same corruptions and the same verdicts.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.base import Algorithm
from repro.engines.executor import PlanExecutor
from repro.engines.validation import evaluate_reference
from repro.evolving.snapshots import EvolvingScenario
from repro.resilience import faults
from repro.resilience.budget import Budget, BudgetExceeded
from repro.resilience.recovery import (
    detect_and_recover,
    eventlevel_recompute_from_common,
    record_version_table,
)
from repro.schedule import boe_plan

__all__ = ["CampaignResult", "TrialOutcome", "run_campaign", "run_trial"]

#: fault points exercised on the per-event simulator rather than the
#: plan executor
EVENTSIM_POINTS = ("eventsim.drop-event", "eventsim.duplicate-event")

#: fault points that live in the serving layer (repro.service.pool);
#: their workload is a tiny end-to-end service burst, not the executor
SERVICE_POINTS = ("service.worker-fault", "service.plan-poison")

#: fault points in the durable-ingest path (repro.service.wal / core);
#: their workload is a WAL write-crash-recover cycle on a temp directory
WAL_POINTS = (
    "service.wal-torn-write",
    "service.wal-corrupt-record",
    "service.crash-on-ingest",
)

#: fault points inside the replica tailer (repro.service.replica); their
#: workload is a primary + follower pair replicating over a temp WAL dir
REPLICA_POINTS = ("replica.stale-read", "replica.tail-gap")

#: fault points in the cluster supervisor (repro.service.cluster); their
#: workload is a manually-ticked primary + follower group on an injected
#: clock, so suspicion and election rounds are deterministic
CLUSTER_POINTS = ("cluster.heartbeat-drop", "cluster.split-fence")

#: default watchdog for campaign trials — generous for the workloads the
#: campaign runs, tight enough that a corrupted stream cannot hang it
TRIAL_BUDGET = Budget(max_rounds=200_000, max_events=20_000_000,
                      wall_clock_s=120.0)


@dataclass
class TrialOutcome:
    """Verdict of one armed fault point."""

    point: str
    injected: bool
    detected: bool
    recovered: bool
    masked: bool
    escaped: bool
    elapsed: float
    detail: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        if not self.injected:
            return "not-triggered"
        if self.escaped:
            return "ESCAPED"
        if self.detected:
            return "recovered" if self.recovered else "detected-only"
        return "masked"


@dataclass
class CampaignResult:
    """All trial verdicts plus the aggregate counts."""

    scenario: str
    algorithm: str
    seed: int
    trials: list[TrialOutcome] = field(default_factory=list)

    def count(self, attr: str) -> int:
        return sum(1 for t in self.trials if getattr(t, attr))

    @property
    def injected(self) -> int:
        return self.count("injected")

    @property
    def detected(self) -> int:
        return self.count("detected")

    @property
    def recovered(self) -> int:
        return self.count("recovered")

    @property
    def masked(self) -> int:
        return self.count("masked")

    @property
    def escaped(self) -> int:
        return self.count("escaped")

    def summary_line(self) -> str:
        return (
            f"injected {self.injected}  detected {self.detected}  "
            f"recovered {self.recovered}  masked {self.masked}  "
            f"escaped {self.escaped}"
        )

    def format_table(self) -> str:
        rows = [("fault point", "site", "verdict", "detail")]
        for t in self.trials:
            spec = faults.FAULT_POINTS[t.point]
            detail = ", ".join(
                f"{k}={v}" for k, v in sorted(t.detail.items())
            )
            rows.append((t.point, spec.site, t.verdict, detail))
        widths = [
            max(len(r[i]) for r in rows) for i in range(3)
        ]
        lines = [
            f"== fault campaign: {self.scenario} / {self.algorithm} "
            f"(seed {self.seed}) =="
        ]
        for i, r in enumerate(rows):
            lines.append(
                "  ".join(c.ljust(w) for c, w in zip(r[:3], widths))
                + ("  " + r[3] if r[3] else "")
            )
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
        lines.append(self.summary_line())
        return "\n".join(lines)


def _eventsim_trial(
    scenario: EvolvingScenario,
    algorithm: Algorithm,
    plan: faults.FaultPlan,
    budget: Budget,
) -> tuple[bool, bool, dict]:
    """Run the per-event datapath with the fault live on snapshot 0.

    Returns ``(detected, recovered, detail)``.
    """
    from repro.accel.eventsim import EventLevelSimulator

    unified = scenario.unified
    presence = unified.presence_mask(0)
    sim = EventLevelSimulator(algorithm, unified)
    sim.set_graph(0, presence.copy())
    sim.set_source(scenario.source)
    detail: dict = {}
    values = None
    with faults.inject(plan):
        try:
            values = sim.run(budget=budget)[0]
        except BudgetExceeded as exc:
            detail["watchdog"] = exc.resource
    expected = evaluate_reference(scenario, algorithm, 0)
    detected = values is None or not np.allclose(
        values, expected, rtol=1e-9, atol=1e-12, equal_nan=True
    )
    recovered = False
    if detected:
        if values is not None:
            bad = ~np.isclose(
                values, expected, rtol=1e-9, atol=1e-12, equal_nan=True
            )
            detail["corrupted_vertices"] = int(bad.sum())
        repaired = eventlevel_recompute_from_common(
            algorithm, unified, 0, scenario.source, budget=budget
        )
        recovered = bool(
            np.allclose(repaired, expected, rtol=1e-9, atol=1e-12,
                        equal_nan=True)
        )
    return detected, recovered, detail


def _executor_trial(
    scenario: EvolvingScenario,
    algorithm: Algorithm,
    plan: faults.FaultPlan,
    budget: Budget,
) -> tuple[bool, bool, dict]:
    """Run the BOE workflow with the fault live, then detect-and-recover."""
    schedule = boe_plan(scenario.unified)
    detail: dict = {}
    result = None
    with faults.inject(plan):
        try:
            result = PlanExecutor(scenario, algorithm, budget=budget).run(
                schedule
            )
        except BudgetExceeded as exc:
            detail["watchdog"] = exc.resource
        else:
            # a fire draws from (seed, point, opportunity), so where the
            # booking sits in the block does not move what a fault hits
            table = record_version_table(schedule)
    if result is None:
        return True, False, detail
    report = detect_and_recover(
        scenario, algorithm, result, plan=schedule, budget=budget,
        version_table=table,
    )
    if report.corrupted_snapshots:
        detail["corrupted_snapshots"] = report.corrupted_snapshots
    if report.table_corrupt_states:
        detail["table_corrupt_states"] = report.table_corrupt_states
        detail["table_rebuilt"] = report.table_rebuilt
    return report.detected, report.detected and report.ok, detail


def _service_trial(
    point: str, seed: int, budget: Budget
) -> tuple[bool, bool, bool, dict]:
    """Drive a one-worker query-service burst with ``point`` armed.

    The service points fire inside pool workers, so the trial runs the
    real serving path end to end: a transient fault must be recovered by
    the in-worker retry, a poisoned plan must be degraded into singleton
    retries by the coordinator — either way every query must still get
    an ``ok`` response.  Returns ``(injected, detected, recovered,
    detail)``; the injection offset (``skip``) does not apply here — the
    service arms the fault on its first plan.
    """
    from repro.service import QueryRequest, QueryService, ServiceConfig

    config = ServiceConfig(
        scale="tiny",
        n_snapshots=4,
        workers=1,
        inject_fault=(point,),
        fault_seed=seed,
        budget_s=budget.wall_clock_s or 120.0,
    )
    service = QueryService(config)
    handles = [
        service.submit(QueryRequest("PK", "sssp", s)) for s in (1, 2, 3)
    ]
    with service:  # submitted pre-start: one coalesced (armed) plan
        responses = [h.wait(timeout=budget.wall_clock_s or 120.0)
                     for h in handles]
    stats = service.service_stats()
    detail = {
        "faults_recovered": stats["faults_recovered"],
        "plan_retries": stats["retries"],
        "errored": stats["errored"],
    }
    injected = bool(
        stats["faults_recovered"] or stats["retries"] or stats["errored"]
    )
    recovered = injected and all(r is not None and r.ok for r in responses)
    return injected, injected, recovered, detail


def _wal_trial(
    point: str, seed: int, skip: int, budget: Budget
) -> tuple[bool, bool, bool, dict]:
    """Exercise the durable-ingest path with ``point`` armed.

    Each trial is a write → damage → recover cycle on a throwaway WAL
    directory; detection means recovery *noticed* the damage (truncation
    warning, quarantine entry, or surfaced crash) and recovered means no
    acknowledged record was lost and nothing raised out of recovery.
    Returns ``(injected, detected, recovered, detail)``.
    """
    from repro.service.wal import (
        WalWriteError,
        WriteAheadLog,
        recover_wal,
    )

    detail: dict = {}
    with tempfile.TemporaryDirectory(prefix="mega-wal-trial-") as wal_dir:
        if point == "service.crash-on-ingest":
            from repro.service import QueryService, ServiceConfig, SimulatedCrash

            config = ServiceConfig(
                scale="tiny", n_snapshots=4, workers=1,
                wal_dir=wal_dir, inject_fault=(point,), fault_seed=seed,
            )
            service = QueryService(config).start()
            crashed = False
            try:
                try:
                    service.ingest("PK", seed=1)
                except SimulatedCrash:
                    # the record hit the WAL, the ack never went out, and
                    # the in-memory epoch never advanced — worst case
                    crashed = True
                epoch_before_restart = service.epoch("PK")
            finally:
                service.stop(drain=False)
            revived = QueryService(
                ServiceConfig(scale="tiny", n_snapshots=4, workers=1,
                              wal_dir=wal_dir)
            ).start()
            try:
                recovered_epoch = revived.epoch("PK")
            finally:
                revived.stop(drain=False)
            detail = {
                "epoch_at_crash": epoch_before_restart,
                "recovered_epoch": recovered_epoch,
            }
            # the committed-but-unacknowledged delta may legally be
            # replayed; losing it would also be legal, going backwards not
            recovered = crashed and recovered_epoch >= epoch_before_restart
            return crashed, crashed, recovered, detail

        acknowledged = []
        wal = WriteAheadLog(wal_dir, fsync="always")
        plan = faults.FaultPlan([point], seed=seed, skip=skip)
        with faults.inject(plan):
            for k in range(1, 5):
                record = {"op": "ingest", "graph": "PK", "epoch": k,
                          "delta": {"adds": [[0, k, 1.0]], "dels": []}}
                try:
                    wal.append(record)
                    acknowledged.append(record)
                except WalWriteError:
                    # torn write: the writer "died" before acknowledging
                    pass
        wal.close()
        injected = bool(plan.fired)
        for record in plan.fired:
            detail.update(record.detail)
        recovery = recover_wal(wal_dir)
        detail["warnings"] = len(recovery.warnings)
        detail["quarantined"] = recovery.quarantined
        detected = injected and not recovery.clean
        # zero acknowledged loss is required for torn writes (the torn
        # record was never acknowledged); a corrupted record *was*
        # acknowledged, so recovery must surface exactly that one as
        # quarantined and keep every other acknowledged record
        survivors = [r for r in acknowledged if r in recovery.records]
        if point == "service.wal-torn-write":
            recovered = detected and survivors == acknowledged
        else:
            lost = len(acknowledged) - len(survivors)
            recovered = detected and lost == recovery.quarantined
    return injected, detected, recovered, detail


def _replica_trial(
    point: str, seed: int, skip: int, budget: Budget
) -> tuple[bool, bool, bool, dict]:
    """Drive a primary -> follower replication loop with ``point`` armed.

    A real :class:`~repro.service.replica.ReplicaServer` tails a live
    primary's WAL with the fault plan wired into its poller; the trial
    steps ``poll_once()`` by hand so the injection point is
    deterministic.  A stale read must surface as nonzero replication lag
    before the replica converges; a dropped tail record must trip gap
    detection and force a snapshot re-sync.  Either way the replica must
    end the trial exactly caught up with the primary.  Returns
    ``(injected, detected, recovered, detail)``.
    """
    from repro.service import QueryService, ServiceConfig
    from repro.service.replica import ReplicaServer

    detail: dict = {}
    plan = faults.FaultPlan([point], seed=seed, skip=skip)
    with tempfile.TemporaryDirectory(prefix="mega-replica-trial-") as root:
        wal_dir = f"{root}/wal"
        primary = QueryService(ServiceConfig(
            scale="tiny", n_snapshots=4, workers=1, wal_dir=wal_dir,
        )).start()
        replica = ReplicaServer(
            wal_dir,
            ServiceConfig(scale="tiny", n_snapshots=4, workers=1),
            follower_id="trial-follower",
            fault_hook=plan.maybe_fire,
        )
        detected = False
        try:
            primary.ingest("PK", seed=1)
            replica.start(tail_thread=False)  # initial sync lands epoch 1
            for k in range(2, 2 + max(4, skip + 2)):
                primary.ingest("PK", seed=k)
                replica.poll_once()
                if plan.fired and not detected:
                    # damage is *detected* when it is observable: lag on a
                    # withheld batch, or the forced re-sync after a gap
                    lag = replica.lag_epochs()
                    detected = lag > 0 or replica.resyncs > 1
                    detail["lag_after_fire"] = lag
            # a dropped record needs a successor to trip gap detection;
            # one extra epoch plus drain polls must converge the replica
            primary.ingest("PK", seed=99)
            for _ in range(4):
                replica.poll_once()
            final_lag = replica.lag_epochs()
            detail.update(
                resyncs=replica.resyncs,
                final_lag_epochs=final_lag,
                primary_epoch=primary.epoch("PK"),
                replica_epoch=replica.service.epoch("PK"),
            )
            for record in plan.fired:
                detail.update(record.detail)
            injected = bool(plan.fired)
            recovered = (
                injected and detected and final_lag == 0
                and replica.service.epoch("PK") == primary.epoch("PK")
            )
        finally:
            replica.stop(drain=False)
            primary.stop(drain=False)
    return injected, detected, recovered, detail


def _cluster_trial(
    point: str, seed: int, skip: int, budget: Budget
) -> tuple[bool, bool, bool, dict]:
    """Drive a manually-ticked two-node cluster with ``point`` armed.

    Both members run on a :class:`ManualClock`, so every suspicion value
    and election round is deterministic.  ``cluster.heartbeat-drop``
    eats one primary beacon: the follower's phi must *spike* (detected)
    and the hysteresis must absorb the blip once beacons resume — no
    election, suspicion back down (recovered).  ``cluster.split-fence``
    kills the primary (it simply stops beating) and injects a rival
    fence claim just before the elector's CAS: the elector must lose
    cleanly (detected) and win the *next* token after its election
    grace, promoting with every applied epoch intact (recovered).
    Returns ``(injected, detected, recovered, detail)``.
    """
    from repro.service import QueryService, ServiceConfig
    from repro.service.cluster import ClusterNode, ManualClock
    from repro.service.replica import ReplicaServer

    detail: dict = {}
    interval = 0.1
    clk = ManualClock()
    plan = faults.FaultPlan([point], seed=seed, skip=skip)
    with tempfile.TemporaryDirectory(prefix="mega-cluster-trial-") as root:
        wal_dir = f"{root}/wal"
        primary = QueryService(ServiceConfig(
            scale="tiny", n_snapshots=4, workers=1, wal_dir=wal_dir,
        )).start()
        replica = ReplicaServer(
            wal_dir,
            ServiceConfig(scale="tiny", n_snapshots=4, workers=1),
            follower_id="trial-follower",
        )
        drop = point == "cluster.heartbeat-drop"
        pnode = ClusterNode(
            wal_dir, "trial-primary",
            service=primary,
            cluster_size=2,
            heartbeat_interval_s=interval,
            clock=clk.now,
        )
        fnode = ClusterNode(
            wal_dir, "trial-follower",
            replica=replica,
            cluster_size=2,
            heartbeat_interval_s=interval,
            fault_hook=None if drop else plan.maybe_fire,
            clock=clk.now,
        )
        detected = recovered = False
        try:
            primary.ingest("PK", seed=1)
            primary.ingest("PK", seed=2)
            replica.start(tail_thread=False)
            # priming rounds: the follower's EWMA learns the cadence and
            # both sides see each other's beacons
            for _ in range(6):
                pnode.tick()
                clk.advance(interval)
                fnode.tick()
                replica.poll_once()
            if drop:
                # arm only after priming: the drop must land on a beat
                # the follower's learned cadence actually expects
                pnode._fault_hook = plan.maybe_fire
                injected, detected, recovered = _heartbeat_drop_rounds(
                    plan, pnode, fnode, clk, interval, skip, detail
                )
                detail["primary_role"] = primary.role
            else:
                injected, detected, recovered = _split_fence_rounds(
                    plan, pnode, fnode, clk, interval, detail
                )
                detail["replica_epoch"] = replica.service.epoch("PK")
                detail["primary_epoch"] = primary.epoch("PK")
                recovered = recovered and (
                    replica.service.epoch("PK") == primary.epoch("PK")
                )
            for record in plan.fired:
                detail.update(record.detail)
        finally:
            replica.stop(drain=False)
            primary.stop(drain=False)
    return injected, detected, recovered, detail


def _heartbeat_drop_rounds(
    plan, pnode, fnode, clk, interval: float, skip: int, detail: dict
) -> tuple[bool, bool, bool]:
    """Tick until the drop fires; assert spike-then-hysteresis."""
    for _ in range(skip + 8):
        pnode.tick()
        if plan.fired:
            break
        clk.advance(interval)
        fnode.tick()
    if not plan.fired:
        return False, False, False
    # the eaten beat leaves a two-interval beacon gap: the follower's
    # next observation lands near the end of it and phi must spike
    clk.advance(interval * 1.9)
    fnode.tick()
    spike = fnode.monitor.suspicion("trial-primary")
    detected = spike > 1.5
    # beacons resume; the blip must be absorbed, never escalated
    clk.advance(interval * 0.1)
    for _ in range(6):
        pnode.tick()
        clk.advance(interval)
        fnode.tick()
    calm = fnode.monitor.suspicion("trial-primary")
    detail.update(
        suspicion_spike=round(spike, 3),
        suspicion_after=round(calm, 3),
        elections=fnode.elections,
        heartbeats_dropped=pnode.heartbeats_dropped,
    )
    recovered = (
        detected
        and calm < spike
        and not fnode.monitor.suspects()
        and fnode.elections == 0
        and pnode.role == "primary"
    )
    return True, detected, recovered


def _split_fence_rounds(
    plan, pnode, fnode, clk, interval: float, detail: dict
) -> tuple[bool, bool, bool]:
    """Primary goes dark; the elector must survive a burned CAS round."""
    actions: list[str] = []
    for _ in range(120):
        clk.advance(interval)
        actions.append(fnode.tick())
        if actions[-1] == "promoted":
            break
    detail.update(
        actions={a: actions.count(a) for a in sorted(set(actions))},
        claims_lost=fnode.claims_lost,
        elections=fnode.elections,
        fence_token=fnode.replica.service._fencing_token()
        if fnode.replica is not None else None,
    )
    injected = bool(plan.fired)
    detected = injected and "claim-lost" in actions
    recovered = (
        detected
        and "promoted" in actions
        and fnode.role == "primary"
        and fnode.elections == 1
    )
    return injected, detected, recovered


def run_trial(
    scenario: EvolvingScenario,
    algorithm: Algorithm,
    point: str,
    seed: int = 0,
    skip: int = 0,
    budget: Budget | None = None,
) -> TrialOutcome:
    """Arm one fault point, run the workload, classify the outcome."""
    if point not in faults.FAULT_POINTS:
        raise KeyError(
            f"unknown fault point {point!r}; choose from "
            f"{sorted(faults.FAULT_POINTS)}"
        )
    budget = budget if budget is not None else TRIAL_BUDGET
    if point in WAL_POINTS:
        t0 = time.perf_counter()
        injected, detected, recovered, detail = _wal_trial(
            point, seed, skip, budget
        )
        return TrialOutcome(
            point=point,
            injected=injected,
            detected=detected,
            recovered=recovered,
            masked=False,
            escaped=False,
            elapsed=time.perf_counter() - t0,
            detail=detail,
        )
    if point in CLUSTER_POINTS:
        t0 = time.perf_counter()
        injected, detected, recovered, detail = _cluster_trial(
            point, seed, skip, budget
        )
        return TrialOutcome(
            point=point,
            injected=injected,
            detected=detected,
            recovered=recovered,
            masked=False,
            escaped=False,
            elapsed=time.perf_counter() - t0,
            detail=detail,
        )
    if point in REPLICA_POINTS:
        t0 = time.perf_counter()
        injected, detected, recovered, detail = _replica_trial(
            point, seed, skip, budget
        )
        return TrialOutcome(
            point=point,
            injected=injected,
            detected=detected,
            recovered=recovered,
            masked=False,
            escaped=False,
            elapsed=time.perf_counter() - t0,
            detail=detail,
        )
    if point in SERVICE_POINTS:
        t0 = time.perf_counter()
        injected, detected, recovered, detail = _service_trial(
            point, seed, budget
        )
        return TrialOutcome(
            point=point,
            injected=injected,
            detected=detected,
            recovered=recovered,
            masked=False,
            escaped=False,
            elapsed=time.perf_counter() - t0,
            detail=detail,
        )
    plan = faults.FaultPlan([point], seed=seed, skip=skip)
    t0 = time.perf_counter()
    if point in EVENTSIM_POINTS:
        detected, recovered, detail = _eventsim_trial(
            scenario, algorithm, plan, budget
        )
    else:
        detected, recovered, detail = _executor_trial(
            scenario, algorithm, plan, budget
        )
    elapsed = time.perf_counter() - t0
    injected = bool(plan.fired)
    for record in plan.fired:
        detail.update(record.detail)
    # Detection is a full-state comparison against an independent
    # reference, so "not detected" certifies the output is exactly right:
    # the fault was absorbed, not missed.  An escape would require the
    # validation itself to pass on wrong values.
    masked = injected and not detected
    escaped = False
    return TrialOutcome(
        point=point,
        injected=injected,
        detected=injected and detected,
        recovered=injected and recovered,
        masked=masked,
        escaped=escaped,
        elapsed=elapsed,
        detail=detail,
    )


def run_campaign(
    scenario: EvolvingScenario,
    algorithm: Algorithm,
    points: list[str] | None = None,
    seed: int = 0,
    budget: Budget | None = None,
) -> CampaignResult:
    """One trial per fault point; retries with ``skip=0`` if a late
    injection offset never triggered the site."""
    if points is None:
        # the serving layer registers its points on import (pool, WAL,
        # ingest); pull the package in so a default campaign drills the
        # whole surface
        import repro.service  # noqa: F401

    names = sorted(faults.FAULT_POINTS) if points is None else list(points)
    rng = np.random.default_rng(seed)
    out = CampaignResult(scenario.name, algorithm.name, seed)
    for point in names:
        skip = int(rng.integers(0, 6))
        outcome = run_trial(
            scenario, algorithm, point, seed=seed, skip=skip, budget=budget
        )
        if not outcome.injected and skip:
            outcome = run_trial(
                scenario, algorithm, point, seed=seed, skip=0, budget=budget
            )
        out.trials.append(outcome)
    return out
