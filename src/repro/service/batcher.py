"""Admission queue, BOE coalescing rules, and the batcher loop.

The paper's Batch-Oriented Execution applies one delta batch to every
snapshot that needs it; the serving-layer generalization coalesces every
*query* that can share a plan.  Two queries are compatible when they agree
on everything the multi-query plan fixes — graph, algorithm and ingest
epoch — and differ only in source vertex or snapshot
window (:meth:`repro.service.request.QueryRequest.compat_key`): every
plan runs the full window, which holds every sub-window's snapshots, and
each query's window is sliced from its answer on completion.

The batcher dispatches on arrival.  Like BOE, it batches so that a busy
engine shares work, and never holds work back from an idle one: it wakes
when a query is queued and drains the queue at once while the pool has
room for another plan.  While the pool is full, arriving queries wait in
the queue, and the batcher wakes again when a plan completes; everything
that queued up meanwhile coalesces into the next plans, however far
apart it arrived.  The batch size follows pool occupancy, not a clock.
Each group is split into plans of at most ``max_batch`` *distinct*
sources, and duplicate sources within a plan share a single row of the
(query, snapshot) value matrix — the degenerate but common case of many
clients asking the same question.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.obs.trace import QueryTrace
from repro.service.request import QueryRequest, QueryResponse

__all__ = [
    "PendingQuery", "AdmissionQueue", "QueryPath", "coalesce",
    "split_expired",
]

log = logging.getLogger(__name__)


@dataclass
class PendingQuery:
    """A submitted request awaiting its response."""

    request: QueryRequest
    epoch: int
    submitted_at: float = field(default_factory=time.monotonic)
    #: absolute monotonic deadline (from ``request.deadline_s``), or None
    deadline: float | None = None
    #: set once, read by the submitter after ``done`` fires
    response: QueryResponse | None = None
    done: threading.Event = field(default_factory=threading.Event)
    retried: bool = False
    #: span timeline; marked as the query crosses each pipeline stage
    trace: QueryTrace = field(default_factory=QueryTrace)

    def __post_init__(self) -> None:
        if self.deadline is None and self.request.deadline_s is not None:
            self.deadline = self.submitted_at + self.request.deadline_s
        self.trace.mark("admit", self.submitted_at)

    def expired(self, now: float | None = None) -> bool:
        if self.deadline is None:
            return False
        return (now if now is not None else time.monotonic()) >= self.deadline

    def resolve(self, response: QueryResponse) -> None:
        resolved_at = time.monotonic()
        self.trace.mark("resolve", resolved_at)
        response.latency_s = resolved_at - self.submitted_at
        response.stages = self.trace.stage_durations_ms()
        self.response = response
        self.done.set()

    def wait(self, timeout: float | None = None) -> QueryResponse | None:
        self.done.wait(timeout)
        return self.response


def split_expired(
    pending: list[PendingQuery],
) -> tuple[list[PendingQuery], list[PendingQuery]]:
    """Partition a drained batch into (live, deadline-expired) queries.

    Called by the batcher *before* plan construction, so an overloaded
    service sheds stale work instead of executing plans nobody is waiting
    for — the deadline analogue of admission-queue overflow.
    """
    now = time.monotonic()
    live: list[PendingQuery] = []
    expired: list[PendingQuery] = []
    for p in pending:
        (expired if p.expired(now) else live).append(p)
    return live, expired


class AdmissionQueue:
    """Bounded FIFO between submitters and the batcher thread.

    Overflow is *admission control*, not an error path: the service sheds
    load with an immediate ``rejected`` response instead of queueing work
    it cannot finish (the load harness counts these as dropped queries and
    the CLI exits non-zero).
    """

    def __init__(self, max_pending: int = 1024) -> None:
        self.max_pending = int(max_pending)
        #: guards ``_items``; notified by every offer and by :meth:`wake`
        self._ready = threading.Condition()
        self._items: list[PendingQuery] = []

    def offer(self, pending: PendingQuery) -> bool:
        with self._ready:
            if len(self._items) >= self.max_pending:
                return False
            self._items.append(pending)
            self._ready.notify()
            return True

    def drain(self) -> list[PendingQuery]:
        with self._ready:
            items, self._items = self._items, []
            return items

    def take(
        self, has_room: Callable[[], bool], stopped: Callable[[], bool]
    ) -> list[PendingQuery] | None:
        """Block until the queue holds work and ``has_room()``, then drain
        it; None once ``stopped()``.

        Both predicates are evaluated under the queue's lock, so a state
        change its owner makes *before* calling :meth:`wake` is never
        missed.
        """
        with self._ready:
            self._ready.wait_for(
                lambda: stopped() or (bool(self._items) and has_room())
            )
            return None if stopped() else self.drain()

    def wake(self) -> None:
        """Make a blocked :meth:`take` re-check its predicates: call it
        after a plan retires and after the owner stops."""
        with self._ready:
            self._ready.notify_all()

    def __len__(self) -> int:
        with self._ready:
            return len(self._items)


def coalesce(
    pending: list[PendingQuery], max_batch: int
) -> list[list[PendingQuery]]:
    """Group compatible queries, then split into ≤ ``max_batch``-source
    plans (FIFO within a group, so no query starves behind coalescing).

    ``max_batch`` counts *distinct* sources: duplicates ride along free —
    they share one plan row, the query-level analogue of BOE's shared
    batch fetch.
    """
    groups: dict[tuple, list[PendingQuery]] = defaultdict(list)
    for p in pending:
        groups[p.request.compat_key(p.epoch)].append(p)

    plans: list[list[PendingQuery]] = []
    for group in groups.values():
        plan: list[PendingQuery] = []
        sources: set[int] = set()
        for p in group:
            if (
                plan
                and len(sources) >= max_batch
                and p.request.source not in sources
            ):
                plans.append(plan)
                plan, sources = [], set()
            plan.append(p)
            sources.add(p.request.source)
        if plan:
            plans.append(plan)
    return plans


class QueryPath:
    """Admission, the batcher thread and plan accounting: the query side
    of :class:`~repro.service.core.QueryService`.

    A subclass calls :meth:`_init_query_path` from its constructor; sets
    ``config`` (``batching``, ``max_batch``), ``stats`` and ``_latency``
    (the latency histogram); and provides ``retry_after_hint()``,
    ``_plan_slots()`` — how many plans it can hold in flight before one
    would wait behind the others — and ``_dispatch_plan(queries)``, which
    registers the plan in ``_inflight`` and calls :meth:`_retire` once
    it completes or fails.

    Every live query is counted in exactly one of: the admission queue
    plus ``_unplanned`` (accepted, not yet bound to a plan) or
    ``_inflight`` (its plan is) — the invariant :meth:`drain` waits on.
    """

    def _init_query_path(self, max_pending: int) -> None:
        self.queue = AdmissionQueue(max_pending)
        self._inflight: set[int] = set()
        #: guarded by ``_inflight_lock``, with ``_inflight``
        self._unplanned = 0
        self._inflight_lock = threading.Lock()
        self._running = False
        self._thread: threading.Thread | None = None

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _start_batcher(self, name: str) -> None:
        self._running = True
        self._thread = threading.Thread(
            target=self._batch_loop, name=name, daemon=True
        )
        self._thread.start()

    def _stop_batcher(self, drain: bool, timeout: float) -> bool:
        """Optionally drain, then stop the batcher thread; returns whether
        the drain finished (a timeout is logged and counted)."""
        drained = not drain or self.drain(timeout)
        if not drained:
            self.stats.inc("drain_timeouts")
            log.warning(
                "%s drain timed out after %.1fs "
                "(queue=%d unplanned=%d inflight=%d); stopping anyway",
                type(self).__name__, timeout, len(self.queue),
                self._unplanned, len(self._inflight),
            )
        self._running = False
        self.queue.wake()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        return drained

    def drain(self, timeout: float = 60.0) -> bool:
        """Block until no query is queued, held by the batcher, or in
        flight.

        The accepted-but-unplanned count covers the window where the
        batcher has drained the admission queue but not yet dispatched
        plans; without it, ``stop(drain=True)`` could observe an empty
        queue and empty in-flight set and shut the pool down under
        queries it had acknowledged.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._inflight_lock:
                busy = bool(self._inflight) or self._unplanned > 0
            if not busy and len(self.queue) == 0:
                return True
            time.sleep(0.01)
        return False

    def _finish(self, pending: PendingQuery, response: QueryResponse) -> None:
        """Resolve + record: every terminal response lands here, so the
        latency histogram sees cache hits and sheds, not just plans."""
        pending.resolve(response)
        self._latency.observe(pending.response.latency_s)

    def _enqueue(self, pending: PendingQuery) -> None:
        """Hand a query to the batcher, or reject it with a backoff hint
        when the admission queue is full."""
        # count as unplanned *before* offering: once the query is visible
        # in the queue it must already be covered by the drain invariant
        with self._inflight_lock:
            self._unplanned += 1
        if self.queue.offer(pending):
            return
        with self._inflight_lock:
            self._unplanned -= 1
        self.stats.inc("rejected")
        self._finish(
            pending,
            QueryResponse(
                pending.request.id,
                "rejected",
                epoch=pending.epoch,
                error="admission queue full (load shed)",
                retry_after=self.retry_after_hint(),
            ),
        )

    def _shed(self, pending: PendingQuery) -> None:
        """Deadline expired before execution: shed with a backoff hint."""
        with self._inflight_lock:
            self._unplanned -= 1
        self.stats.inc("shed")
        self._finish(
            pending,
            QueryResponse(
                pending.request.id,
                "shed",
                epoch=pending.epoch,
                error="deadline expired before execution (load shed)",
                retry_after=self.retry_after_hint(),
            ),
        )

    def _retire(self, plan_id: int) -> None:
        """A plan left the pool: free its slot and wake the batcher, which
        may be holding queued queries until there is room."""
        with self._inflight_lock:
            self._inflight.discard(plan_id)
        self.queue.wake()

    def _has_room(self) -> bool:
        # no _inflight_lock: len() of a set is atomic, and every change
        # to the set that frees a slot is followed by a wake (_retire)
        return len(self._inflight) < self._plan_slots()

    def _stopped(self) -> bool:
        return not self._running

    def _batch_loop(self) -> None:
        """The batcher thread: take → shed expired → coalesce → dispatch.
        With ``config.batching`` off every query is its own plan (the
        no-sharing baseline)."""
        take = self.queue.take
        while (pending := take(self._has_room, self._stopped)) is not None:
            drained_at = time.monotonic()
            for p in pending:
                p.trace.mark("queue_drain", drained_at)
            pending, expired = split_expired(pending)
            for p in expired:
                self._shed(p)
            if self.config.batching:
                plans = coalesce(pending, self.config.max_batch)
            else:
                plans = [[p] for p in pending]
            coalesced_at = time.monotonic()
            for plan in plans:
                for p in plan:
                    p.trace.mark("coalesce", coalesced_at)
                self._dispatch_plan(plan)
