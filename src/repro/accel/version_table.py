"""Hardware version table (paper §4.3).

"MEGA's computation scheduler includes a hardware version table: a
look-up-table containing information about the composition of different
snapshots and their processing status."  Entries track which batches each
snapshot's state currently includes and whether a batch execution is
pending, active, or complete; the table is what lets snapshots ``0..i``
alias the shared chain state until they peel off.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.evolving.batches import BatchId
from repro.resilience import faults
from repro.schedule.plan import ApplyEdges, CopyState

__all__ = ["BatchStatus", "VersionEntry", "VersionTable"]


class BatchStatus(enum.Enum):
    PENDING = "pending"
    ACTIVE = "active"
    COMPLETE = "complete"


@dataclass
class VersionEntry:
    """Composition and status of one snapshot's value state."""

    snapshot: int
    #: batches already applied to this snapshot's state
    applied: set[BatchId] = field(default_factory=set)
    #: state id this snapshot aliases (chain sharing); None = own state
    alias_of: int | None = None
    complete: bool = False


class VersionTable:
    """Tracks snapshot composition, aliasing, and batch status."""

    def __init__(self, n_snapshots: int) -> None:
        if n_snapshots < 1:
            raise ValueError("need at least one snapshot")
        self.entries = [VersionEntry(k) for k in range(n_snapshots)]
        self.batch_status: dict[BatchId, BatchStatus] = {}
        # Initially every snapshot aliases the chain (state of snapshot 0).
        for e in self.entries[1:]:
            e.alias_of = 0

    @property
    def n_snapshots(self) -> int:
        return len(self.entries)

    def alias_group(self, snapshot: int) -> list[int]:
        """All snapshots sharing the given snapshot's state."""
        root = self.resolve(snapshot)
        return [
            e.snapshot
            for e in self.entries
            if self.resolve(e.snapshot) == root
        ]

    def resolve(self, snapshot: int) -> int:
        """Follow alias links to the owning state."""
        e = self.entries[snapshot]
        seen = set()
        while e.alias_of is not None:
            if e.snapshot in seen:  # pragma: no cover - defensive
                raise RuntimeError("alias cycle in version table")
            seen.add(e.snapshot)
            e = self.entries[e.alias_of]
        return e.snapshot

    def peel(self, snapshot: int) -> None:
        """Give ``snapshot`` its own state (copy-on-diverge)."""
        e = self.entries[snapshot]
        if e.alias_of is None:
            return
        owner = self.entries[self.resolve(snapshot)]
        e.applied = set(owner.applied)
        e.alias_of = None

    def begin_batch(self, batch: BatchId, targets: list[int]) -> None:
        """Mark a batch active on its target snapshots (Step A in Fig. 12)."""
        if self.batch_status.get(batch) is BatchStatus.ACTIVE:
            raise RuntimeError(f"batch {batch} already active")
        for t in targets:
            if self.entries[t].complete:
                raise RuntimeError(f"snapshot {t} already complete")
        self.batch_status[batch] = BatchStatus.ACTIVE

    def finish_batch(self, batch: BatchId, targets: list[int]) -> None:
        """Record batch completion and update target compositions."""
        if self.batch_status.get(batch) is not BatchStatus.ACTIVE:
            raise RuntimeError(f"batch {batch} is not active")
        self.batch_status[batch] = BatchStatus.COMPLETE
        roots = {self.resolve(t) for t in targets}
        for r in roots:
            self.entries[r].applied.add(batch)
        fire = faults.maybe_fire("version-table.corrupt-entry")
        if fire is not None:
            self._corrupt(batch, sorted(roots), fire)

    def record_segment(self, steps: list) -> None:
        """Book one executed plan segment, in step order.

        A ``CopyState`` gives its destination the source's composition
        (executor states are peeled, so no alias is followed); an
        ``ApplyEdges`` or ``DeleteEdges`` begins and then finishes each of
        its batches on its targets, with :meth:`begin_batch` and
        :meth:`finish_batch`'s checks, status changes and composition
        updates, and one ``version-table.corrupt-entry`` opportunity per
        finished batch — one call per segment instead of two per batch.
        """
        entries = self.entries
        status = self.batch_status
        for step in steps:
            if isinstance(step, CopyState):
                entries[step.dst].applied = set(entries[step.src].applied)
                continue
            batches = step.batches
            if not batches:
                continue
            targets = (
                step.targets if isinstance(step, ApplyEdges) else (step.state,)
            )
            for batch in batches:
                if status.get(batch) is BatchStatus.ACTIVE:
                    raise RuntimeError(f"batch {batch} already active")
                for t in targets:
                    if entries[t].complete:
                        raise RuntimeError(f"snapshot {t} already complete")
                status[batch] = BatchStatus.ACTIVE
            roots = {self.resolve(t) for t in targets}
            # every batch lands before the first fault opportunity; a
            # corruption touches only its own batch, so the result is
            # finish_batch's, batch after batch
            for r in roots:
                entries[r].applied.update(batches)
            for batch in batches:
                status[batch] = BatchStatus.COMPLETE
                fire = faults.maybe_fire("version-table.corrupt-entry")
                if fire is not None:
                    self._corrupt(batch, sorted(roots), fire)

    def _corrupt(
        self, batch: BatchId, roots: list[int], fire: "faults.Fire"
    ) -> None:
        """Injected fault: damage the composition record just written.

        Either the completion is *lost* (the batch never lands in a target
        entry) or it is *misrouted* (recorded against an unrelated
        snapshot).  Both leave the table claiming a composition that does
        not match the state the datapath actually built.
        """
        root = int(roots[int(fire.rng.integers(len(roots)))])
        others = [e.snapshot for e in self.entries if e.snapshot != root]
        if others and fire.rng.integers(2):
            victim = int(others[int(fire.rng.integers(len(others)))])
            self.entries[victim].applied.add(batch)
            fire.note(mode="misroute", batch=str(batch), entry=victim)
        else:
            self.entries[root].applied.discard(batch)
            fire.note(mode="drop", batch=str(batch), entry=root)

    def composition(self, snapshot: int) -> set[BatchId]:
        return set(self.entries[self.resolve(snapshot)].applied)

    def mark_complete(self, snapshot: int) -> None:
        self.entries[snapshot].complete = True

    def all_complete(self) -> bool:
        return all(e.complete for e in self.entries)
