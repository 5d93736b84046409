"""Seeded fault injection for the simulation datapath.

The paper's premise — CommonGraph + BOE make recomputation cheap enough to
re-derive any snapshot from shared state — is exactly the property a
recovery path should exploit, and the way to *prove* it is systematic fault
injection: corrupt the datapath at a named point, check that validation
catches the damage, and repair by recomputing from ``G_c``.

This module provides the registry of named fault points and the seeded
:class:`FaultPlan` that arms them.  Instrumented sites (the event
simulator, the plan executor, the version table) call :func:`maybe_fire`
at each corruption opportunity; when no plan is active the call is a cheap
``None`` check, so production runs pay nothing.

Usage::

    plan = FaultPlan(["eventsim.drop-event"], seed=7)
    with inject(plan):
        sim.run()            # the armed site misbehaves once
    assert plan.fired        # what was corrupted, and where
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

__all__ = [
    "FAULT_POINTS",
    "FaultPoint",
    "FaultPlan",
    "Fire",
    "FaultRecord",
    "armed",
    "inject",
    "maybe_fire",
    "register_fault_point",
]


@dataclass(frozen=True)
class FaultPoint:
    """A named site in the datapath where a fault can be injected."""

    name: str
    site: str
    description: str


#: registry: fault-point name -> specification
FAULT_POINTS: dict[str, FaultPoint] = {}


def register_fault_point(name: str, site: str, description: str) -> FaultPoint:
    """Register a named fault point (idempotent for identical specs)."""
    point = FaultPoint(name, site, description)
    existing = FAULT_POINTS.get(name)
    if existing is not None and existing != point:
        raise ValueError(f"fault point {name!r} already registered differently")
    FAULT_POINTS[name] = point
    return point


# The canonical fault points of the datapath.  Sites are repo-relative
# module paths under src/repro/.
register_fault_point(
    "eventsim.drop-event",
    "accel/eventsim.py",
    "an inserted event is silently discarded before reaching the queue",
)
register_fault_point(
    "eventsim.duplicate-event",
    "accel/eventsim.py",
    "an inserted event is delivered twice (queue coalescing must absorb it)",
)
register_fault_point(
    "version-table.corrupt-entry",
    "accel/version_table.py",
    "a version-table entry's applied-batch composition is corrupted",
)
register_fault_point(
    "executor.bitflip-value",
    "engines/executor.py",
    "one vertex value suffers a bit flip as a snapshot is marked final",
)
register_fault_point(
    "schedule.truncate-batch",
    "engines/executor.py",
    "an ApplyEdges batch is truncated in delivery (tail edges lost)",
)


@dataclass
class FaultRecord:
    """One fault that actually fired: where, plus site-supplied detail."""

    point: str
    detail: dict = field(default_factory=dict)


class Fire:
    """Handle given to a site when its fault point fires.

    ``rng`` lets the site pick *what* to corrupt deterministically;
    :meth:`note` records what it did for the campaign report.
    """

    def __init__(self, record: FaultRecord, rng: np.random.Generator) -> None:
        self._record = record
        self.rng = rng

    def note(self, **detail) -> None:
        self._record.detail.update(detail)


class FaultPlan:
    """A seeded plan of which fault points fire, and when.

    Each armed point counts its *opportunities* (calls to
    :func:`maybe_fire`); it fires on the ``skip``-th opportunity and then
    at most ``max_fires`` times total.  Everything downstream of the seed
    is deterministic, so a campaign trial is exactly reproducible.
    """

    def __init__(
        self,
        points: list[str] | tuple[str, ...],
        seed: int = 0,
        skip: int = 0,
        max_fires: int = 1,
    ) -> None:
        for p in points:
            if p not in FAULT_POINTS:
                raise KeyError(
                    f"unknown fault point {p!r}; choose from "
                    f"{sorted(FAULT_POINTS)}"
                )
        self.points = tuple(points)
        self.seed = int(seed)
        self.skip = int(skip)
        self.max_fires = int(max_fires)
        self._opportunities: dict[str, int] = {p: 0 for p in self.points}
        self._fires: dict[str, int] = {p: 0 for p in self.points}
        #: faults that actually fired, in order
        self.fired: list[FaultRecord] = []

    def maybe_fire(self, point: str) -> Fire | None:
        if point not in self._opportunities:
            return None
        k = self._opportunities[point]
        self._opportunities[point] = k + 1
        if k < self.skip or self._fires[point] >= self.max_fires:
            return None
        self._fires[point] += 1
        record = FaultRecord(point, {"opportunity": k})
        self.fired.append(record)
        # a digest, not hash(): str hashes are salted per process, and a
        # seeded campaign must pick the same victims in every process
        rng = np.random.default_rng(
            (self.seed, zlib.crc32(point.encode()), k)
        )
        return Fire(record, rng)


_ACTIVE: FaultPlan | None = None


def maybe_fire(point: str) -> Fire | None:
    """Site-side hook: does the active plan (if any) fire this point now?"""
    if _ACTIVE is None:
        return None
    return _ACTIVE.maybe_fire(point)


def armed(point: str) -> bool:
    """Does the active plan (if any) arm ``point``?  For a site that
    skips its opportunities on a cached path unless they can fire."""
    return _ACTIVE is not None and point in _ACTIVE.points


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Activate ``plan`` for the duration of the block (non-reentrant)."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a fault plan is already active")
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = None
