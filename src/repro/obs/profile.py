"""Sampled kernel profiling for the DAIC round loop.

The engine's round loop is the hot path of every plan the service
executes; a kernel regression there (a gather that silently re-allocates,
a scatter that went quadratic) is invisible in end-to-end latency until
it is large.  These hooks time the two sections that dominate a round —
**edge gather** (frontier → edge fetch → candidate build) and **apply**
(scatter-reduce → change detection) — on a sampled subset of rounds.

Zero cost when disabled: the engine keeps a single ``prof is not None``
check per round; no timestamps are taken, no dict is touched.  Enabled,
the cost is two ``perf_counter()`` pairs per *sampled* round.  On the
compiled tier a whole propagation loop is one kernel call: it advances
the round counter by the rounds it ran and is booked as one
``fused_relax`` section when any of them samples.

The profiler is process-local (workers each own one).  Plans request
profiling via ``PlanPayload.profile_every``; the worker wraps execution
in :func:`profiled` and ships the snapshot back inside ``PlanResult`` so
the coordinator can aggregate across workers with :func:`merge_profiles`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

__all__ = [
    "RoundProfiler",
    "active_profiler",
    "disable_profiling",
    "enable_profiling",
    "merge_profiles",
    "profiled",
]

_active: "RoundProfiler | None" = None
_lock = threading.Lock()


class RoundProfiler:
    """Accumulates per-section wall time over sampled rounds."""

    def __init__(self, sample_every: int = 1) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = int(sample_every)
        self._lock = threading.Lock()
        self._round = 0
        #: section -> [sampled_count, total_seconds]
        self._sections: dict[str, list] = {}

    def sample(self, rounds: int = 1) -> bool:
        """Advance the round counter by ``rounds``; True when any of them
        is sampled.  A compiled loop call that ran several rounds counts
        them all and is timed as one section when one of them samples."""
        with self._lock:
            before = self._round
            self._round += rounds
            return self._round // self.sample_every > before // self.sample_every

    def add(self, section: str, seconds: float) -> None:
        with self._lock:
            acc = self._sections.setdefault(section, [0, 0.0])
            acc[0] += 1
            acc[1] += seconds

    def now(self) -> float:
        return time.perf_counter()

    def snapshot(self) -> dict:
        """JSON-able ``{section: {rounds, total_s, mean_us}}`` plus the
        sampling coordinates needed to interpret it."""
        with self._lock:
            return {
                "sample_every": self.sample_every,
                "rounds_seen": self._round,
                "sections": {
                    name: {
                        "rounds": count,
                        "total_s": total,
                        "mean_us": (total / count * 1e6) if count else 0.0,
                    }
                    for name, (count, total) in sorted(self._sections.items())
                },
            }


def active_profiler() -> RoundProfiler | None:
    """The process-wide profiler, or None (the engine's fast-path check)."""
    return _active


def enable_profiling(sample_every: int = 1) -> RoundProfiler:
    """Install a fresh process-wide profiler and return it."""
    global _active
    with _lock:
        _active = RoundProfiler(sample_every)
        return _active


def disable_profiling() -> RoundProfiler | None:
    """Remove the process-wide profiler; returns it (with its data)."""
    global _active
    with _lock:
        prof, _active = _active, None
        return prof


@contextmanager
def profiled(sample_every: int = 1):
    """Enable profiling for a scope; yields the profiler.

    Restores whatever profiler (usually None) was active before, so
    nested scopes and worker reuse stay correct.
    """
    global _active
    with _lock:
        previous = _active
        prof = RoundProfiler(sample_every)
        _active = prof
    try:
        yield prof
    finally:
        with _lock:
            _active = previous


def merge_profiles(snapshots: list[dict]) -> dict:
    """Fold worker-side ``RoundProfiler.snapshot()`` dicts into one.

    Section times add; ``rounds_seen`` adds; ``sample_every`` must agree
    (it is config-driven) and passes through.
    """
    merged: dict = {"sample_every": 0, "rounds_seen": 0, "sections": {}}
    for snap in snapshots:
        if not snap:
            continue
        merged["sample_every"] = snap.get("sample_every", 0)
        merged["rounds_seen"] += snap.get("rounds_seen", 0)
        for name, sec in snap.get("sections", {}).items():
            acc = merged["sections"].setdefault(
                name, {"rounds": 0, "total_s": 0.0, "mean_us": 0.0}
            )
            acc["rounds"] += sec["rounds"]
            acc["total_s"] += sec["total_s"]
    for sec in merged["sections"].values():
        if sec["rounds"]:
            sec["mean_us"] = sec["total_s"] / sec["rounds"] * 1e6
    return merged
