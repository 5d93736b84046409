"""Per-query span timelines.

A :class:`QueryTrace` rides on every
:class:`~repro.service.batcher.PendingQuery` and records one monotonic
timestamp per pipeline stage as the query moves through the service::

    admit ─ queue_drain ─ coalesce ─ plan_submit ─ worker_start ─
    worker_end ─ resolve

``worker_start``/``worker_end`` are recorded *inside the worker process*
and shipped back in :class:`~repro.service.pool.PlanResult`; on Linux
``CLOCK_MONOTONIC`` is system-wide, so the marks are directly comparable
with the coordinator's.  (If a platform ever handed workers a different
clock origin, the affected stage would go negative and
``stage_durations_ms`` clamps it to zero rather than reporting nonsense.)

The derived *stage durations* are what operators read:

* ``admit_to_plan`` — queue wait + deadline check + coalescing;
* ``plan_to_worker`` — executor queue (pool saturation shows up here);
* ``worker`` — pure compute inside the worker;
* ``worker_to_resolve`` — result pickling + completion callback;
* ``total`` — admit to resolve (equals the response's latency); the
  four stages above partition it exactly.

Queries that never reach a worker (cache hits, validation errors, shed)
carry partial timelines — only the marks their path actually crossed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["STAGES", "QueryTrace", "stage_percentiles"]

#: canonical mark order; a well-formed timeline is monotonic along it
STAGES = (
    "admit",
    "queue_drain",
    "coalesce",
    "plan_submit",
    "worker_start",
    "worker_end",
    "resolve",
)

#: derived durations: name -> (from_mark, to_mark).  The four leaf
#: stages tile admit -> resolve end to end, so they sum to ``total``
STAGE_SPANS = {
    "admit_to_plan": ("admit", "plan_submit"),
    "plan_to_worker": ("plan_submit", "worker_start"),
    "worker": ("worker_start", "worker_end"),
    "worker_to_resolve": ("worker_end", "resolve"),
    "total": ("admit", "resolve"),
}


@dataclass
class QueryTrace:
    """Monotonic timestamps of one query's trip through the service."""

    marks: dict[str, float] = field(default_factory=dict)

    def mark(self, stage: str, at: float | None = None) -> None:
        """Record ``stage`` at ``at`` (default: now).  First mark wins —
        a retried query keeps its original plan_submit, so its timeline
        reports the full wait the client actually experienced."""
        if stage not in self.marks:
            self.marks[stage] = at if at is not None else time.monotonic()

    def stage_durations_ms(self) -> dict[str, float]:
        """Derived stage durations (ms) for every span with both marks.

        Negative spans (cross-process clock skew) clamp to 0.0.
        """
        out: dict[str, float] = {}
        for name, (lo, hi) in STAGE_SPANS.items():
            if lo in self.marks and hi in self.marks:
                out[name] = max(0.0, (self.marks[hi] - self.marks[lo]) * 1e3)
        return out

    def as_dict(self) -> dict:
        """JSON-able span dump: offsets from admit (ms), in stage order."""
        origin = self.marks.get("admit", 0.0)
        return {
            "marks_ms": {
                stage: round((self.marks[stage] - origin) * 1e3, 6)
                for stage in STAGES
                if stage in self.marks
            },
            "stages_ms": {
                k: round(v, 6) for k, v in self.stage_durations_ms().items()
            },
        }


def stage_percentiles(
    stage_dicts: list[dict[str, float]],
    percentiles: tuple[float, ...] = (50.0, 95.0, 99.0),
) -> dict[str, dict[str, float]]:
    """Fold many ``stage_durations_ms`` dicts into per-stage percentiles.

    Returns ``{stage: {"p50": ..., "p95": ..., "p99": ..., "mean": ...,
    "n": ...}}`` over the queries that actually crossed each stage —
    pure python so the load harness can call it without numpy in scope.
    """
    by_stage: dict[str, list[float]] = {}
    for stages in stage_dicts:
        for name, value in stages.items():
            by_stage.setdefault(name, []).append(value)

    def pct(values: list[float], p: float) -> float:
        if not values:
            return 0.0
        k = (len(values) - 1) * p / 100.0
        lo, hi = int(k), min(int(k) + 1, len(values) - 1)
        frac = k - lo
        return values[lo] * (1.0 - frac) + values[hi] * frac

    out: dict[str, dict[str, float]] = {}
    for name, values in by_stage.items():
        values.sort()
        out[name] = {
            f"p{int(p)}": pct(values, p) for p in percentiles
        }
        out[name]["mean"] = sum(values) / len(values)
        out[name]["n"] = float(len(values))
    return out
