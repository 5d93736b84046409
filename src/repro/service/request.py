"""Query/response dataclasses and admission-time validation.

A :class:`QueryRequest` names a graph (Table 2 short name), an algorithm,
a source vertex, and optionally a contiguous snapshot sub-window.  It is
deliberately tiny — everything heavy (the scenario, the plan, the values)
lives in the workers, and a plan carries only the sources — so requests
are cheap to queue and coalesce.  A window never reaches a worker: the
coordinator slices it from its source's full-window answer
(:meth:`~repro.service.cache.ResultCache.window_of`).

Responses carry per-snapshot *summaries* (reached count + a finite-value
checksum) rather than full value arrays: compact enough to stream over the
JSON-lines front end, strong enough for parity checks and result caching.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.algorithms import ALGORITHMS
from repro.workloads import DATASETS, SCALES

__all__ = [
    "QueryRequest",
    "QueryResponse",
    "SnapshotSummary",
    "validate_request",
]

_ids = itertools.count()


def _next_id() -> int:
    return next(_ids)


@dataclass
class QueryRequest:
    """One evolving-graph query: graph, algorithm, source, window."""

    graph: str
    algo: str
    source: int
    #: inclusive snapshot sub-window, or None for the full history
    window: tuple[int, int] | None = None
    #: shed this query if not *executing* within this many seconds of
    #: admission (None = wait forever); shed responses carry a
    #: ``retry_after`` hint so clients back off instead of piling on
    deadline_s: float | None = None
    id: int = field(default_factory=_next_id)

    def compat_key(self, epoch: int) -> tuple:
        """Queries sharing this key may ride one coalesced BOE plan.

        The multi-query plan fixes the algorithm (one edge function per
        run, Table 1) and the unified CSR (graph + epoch); only the
        source vertex varies per query.  The window is not part of it:
        every plan runs the full window, and a query's window is sliced
        from its answer (:meth:`~repro.service.cache.ResultCache.window_of`).
        The algorithm is keyed lower-case, as
        :func:`~repro.algorithms.get_algorithm` resolves it.
        """
        return (self.graph, self.algo.lower(), epoch)


@dataclass
class SnapshotSummary:
    """Digest of one query's values on one snapshot."""

    snapshot: int
    reached: int
    checksum: float

    @classmethod
    def table(
        cls, reached: np.ndarray, checksum: np.ndarray
    ) -> list[list[SnapshotSummary]]:
        """Per row of ``(queries, n_snapshots)`` reached counts and
        checksums (:func:`repro.core.multi_query.summarize`'s figures),
        that query's snapshots' summaries."""
        return [
            [cls(k, r, c) for k, (r, c) in enumerate(zip(rs, cs))]
            for rs, cs in zip(reached.tolist(), checksum.tolist())
        ]

    def as_dict(self) -> dict:
        return {
            "snapshot": self.snapshot,
            "reached": self.reached,
            "checksum": self.checksum,
        }


@dataclass
class QueryResponse:
    """Terminal outcome of one request."""

    id: int
    status: str  # "ok" | "cached" | "error" | "rejected" | "shed"
    latency_s: float = 0.0
    epoch: int = 0
    plan_id: int | None = None
    summaries: list[SnapshotSummary] = field(default_factory=list)
    error: str | None = None
    #: for "shed"/"rejected": how long the client should back off before
    #: retrying (seconds, derived from current queue depth and plan time)
    retry_after: float | None = None
    #: per-stage duration breakdown (ms) from the query's span timeline;
    #: populated at resolve time (docs/OBSERVABILITY.md)
    stages: dict[str, float] | None = None

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "cached")

    @property
    def retryable(self) -> bool:
        """Overload outcomes a client may retry after backing off."""
        return self.status in ("shed", "rejected")

    def as_dict(self) -> dict:
        out = {
            "id": self.id,
            "status": self.status,
            "latency_ms": round(self.latency_s * 1e3, 3),
            "epoch": self.epoch,
        }
        if self.plan_id is not None:
            out["plan"] = self.plan_id
        if self.summaries:
            out["snapshots"] = [s.as_dict() for s in self.summaries]
        if self.error is not None:
            out["error"] = self.error
        if self.retry_after is not None:
            out["retry_after_s"] = round(self.retry_after, 3)
        if self.stages:
            out["stages_ms"] = {
                k: round(v, 3) for k, v in self.stages.items()
            }
        return out


def validate_request(
    request: QueryRequest, n_snapshots: int, scale: str | float
) -> None:
    """Admission-time validation: reject malformed queries before queueing.

    Raises ``ValueError`` with an operator-grade message; the service maps
    it to an error response (and the CLI front ends map bad static
    arguments to exit code 2 before any service is built).
    """
    if request.graph not in DATASETS:
        raise ValueError(
            f"unknown graph {request.graph!r}; choose from {sorted(DATASETS)}"
        )
    if request.algo.upper() not in {a.upper() for a in ALGORITHMS}:
        raise ValueError(
            f"unknown algorithm {request.algo!r}; choose from "
            f"{sorted(ALGORITHMS)}"
        )
    factor = SCALES[scale] if isinstance(scale, str) else float(scale)
    n_vertices, __ = DATASETS[request.graph].proxy_sizes(factor)
    if not 0 <= int(request.source) < n_vertices:
        raise ValueError(
            f"source {request.source} out of range for {request.graph} "
            f"({n_vertices} vertices at scale {scale})"
        )
    if request.window is not None:
        lo, hi = request.window
        if not 0 <= lo <= hi < n_snapshots:
            raise ValueError(
                f"window [{lo}, {hi}] outside [0, {n_snapshots - 1}]"
            )
    if request.deadline_s is not None and not request.deadline_s > 0:
        raise ValueError(
            f"deadline_s must be positive, got {request.deadline_s}"
        )
