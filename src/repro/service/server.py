"""JSON-lines front end: ``mega-repro serve``.

One request per line on stdin, one JSON response per line on stdout — the
simplest protocol that composes with anything (netcat, a socket wrapper,
a shell pipe, a test harness).  Operations::

    {"op": "query", "graph": "PK", "algo": "sssp", "source": 3,
     "window": [0, 5]}                     -> one blocking query
    {"op": "batch", "queries": [{...}, ...]}  -> submit together, await all
                                                 (exercises coalescing)
    {"op": "ingest", "graph": "PK", "seed": 1, "n_add": 8, "n_del": 8}
    {"op": "ingest", "graph": "PK", "adds": [[u, v, w], ...],
     "dels": [[u, v], ...]}                -> explicit delta batch
    {"op": "stats"}                        -> service counters
    {"op": "health"}                       -> epochs, WAL lag, queue depth,
                                              role + replication lag +
                                              fencing token, degraded state
    {"op": "metrics"}                      -> Prometheus text exposition of
                                              every registered instrument
    {"op": "promote"}                      -> follower only: finish replay,
                                              fence the old primary, start
                                              accepting ingest
    {"op": "clear_caches"}                 -> coordinator + worker caches
    {"op": "shutdown"}                     -> drain and exit

An ``ingest`` sent to a follower (``mega-repro serve --follow <dir>``) is
refused with ``{"ok": false, "error": "not_primary", ...}`` so clients
redirect their writes to the primary; reads are served normally at the
follower's replicated epoch (a prefix of the primary's epoch order).

Queries accept an optional ``"deadline_ms"``: if the service cannot start
executing within it, the query is shed with a ``retry_after_s`` hint
instead of waiting out the overload.

Every response is ``{"ok": true, ...}`` or ``{"ok": false, "error": ...}``;
protocol errors never kill the server.  The session is *degraded* if any
query errored or was shed — ``serve`` exits non-zero then, matching the
CLI convention (docs/RESILIENCE.md).
"""

from __future__ import annotations

import json
import sys
from typing import IO, TYPE_CHECKING

from repro.service.core import NotPrimaryError, QueryService
from repro.service.ingest import DeltaBatch
from repro.service.request import QueryRequest

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.replica import ReplicaServer

__all__ = ["ServiceFrontend", "serve_stdio"]

#: per-query wait inside one stdio exchange; far above any sane plan time
QUERY_TIMEOUT_S = 300.0


class ServiceFrontend:
    """Decode one JSON-lines operation, run it, encode the response."""

    def __init__(
        self,
        service: QueryService,
        replica: "ReplicaServer | None" = None,
    ) -> None:
        self.service = service
        #: set when serving a follower: enables the ``promote`` op
        self.replica = replica
        self.shutdown_requested = False

    def handle_line(self, line: str) -> dict:
        try:
            message = json.loads(line)
        except json.JSONDecodeError as exc:
            return {"ok": False, "error": f"bad JSON: {exc}"}
        if not isinstance(message, dict) or "op" not in message:
            return {"ok": False, "error": 'expected {"op": ...}'}
        op = message["op"]
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            return {"ok": False, "error": f"unknown op {op!r}"}
        try:
            return handler(message)
        except Exception as exc:  # noqa: BLE001 - protocol must not die
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}

    # -- operations --------------------------------------------------------

    @staticmethod
    def _request_of(message: dict) -> QueryRequest:
        window = message.get("window")
        deadline_ms = message.get("deadline_ms")
        return QueryRequest(
            graph=message.get("graph", "PK"),
            algo=message.get("algo", "sssp"),
            source=int(message.get("source", 0)),
            window=tuple(window) if window is not None else None,
            deadline_s=(
                float(deadline_ms) / 1e3 if deadline_ms is not None else None
            ),
        )

    def _op_query(self, message: dict) -> dict:
        pending = self.service.submit(self._request_of(message))
        response = pending.wait(timeout=QUERY_TIMEOUT_S)
        if response is None:
            return {"ok": False, "error": "query timed out"}
        return {"ok": response.ok, **response.as_dict()}

    def _op_batch(self, message: dict) -> dict:
        queries = message.get("queries", [])
        handles = [
            self.service.submit(self._request_of(q)) for q in queries
        ]
        out = []
        for h in handles:
            response = h.wait(timeout=QUERY_TIMEOUT_S)
            out.append(
                {"ok": False, "error": "query timed out"}
                if response is None
                else {"ok": response.ok, **response.as_dict()}
            )
        return {"ok": all(r["ok"] for r in out), "responses": out}

    def _op_ingest(self, message: dict) -> dict:
        graph = message.get("graph", "PK")
        try:
            if "adds" in message or "dels" in message:
                delta = DeltaBatch.from_lists(
                    message.get("adds", []), message.get("dels", [])
                )
                epoch, ack = self.service.ingest_with_ack(
                    graph, delta=delta
                )
            else:
                epoch, ack = self.service.ingest_with_ack(
                    graph,
                    seed=int(message.get("seed", 0)),
                    n_add=int(message.get("n_add", 8)),
                    n_del=int(message.get("n_del", 8)),
                )
        except NotPrimaryError as exc:
            # a structured redirect, not a generic error: the client
            # re-aims the write at the primary and retries
            return {
                "ok": False,
                "error": "not_primary",
                "role": exc.role,
                "primary_wal_dir": exc.primary_wal_dir,
                "detail": str(exc),
            }
        # the ack block tells the client what the ack *means* (quorum
        # proven, or degraded to local durability after the timeout)
        return {"ok": True, "graph": graph, "epoch": epoch, "ack": ack}

    def _op_stats(self, message: dict) -> dict:
        return {"ok": True, "stats": self.service.service_stats()}

    def _op_health(self, message: dict) -> dict:
        return {"ok": True, **self.service.health()}

    def _op_metrics(self, message: dict) -> dict:
        return {"ok": True, "metrics": self.service.metrics_text()}

    def _op_promote(self, message: dict) -> dict:
        if self.replica is None:
            return {
                "ok": False,
                "error": f"promote: this node is a {self.service.role}, "
                         f"not a follower",
            }
        token = self.replica.promote()
        return {
            "ok": True,
            "role": self.service.role,
            "fencing_token": token,
        }

    def _op_clear_caches(self, message: dict) -> dict:
        self.service.clear_caches()
        return {"ok": True}

    def _op_shutdown(self, message: dict) -> dict:
        self.shutdown_requested = True
        return {"ok": True, "shutting_down": True}


def serve_stdio(
    service: QueryService,
    stdin: IO[str] | None = None,
    stdout: IO[str] | None = None,
    replica: "ReplicaServer | None" = None,
) -> int:
    """Serve JSON lines until EOF or a shutdown op; returns an exit code
    (0 clean, 1 degraded — errored or shed queries during the session).

    With ``replica`` set the session is a follower: the replica's
    lifecycle (initial sync + tailer thread) brackets the loop and the
    ``promote`` op is live.
    """
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    frontend = ServiceFrontend(service, replica=replica)
    with (replica if replica is not None else service):
        for line in stdin:
            if not line.strip():
                continue
            response = frontend.handle_line(line)
            print(json.dumps(response), file=stdout, flush=True)
            if frontend.shutdown_requested:
                break
        stats = service.service_stats()
    return 1 if (stats["errored"] or stats["rejected"]) else 0
