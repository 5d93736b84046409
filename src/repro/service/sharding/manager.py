"""Shard fleet lifecycle, delta routing, and all-fsync ingest barrier.

A :class:`ShardManager` owns N :class:`~repro.service.core.QueryService`
instances, one per contiguous vertex range of the evolving graph.  Each
shard is a *complete* service — its own worker pool, its own
shared-memory scenario plane (generation-stamped segments, so a fleet of
planes in one process never collide), and its own WAL directory
(``<wal_root>/shard-<i>``) — which keeps recovery, compaction, and
replication strictly per-shard.

Partitioning is by the **base** union CSR's out-edge counts
(:class:`~repro.graph.partition.VertexPartitioner` at epoch 0): ingest
churn can skew the balance over time, but ownership never moves, so a
vertex's shard is a pure function of the graph name — the property the
scatter router, the delta splitter, and recovery all depend on.

Ingest protocol
---------------

One logical delta splits by ``partition_of(src)`` into per-shard
sub-batches; *every* shard receives its (possibly empty) sub-batch so
per-shard epochs stay aligned with the logical epoch.  The manager acks
only after **all** shards' WAL appends (and fsyncs, per policy) return —
the all-fsync barrier the durability contract in docs/SERVICE.md
promises.  A partial failure leaves some shards one epoch ahead; the
manager immediately rewinds them (``QueryService.rewind_graph``
truncates + compacts), re-raises unacked, and the same min-epoch
reconciliation runs at startup for crashes that interrupted the barrier
itself.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.graph.partition import VertexPartitioner
from repro.service.core import QueryService, ServiceConfig
from repro.service.ingest import DeltaBatch, apply_delta, synthesize_delta

__all__ = ["ShardManager"]

log = logging.getLogger(__name__)


def merge_sub_deltas(subs: list[DeltaBatch]) -> DeltaBatch:
    """Reassemble one logical delta from its per-shard sub-batches.

    Sub-batches partition the rows by owning shard, so concatenation
    recovers the logical edge sets exactly; row order inside a batch is
    irrelevant because the union CSR build sorts edges canonically.
    The ``shard`` routing tag is stripped from the surviving metadata.
    """
    meta: dict = {}
    for sub in subs:
        if sub.meta:
            meta = {k: v for k, v in sub.meta.items() if k != "shard"}
            break
    return DeltaBatch(
        add_src=np.concatenate([s.add_src for s in subs]),
        add_dst=np.concatenate([s.add_dst for s in subs]),
        add_wt=np.concatenate([s.add_wt for s in subs]),
        del_src=np.concatenate([s.del_src for s in subs]),
        del_dst=np.concatenate([s.del_dst for s in subs]),
        meta=meta,
    )


class ShardManager:
    """N vertex-owned shards of the evolving graph behind one router."""

    def __init__(
        self,
        n_shards: int,
        config: ServiceConfig | None = None,
        wal_root: str | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.config = config or ServiceConfig()
        self.n_shards = int(n_shards)
        self.wal_root = (
            wal_root if wal_root is not None else self.config.wal_dir
        )
        self.shards: list[QueryService] = []
        for i in range(self.n_shards):
            shard_cfg = dataclasses.replace(
                self.config,
                shard_id=i,
                wal_dir=(
                    os.path.join(self.wal_root, f"shard-{i}")
                    if self.wal_root
                    else None
                ),
            )
            self.shards.append(QueryService(shard_cfg))
        #: guards the logical chains, the synth scenario cache, and the
        #: partitioner cache; held across the ingest fan-out so logical
        #: epochs are totally ordered (single-writer, like the WAL).
        #: Reentrant because the ingest path calls ``split_delta`` →
        #: ``partitioner`` while already holding it.
        self._lock = threading.RLock()
        self._partitioners: dict[str, VertexPartitioner] = {}
        #: graph -> full (unsplit) delta log; source of truth for the
        #: logical epoch and for delta synthesis
        self._chains: dict[str, list[DeltaBatch]] = {}
        #: graph -> (epoch, scenario) advanced incrementally for synthesis
        self._live: dict[str, tuple[int, object]] = {}
        self._ingest_pool = ThreadPoolExecutor(
            max_workers=self.n_shards, thread_name_prefix="shard-ingest"
        )
        self._started = False

    # -- partition geometry -------------------------------------------------

    def partitioner(self, graph: str) -> VertexPartitioner:
        """The graph's (cached) base-epoch partitioner."""
        with self._lock:
            part = self._partitioners.get(graph)
            if part is None:
                from repro.experiments.runner import scenario_cache

                scenario = scenario_cache(
                    graph,
                    self.config.scale,
                    n_snapshots=self.config.n_snapshots,
                )
                part = VertexPartitioner(
                    scenario.unified.graph.indptr, self.n_shards
                )
                self._partitioners[graph] = part
            return part

    def vertex_range(self, graph: str, shard: int) -> tuple[int, int]:
        """Half-open vertex range shard ``shard`` owns for ``graph``.

        When the partitioner clamped (more shards than vertices), the
        surplus shards own an empty range at the top — they never
        receive frontier triples or delta rows, only empty epoch-
        alignment sub-batches.
        """
        part = self.partitioner(graph)
        if shard >= part.n_partitions:
            return part.n_vertices, part.n_vertices
        return part.vertex_range(shard)

    def split_delta(self, graph: str, delta: DeltaBatch) -> list[DeltaBatch]:
        """One sub-batch per shard, routed by the owner of each row's src.

        Out-of-range vertex ids raise ``ValueError`` here — before any
        WAL append — so a malformed delta is rejected atomically.
        """
        part = self.partitioner(graph)
        add_owner = np.asarray(part.partition_of(delta.add_src))
        del_owner = np.asarray(part.partition_of(delta.del_src))
        subs = []
        for i in range(self.n_shards):
            am = add_owner == i
            dm = del_owner == i
            subs.append(
                DeltaBatch(
                    add_src=delta.add_src[am],
                    add_dst=delta.add_dst[am],
                    add_wt=delta.add_wt[am],
                    del_src=delta.del_src[dm],
                    del_dst=delta.del_dst[dm],
                    meta=dict(delta.meta, shard=i),
                )
            )
        return subs

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "ShardManager":
        """Start every shard (each recovers from its own WAL), then
        reconcile epochs and rebuild the logical chains."""
        if self._started:
            return self
        for shard in self.shards:
            shard.start()
        rewound = self.reconcile()
        if rewound:
            log.info("shard reconcile: logical epochs %s", rewound)
        self._recover_chains()
        self._started = True
        return self

    def stop(self, drain: bool = True, timeout: float = 60.0) -> bool:
        results = [
            shard.stop(drain=drain, timeout=timeout) for shard in self.shards
        ]
        self._ingest_pool.shutdown(wait=True, cancel_futures=True)
        self._started = False
        return all(results)

    def clear_caches(self) -> None:
        for shard in self.shards:
            shard.clear_caches()
        with self._lock:
            self._live.clear()

    # -- epochs / recovery --------------------------------------------------

    def epoch(self, graph: str) -> int:
        with self._lock:
            return len(self._chains.get(graph, []))

    def graph_epochs(self) -> dict[str, int]:
        with self._lock:
            return {g: len(chain) for g, chain in self._chains.items()}

    def reconcile(self, graph: str | None = None) -> dict[str, int]:
        """Rewind every shard to the fleet's minimum epoch per graph.

        WAL recovery skips records at-or-below a log's tip, so a shard
        left *ahead* by an interrupted ingest barrier would silently
        swallow the re-ingested epochs — rewinding the fast shards to
        the slowest one restores the all-or-nothing ack semantics (the
        unacked epoch is simply gone, which is what unacked means).
        Returns the reconciled epoch per graph.
        """
        epoch_maps = [shard.graph_epochs() for shard in self.shards]
        graphs = (
            {graph}
            if graph is not None
            else set().union(*(set(m) for m in epoch_maps))
        )
        out: dict[str, int] = {}
        for g in sorted(graphs):
            floor = min(m.get(g, 0) for m in epoch_maps)
            for shard in self.shards:
                shard.rewind_graph(g, floor)
            out[g] = floor
        return out

    def _recover_chains(self) -> None:
        """Rebuild the logical delta chains from the shards' sub-chains."""
        epoch_maps = [shard.graph_epochs() for shard in self.shards]
        graphs = set().union(*(set(m) for m in epoch_maps))
        with self._lock:
            for g in sorted(graphs):
                logs = [shard.graph_deltas(g) for shard in self.shards]
                depth = min(len(chain) for chain in logs)
                self._chains[g] = [
                    merge_sub_deltas([chain[e] for chain in logs])
                    for e in range(depth)
                ]
                self._live.pop(g, None)

    def recoveries(self) -> dict[int, dict]:
        """Per-shard WAL recovery summaries (present after ``start``)."""
        return {
            i: shard.last_recovery.summary()
            for i, shard in enumerate(self.shards)
            if shard.last_recovery is not None
        }

    # -- ingest -------------------------------------------------------------

    def _live_scenario_locked(self, graph: str):
        """The logical live scenario, advanced incrementally (synthesis)."""
        from repro.experiments.runner import scenario_cache

        chain = self._chains.setdefault(graph, [])
        cached = self._live.get(graph)
        if cached is not None and cached[0] == len(chain):
            return cached[1]
        if cached is not None and cached[0] < len(chain):
            epoch, scenario = cached
            for delta in chain[epoch:]:
                scenario = apply_delta(scenario, delta)
        else:
            scenario = scenario_cache(
                graph, self.config.scale, n_snapshots=self.config.n_snapshots
            )
            for delta in chain:
                scenario = apply_delta(scenario, delta)
        self._live[graph] = (len(chain), scenario)
        return scenario

    def ingest(
        self,
        graph: str,
        delta: DeltaBatch | None = None,
        seed: int | None = None,
        n_add: int = 8,
        n_del: int = 8,
    ) -> int:
        """Route one logical delta to every shard; ack after all fsync.

        Returns the new logical epoch.  On any shard failure the
        committed shards are rewound before the error propagates, so an
        unacked ingest leaves no trace and the next attempt extends every
        shard's log contiguously.
        """
        if delta is None and seed is None:
            raise ValueError("ingest needs a DeltaBatch or a seed")
        with self._lock:
            chain = self._chains.setdefault(graph, [])
            scenario = self._live_scenario_locked(graph)
            if delta is None:
                delta = synthesize_delta(
                    scenario, seed=seed, n_add=n_add, n_del=n_del
                )
            # slide the logical window first: a delta it cannot absorb
            # is refused (ValueError) before any shard logs a slice of it
            advanced = apply_delta(scenario, delta)
            subs = self.split_delta(graph, delta)
            epoch = len(chain) + 1
            futures = [
                self._ingest_pool.submit(shard.ingest, graph, sub)
                for shard, sub in zip(self.shards, subs)
            ]
            errors: list[BaseException] = []
            shard_epochs: list[int | None] = []
            for future in futures:
                try:
                    shard_epochs.append(future.result())
                except BaseException as exc:  # noqa: BLE001 - rethrown
                    errors.append(exc)
                    shard_epochs.append(None)
            if errors:
                # undo the shards that did commit: the ingest was never
                # acked, so the epoch must not survive anywhere
                for shard in self.shards:
                    shard.rewind_graph(graph, epoch - 1)
                raise RuntimeError(
                    f"sharded ingest of {graph} epoch {epoch} failed on "
                    f"{len(errors)}/{self.n_shards} shard(s); all shards "
                    f"rewound, nothing acked"
                ) from errors[0]
            misaligned = [e for e in shard_epochs if e != epoch]
            if misaligned:
                raise RuntimeError(
                    f"shard epochs diverged on {graph}: expected {epoch}, "
                    f"got {shard_epochs}"
                )
            chain.append(delta)
            self._live[graph] = (epoch, advanced)
        return epoch

    # -- health -------------------------------------------------------------

    def shard_health(self) -> list[dict]:
        """Per-shard role, epochs, WAL depth, and shm generation."""
        out = []
        for i, shard in enumerate(self.shards):
            wal = (
                shard.wal.stats()
                if shard.wal is not None
                else {"enabled": False}
            )
            plane = (
                shard.plane.stats()
                if shard.plane is not None
                else {"enabled": False}
            )
            out.append(
                {
                    "shard": i,
                    "role": shard.role,
                    "epochs": shard.graph_epochs(),
                    "wal_enabled": bool(wal.get("enabled", True)),
                    "wal_depth": int(wal.get("records", 0)),
                    "wal_lag_records": int(wal.get("lag_records", 0)),
                    "shm_generation": int(plane.get("generation", 0)),
                    "workers": shard.pool.workers,
                    "worker_pids": sorted(shard.pool.worker_pids),
                    "pool_restarts": shard.pool.restarts,
                    "scatter_plans": shard.stats.get("scatter_plans"),
                }
            )
        return out
