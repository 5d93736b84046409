"""Per-shard partial evaluation: row-restricted scenarios + local relaxation.

A shard owns a contiguous vertex range ``[lo, hi)`` of the evolving graph
and materializes **only the union edges whose source it owns** — the
software analogue of MEGA's §3.2 partitioning, where each partition's
per-vertex state and edge slice fit the on-chip budget.  Restriction
commutes with both window extraction and delta application as long as
every delta routed to the shard touches only owned source rows (the
``ShardManager`` splits ingests by ``partition_of(src)`` to guarantee
exactly that), so a shard can advance its slice incrementally for the
cost of its own churn instead of the whole graph's.

:func:`scatter_relax` is the per-round worker kernel: preload the
shard's owned columns from the front end's known state, seed the
incoming frontier triples, relax to a *local* fixed point over owned
rows (presence-masked per state, so all snapshots share each edge
fetch), and report owned updates plus boundary candidates for remote
vertices.  Only seeds that strictly improve a preloaded cell activate,
so cross-shard rounds relax just the cone of new information instead of
re-deriving the whole region.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import Algorithm
from repro.evolving.snapshots import EvolvingScenario
from repro.evolving.unified_csr import UnifiedCSR
from repro.graph.csr import CSRGraph, gather_out_edges

__all__ = ["restrict_rows", "scatter_relax", "ScatterOutput"]


def restrict_rows(
    scenario: EvolvingScenario, lo: int, hi: int
) -> EvolvingScenario:
    """Scenario over only the union edges with source in ``[lo, hi)``.

    The vertex set is unchanged (destinations may lie anywhere), so vertex
    ids, snapshot tags, and window semantics all carry over verbatim; only
    the out-edge rows outside the range become empty.  Evaluation
    restricted to owned rows on the restricted scenario is exact — edges
    from unowned rows are never gathered by this shard anyway.
    """
    u = scenario.unified
    g = u.graph
    if not 0 <= lo <= hi <= g.n_vertices:
        raise ValueError(
            f"row range [{lo}, {hi}) outside [0, {g.n_vertices}]"
        )
    keep = (g.src_of_edge >= lo) & (g.src_of_edge < hi)
    sub = CSRGraph.from_sorted(
        g.n_vertices, g.src_of_edge[keep], g.dst[keep], g.wt[keep]
    )
    unified = UnifiedCSR(
        sub,
        u.add_step[keep],
        u.del_step[keep],
        u.n_snapshots,
    )
    meta = dict(scenario.metadata)
    meta["rows"] = (int(lo), int(hi))
    return EvolvingScenario(
        unified,
        source=scenario.source,
        name=f"{scenario.name}|rows[{lo}:{hi})",
        metadata=meta,
    )


class ScatterOutput:
    """One shard's answer to one scatter round."""

    __slots__ = (
        "upd_vertices", "upd_states", "upd_values",
        "bnd_vertices", "bnd_states", "bnd_values",
        "rounds", "relaxed_edges",
    )

    def __init__(
        self, upd, bnd, rounds: int, relaxed_edges: int
    ) -> None:
        self.upd_vertices, self.upd_states, self.upd_values = upd
        self.bnd_vertices, self.bnd_states, self.bnd_values = bnd
        self.rounds = int(rounds)
        self.relaxed_edges = int(relaxed_edges)


def scatter_relax(
    scenario: EvolvingScenario,
    algorithm: Algorithm,
    lo: int,
    hi: int,
    n_states: int,
    seed_vertices: np.ndarray,
    seed_states: np.ndarray,
    seed_values: np.ndarray,
    max_rounds: int = 200_000,
    state_block: np.ndarray | None = None,
) -> ScatterOutput:
    """Relax the shard's owned rows to a local fixed point.

    ``scenario`` should already be row-restricted (or a full scenario for
    the single-shard degenerate case — the kernel only ever gathers rows
    in ``[lo, hi)``, so a full scenario is merely larger, never wrong).
    State ``s`` evaluates snapshot ``s % n_snapshots``; seeds land via the
    algorithm's ``scatter_reduce``, so duplicate seeds per cell coalesce.

    ``state_block`` is the front end's known ``(n_states, hi - lo)`` value
    block for the owned columns from earlier rounds.  Cells it covers were
    already relaxed to a local fixed point in a previous invocation, so
    they start *inactive*: only seeds that strictly improve a cell
    propagate, which is what keeps cross-shard rounds from re-relaxing the
    whole region (the probe without it showed 3× redundant edge work at
    four shards).

    Returns owned cells that changed (updates), non-identity cells of
    remote vertices reached along boundary edges (candidates for their
    owners), and the number of local rounds run.
    """
    u = scenario.unified
    g = u.graph
    n = g.n_vertices
    n_snapshots = u.n_snapshots
    identity_row = algorithm.identity_values(n)
    values = np.repeat(identity_row[None, :], n_states, axis=0)
    if state_block is not None:
        if state_block.shape != (n_states, hi - lo):
            raise ValueError(
                f"state_block must be {(n_states, hi - lo)}; "
                f"got {state_block.shape}"
            )
        values[:, lo:hi] = state_block
    preloaded = values[:, lo:hi].copy()
    flat = values.reshape(-1)
    # a cell is active while its value has information the out-edges have
    # not propagated yet; remote cells are recorded but never expanded
    active = np.zeros((n_states, n), dtype=bool)
    if seed_vertices.size:
        sv = np.asarray(seed_vertices, dtype=np.int64)
        ss = np.asarray(seed_states, dtype=np.int64)
        sval = np.asarray(seed_values, dtype=np.float64)
        idx = ss * n + sv
        before = flat[idx].copy()
        algorithm.scatter_reduce(flat, idx, sval)
        imp = algorithm.better(flat[idx], before)
        active[ss[imp], sv[imp]] = True
    rounds = 0
    relaxed_edges = 0
    while rounds < max_rounds:
        frontier = np.flatnonzero(active[:, lo:hi].any(axis=0)) + lo
        if frontier.size == 0:
            break
        rounds += 1
        edge_idx, src_rep = gather_out_edges(g.indptr, frontier)
        if edge_idx.size == 0:
            break
        # one packed-plane gather serves every state sharing the edge set
        presence = u.presence_multi(edge_idx)
        edst = g.dst[edge_idx]
        ewt = g.wt[edge_idx]
        next_active = np.zeros_like(active)
        live_states = np.flatnonzero(active[:, frontier].any(axis=1))
        for s in live_states:
            mask = active[s, src_rep] & presence[s % n_snapshots]
            sel = np.flatnonzero(mask)
            if sel.size == 0:
                continue
            relaxed_edges += sel.size
            cand = algorithm.candidate(
                values[s, src_rep[sel]], ewt[sel]
            )
            dst_s = edst[sel]
            before = values[s, dst_s]
            algorithm.scatter_reduce(values[s], dst_s, cand)
            improved = dst_s[algorithm.better(values[s, dst_s], before)]
            if improved.size:
                next_active[s, improved] = True
        active = next_active
    # owned updates: cells that moved past the preloaded state; boundary:
    # any remote cell written this invocation (remote columns start at
    # identity, so non-identity means a boundary edge delivered it)
    owned = values[:, lo:hi]
    ust, uv = np.nonzero(owned != preloaded)
    upd = (uv + lo, ust, owned[ust, uv])
    remote = np.ones(n, dtype=bool)
    remote[lo:hi] = False
    bst, bv = np.nonzero(
        (values != identity_row[None, :]) & remote[None, :]
    )
    bnd = (bv, bst, values[bst, bv])
    return ScatterOutput(upd, bnd, rounds, relaxed_edges)
