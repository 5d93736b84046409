"""Delta-accumulative incremental computation (DAIC) engine.

This is the functional core shared by every workflow in the reproduction:
from-scratch evaluation, incremental edge additions, KickStarter-style
deletion repair, and — the MEGA-specific part — *multi-version* propagation
where one addition batch is applied to many snapshots simultaneously with
shared edge fetches (paper §3.1).

Execution is organized in asynchronous *rounds*: all currently-active
coalesced events are popped, candidates are pushed along out-edges, and
improved vertices become the next round's events.  Rounds correspond to the
iterations plotted in the paper's Fig. 10.  Because all five algorithms are
monotone, the final values are independent of event order (paper §3.2,
"Generality"), which the property tests exploit.

The engine operates on the *union* CSR of an evolving scenario.  Per-version
edge membership is supplied as a boolean presence matrix so one gather
serves all versions — the data-reuse effect MEGA's hardware exploits.

Which kernel runs when: every round-based operation (``propagate``,
``evaluate_full``, ``apply_additions``, ``run_segment``) runs the round
loop — on the compiled tier one ``daic_round`` call — because its rounds
are what the accelerator models replay, what the traces record, what
parents are tracked by and what a round or event budget meters.  A
value-only plan of BOE's shape (the service's; the executor,
:class:`~repro.engines.executor.PlanExecutor`, says which) runs on the
worklist kernel instead (:meth:`MultiVersionEngine.run_worklist`): FIFO
worklists that relax in place from current values, have no rounds and
reach the same fixpoint in fewer relaxations.  One call runs the whole
plan (its evaluations, its batch applies, whose worklist entries carry
the version rows a vertex improved in, and its summaries); one
from-scratch evaluation is such a plan of one row and no steps.  It runs
on the compiled tier only; the round loop stays its reference
(``evaluate_reference`` calls ``evaluate_full``) and takes over where it
refuses.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.algorithms.base import Algorithm
from repro.engines.deletion import (
    NOT_A_FIXPOINT,
    DeletionRepair,
    DeletionStats,
    reconstruct_parents,
)
from repro.engines.trace import TraceCollector, edge_blocks
from repro.evolving.unified_csr import UnifiedCSR
from repro.graph.csr import gather_out_edges
from repro.obs.profile import active_profiler
from repro.perf.backend import (
    OPS,
    REPAIR_STATS,
    STEP_APPLY,
    STEP_COLS,
    STEP_COPY,
    STEP_GROUND,
    STEP_PROPAGATE,
    STEP_PULL,
    STEP_TAG,
    WORKLIST_DONE,
    WORKLIST_PAUSED,
    WORKLIST_STATE,
    RepairInputs,
    get_backend,
    worklist_work,
)
from repro.resilience.budget import Budget, BudgetClock

__all__ = ["MultiVersionEngine", "StepTable", "WorklistRun", "group_argbest"]

#: rounds per compiled call while a wall-clock budget is live: the loop
#: kernel cannot read the budget's clock, so it hands back this often
_WALL_CLOCK_CHUNK = 64
#: the worklist kernel's counterpart: pops per call while a wall-clock
#: budget is live
_WORKLIST_CHUNK = 1 << 16

#: the step columns of a worklist plan without steps
_NO_STEPS = (
    np.empty((0, STEP_COLS), dtype=np.int64),
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.int64),
)

#: the trace phase of each repair step's passes, and how many steps
#: before it the repair's TAG (which opens its execution) sits
_REPAIR_PHASE = {STEP_TAG: "del-tag", STEP_PULL: "del-pull",
                 STEP_PROPAGATE: "del-recompute"}
_REPAIR_LEAD = {STEP_PULL: 1, STEP_PROPAGATE: 2}


class WorklistRun(NamedTuple):
    """What :meth:`MultiVersionEngine.run_worklist` computed."""

    #: every row's final values ``(n_rows, n)``
    values: np.ndarray
    #: per marked row: vertices reached, and the sum of its finite values
    #: in numpy's order (None without marks)
    reached: np.ndarray | None
    checksum: np.ndarray | None
    #: worklist pops and edge relaxations over the plan
    pops: int
    edges_relaxed: int


class _Scratch:
    """Grow-only flat buffer pools for the engine's round loop.

    Each named pool is a 1-D array that only ever grows (geometrically),
    handed out as a contiguous ``shape`` view over its prefix.  Because
    the views are prefixes of a flat buffer they stay C-contiguous for
    any requested 2-D shape, so ``ravel()`` on them is a view, not a
    copy.  Steady-state rounds therefore reuse the same memory instead
    of re-allocating ``(K, E)`` temporaries every round.
    """

    __slots__ = ("_pools",)

    def __init__(self) -> None:
        self._pools: dict[str, np.ndarray] = {}

    def get(self, name: str, dtype: type, shape: tuple[int, ...]) -> np.ndarray:
        size = 1
        for dim in shape:
            size *= int(dim)
        pool = self._pools.get(name)
        if pool is None or pool.size < size:
            cap = size if pool is None else max(size, 2 * pool.size)
            pool = np.empty(cap, dtype=dtype)
            self._pools[name] = pool
        return pool[:size].reshape(shape)


class StepTable:
    """A plan segment: a run of copy, apply and repair steps over state rows.

    The compiled tier runs a whole table in one loop-kernel call (the
    columns and kinds of ``_kernels.c``'s step table); the numpy tier
    runs it step by step, a repair through :class:`DeletionRepair` and a
    grounding through :func:`reconstruct_parents`.  Each apply and each
    deletion names its rows, its batch edges and the tag of the
    execution it records as; ``source`` is the query source the repair
    steps read.
    """

    __slots__ = ("kinds", "rows", "seeds", "tags", "source", "_cols",
                 "_n_seed", "_arrays")

    def __init__(self, source: int = 0) -> None:
        self.kinds: list[int] = []
        self.rows: list[tuple[int, ...]] = []
        self.seeds: list[np.ndarray | None] = []
        self.tags: list[str] = []
        self.source = int(source)
        self._cols: list[int] = []
        self._n_seed = 0
        self._arrays: tuple | None = None

    def __len__(self) -> int:
        return len(self.kinds)

    def copy(self, src: int, dst: int) -> None:
        """Copy state ``src``'s values, presence and parents over ``dst``."""
        self._add(STEP_COPY, (src, dst), None, "")

    def apply(
        self, targets: tuple[int, ...], edge_idx: np.ndarray, tag: str
    ) -> None:
        """Add ``edge_idx`` to every target's graph and propagate them."""
        edge_idx = np.ascontiguousarray(edge_idx, dtype=np.int64)
        self._add(STEP_APPLY, tuple(targets), edge_idx, tag)

    def delete(self, row: int, edge_idx: np.ndarray, tag: str) -> None:
        """Remove ``edge_idx`` from ``row``'s graph and repair its values
        (KickStarter: tag, pull, recompute; one execution ``tag``)."""
        edge_idx = np.ascontiguousarray(edge_idx, dtype=np.int64)
        self._add(STEP_TAG, (row,), edge_idx, tag)
        self._add(STEP_PULL, (row,), None, "")
        self._add(STEP_PROPAGATE, (row,), None, "")

    def ground(self, row: int) -> None:
        """Rebuild ``row``'s parent forest from its converged values."""
        self._add(STEP_GROUND, (row,), None, "")

    def _add(self, kind, rows, seeds, tag) -> None:
        start = self._cols[-3] if self._cols else 0
        seed_end = self._n_seed + (0 if seeds is None else seeds.shape[0])
        self._cols += (kind, start, start + len(rows), self._n_seed, seed_end)
        self._n_seed = seed_end
        self._arrays = None
        self.kinds.append(kind)
        self.rows.append(rows)
        self.seeds.append(seeds)
        self.tags.append(tag)

    @property
    def max_rows(self) -> int:
        """Most rows of any non-copy step (the frontier's height)."""
        return max(
            (len(r) for k, r in zip(self.kinds, self.rows) if k != STEP_COPY),
            default=1,
        )

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The kernel's ``(steps, step_rows, seed_edges)`` arrays, built
        once per table (a reused table pays for them once)."""
        if self._arrays is None:
            steps = np.array(self._cols, dtype=np.int64).reshape(
                -1, STEP_COLS
            )
            step_rows = np.array(
                [r for rows in self.rows for r in rows], dtype=np.int64
            )
            batches = [e for e in self.seeds if e is not None]
            seeds = (
                np.concatenate(batches) if batches
                else np.empty(0, dtype=np.int64)
            )
            self._arrays = (steps, step_rows, seeds)
        return self._arrays


def group_argbest(
    keys: np.ndarray, candidates: np.ndarray, minimize: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Per-group best candidate: returns ``(unique_keys, argbest_index)``.

    ``argbest_index`` indexes the *input* arrays; ties break toward the
    lowest input index, which keeps parent tracking deterministic.
    Goes through the active kernel backend, whose member is the lexsort
    reference of :mod:`repro.perf.backend.reference` on every tier.
    """
    return get_backend().group_argbest(keys, candidates, minimize)


class MultiVersionEngine:
    """Round-based DAIC propagation over a unified evolving-graph CSR."""

    def __init__(
        self,
        algorithm: Algorithm,
        unified: UnifiedCSR,
        collector: TraceCollector | None = None,
        edges_per_block: int = 8,
        track_parents: bool = False,
        budget: Budget | None = None,
        clock: BudgetClock | None = None,
    ) -> None:
        self.algorithm = algorithm
        self.unified = unified
        self.graph = unified.graph
        self.collector = collector
        self.edges_per_block = int(edges_per_block)
        self.track_parents = track_parents
        #: optional watchdog over the engine's whole lifetime: caps total
        #: propagation rounds / generated events / wall clock and raises a
        #: structured BudgetExceeded instead of spinning on a
        #: non-converging (e.g. negative-cycle) workload; ``clock``, an
        #: already running clock of it, carries an earlier engine's spend
        self.budget = budget
        self._budget_clock: BudgetClock | None = clock
        n = self.graph.n_vertices
        #: union-edge index whose candidate last set each vertex value,
        #: per version; -1 = no parent (source / unreached).  Only
        #: maintained when ``track_parents`` is set (deletion support).
        self.parent_edge: np.ndarray | None = None
        if track_parents:
            self.parent_edge = np.full((1, n), -1, dtype=np.int64)
        #: reusable round-loop buffers (see _Scratch); one set per engine,
        #: shared across propagate/apply_additions calls
        self._scratch = _Scratch()
        #: the compiled loop's frontier buffer (see _frontier)
        self._frontier_buf: np.ndarray | None = None
        #: compiled kernel tier (repro.perf.backend): when the backend has
        #: the propagation-loop kernel and the algorithm declares a
        #: kernel_op, a whole propagate (or a batch seed plus its
        #: propagate) is one compiled call instead of a Python loop over
        #: the five-sweep numpy round body.  Algorithms without a
        #: kernel_op (extensions with custom orders) always take the
        #: numpy path.
        self._backend = get_backend()
        op_name = getattr(algorithm, "kernel_op", None)
        self._fused_op: int | None = (
            OPS[op_name]
            if self._backend.daic_round is not None and op_name in OPS
            else None
        )

    def _frontier(self, rows: int) -> np.ndarray:
        """The compiled loop's frontier buffer, ``rows`` rows or more: one
        array for the engine's life (regrown when too short), so the
        kernel wrapper checks its address once."""
        buf = self._frontier_buf
        if buf is None or buf.shape[0] < rows:
            grown = rows if buf is None else max(rows, 2 * buf.shape[0])
            buf = np.zeros((grown, self.graph.n_vertices), dtype=bool)
            self._frontier_buf = buf
        return buf

    def _can_fuse(self, *arrays: np.ndarray) -> bool:
        if self._fused_op is None:
            return False
        return all(a.flags["C_CONTIGUOUS"] for a in arrays)

    # -- state helpers -------------------------------------------------------

    def new_values(self, n_versions: int, source: int) -> np.ndarray:
        """Fresh ``(n_versions, n_vertices)`` value matrix."""
        one = self.algorithm.initial_values(self.graph.n_vertices, source)
        return np.tile(one, (n_versions, 1))

    def _ensure_parent_rows(self, n_versions: int) -> None:
        if self.parent_edge is not None and self.parent_edge.shape[0] < n_versions:
            extra = np.full(
                (n_versions - self.parent_edge.shape[0], self.graph.n_vertices),
                -1,
                dtype=np.int64,
            )
            self.parent_edge = np.vstack([self.parent_edge, extra])

    # -- core propagation ----------------------------------------------------

    def propagate(
        self,
        values: np.ndarray,
        frontier: np.ndarray,
        presence: np.ndarray,
        phase: str = "add",
        parent_rows: np.ndarray | None = None,
    ) -> int:
        """Run rounds until no value changes; returns rounds executed.

        * ``values`` — ``(K, n)`` value matrix, updated in place;
        * ``frontier`` — ``(K, n)`` bool matrix of active events;
        * ``presence`` — ``(K, M)`` bool matrix over union edges (which
          edges exist for each version);
        * ``parent_rows`` — rows of :attr:`parent_edge` corresponding to
          the ``K`` versions (only with ``track_parents``).
        """
        algo = self.algorithm
        graph = self.graph
        k, n = values.shape
        if frontier.shape != (k, n):
            raise ValueError("frontier must match the value matrix shape")
        if presence.shape != (k, graph.n_edges):
            raise ValueError("presence must be (n_versions, n_union_edges)")

        self._start_budget()
        if self._can_fuse(frontier, presence, values):
            return int(self._run_compiled(
                values, frontier, presence, phase, parent_rows
            )[0, 0])
        scratch = self._scratch
        # sampled kernel profiling (repro.obs.profile): one None-check per
        # round when disabled, two perf_counter pairs per sampled round
        prof = active_profiler()
        row_off = np.arange(k, dtype=np.int64)[:, None] * n
        rounds = 0
        while True:
            union_frontier = np.flatnonzero(frontier.any(axis=0))
            if union_frontier.size == 0:
                break
            rounds += 1
            recording = self._recording()
            timing = prof is not None and prof.sample()
            t0 = prof.now() if timing else 0.0
            # After the first round ``frontier`` aliases a ``changed``
            # scratch buffer, which is overwritten in the round body —
            # take its totals before any writes.  Only the budget clock
            # and the trace collector consume them.
            popped_versions = (
                int(frontier.sum())
                if recording or self._budget_clock is not None
                else 0
            )
            if self._budget_clock is not None:
                self._budget_clock.charge(
                    rounds=1,
                    events=popped_versions,
                    stats={"propagate_rounds": rounds},
                )
            edge_idx, src_rep = gather_out_edges(graph.indptr, union_frontier)
            if edge_idx.size == 0:
                if timing:
                    prof.add("edge_gather", prof.now() - t0)
                # frontier vertices with no out-edges still popped events
                self._record_round(
                    phase,
                    events_popped=int(union_frontier.size),
                    events_generated=0,
                    edge_idx=edge_idx,
                    vertex_writes=0,
                    n_versions=k,
                    version_events_popped=popped_versions,
                    version_events_generated=0,
                    version_vertex_writes=0,
                )
                frontier[:] = False
                continue

            e = edge_idx.size
            # (K, E): does version k's frontier contain the edge's source,
            # and does the edge exist in version k's graph?  All round
            # temporaries are gathered into preallocated scratch views so
            # steady-state rounds run without fresh (K, E) allocations.
            active = np.take(
                frontier, src_rep, axis=1,
                out=scratch.get("active", bool, (k, e)),
            )
            active &= np.take(
                presence, edge_idx, axis=1,
                out=scratch.get("pres", bool, (k, e)),
            )
            vals = np.take(
                values, src_rep, axis=1,
                out=scratch.get("vals", np.float64, (k, e)),
            )
            wt = np.take(
                graph.wt, edge_idx, out=scratch.get("wt", np.float64, (e,))
            )
            cand = algo.candidate(vals, wt)
            inactive = np.logical_not(
                active, out=scratch.get("inactive", bool, (k, e))
            )
            np.copyto(cand, algo.mask_value, where=inactive)
            if timing:
                prof.add("edge_gather", prof.now() - t0)
                t0 = prof.now()

            dst = np.take(
                graph.dst, edge_idx, out=scratch.get("dst", np.int64, (e,))
            )
            old = scratch.get("old", np.float64, (k, n))
            np.copyto(old, values)
            flat_dst = np.add(
                row_off, dst[None, :],
                out=scratch.get("flat", np.int64, (k, e)),
            )
            sel = active.ravel()
            flat_idx = flat_dst.ravel()[sel]
            flat_cand = cand.ravel()[sel]
            algo.scatter_reduce(values.reshape(-1), flat_idx, flat_cand)

            # ``frontier`` may alias this pool; it was fully consumed by
            # the gathers above
            changed = algo.better_into(
                values, old, out=scratch.get("changed", bool, (k, n))
            )
            if self.track_parents and parent_rows is not None:
                self._update_parents(
                    parent_rows, changed, flat_idx, flat_cand,
                    np.broadcast_to(edge_idx, (k, e)).ravel()[sel],
                    values,
                )
            if timing:
                prof.add("apply", prof.now() - t0)

            # The unified value array (§3.2) lets the datapath process all
            # versions of a vertex as one row-wide event, so the primary
            # counters are vertex-granular; the per-version scalar totals
            # ride along for analyses that need them.
            if recording:
                self._record_round(
                    phase,
                    events_popped=int(union_frontier.size),
                    events_generated=int(active.any(axis=0).sum()),
                    edge_idx=edge_idx,
                    vertex_writes=int(changed.any(axis=0).sum()),
                    n_versions=k,
                    dst=dst,
                    version_events_popped=popped_versions,
                    version_events_generated=int(active.sum()),
                    version_vertex_writes=int(changed.sum()),
                )
            frontier = changed
        return rounds

    def _start_budget(self) -> None:
        if self.budget is not None and self._budget_clock is None:
            self._budget_clock = self.budget.start()

    def _round_caps(self) -> tuple[int, int]:
        """``(max_rounds, max_events)`` for one compiled call (-1: none).

        A budget caps the call at its remaining allowance, so the loop
        stops exactly where the numpy tier's per-round charge would
        breach; a wall-clock deadline also chunks the loop so the clock
        is read at least every ``_WALL_CLOCK_CHUNK`` rounds.
        """
        caps = []
        events_cap = -1
        clock = self._budget_clock
        if clock is not None:
            budget = clock.budget
            if budget.max_rounds is not None:
                caps.append(max(budget.max_rounds - clock.rounds, 0))
            if budget.wall_clock_s is not None:
                caps.append(_WALL_CLOCK_CHUNK)
            if budget.max_events is not None:
                events_cap = max(budget.max_events - clock.events, 0)
        return (min(caps) if caps else -1), events_cap

    def _run_compiled(
        self,
        values: np.ndarray,
        frontier: np.ndarray,
        presence: np.ndarray,
        phase: str,
        parent_rows: np.ndarray | None,
        seed_edges: np.ndarray | None = None,
        table: StepTable | None = None,
        repair: RepairInputs | None = None,
    ) -> np.ndarray:
        """Run a step table to its end through the compiled loop kernel.

        Without ``table`` the table is one step over ``values``' rows: a
        propagate from ``frontier``, or with ``seed_edges`` the batch
        reader's seed pass first (not a round), recorded into the
        caller's execution.  With ``table`` (a segment) ``values`` and
        ``presence`` hold every state row, ``frontier`` is the frontier
        buffer, each apply step records as its own execution and each
        repair (its TAG, PULL and PROPAGATE, writing ``repair``'s
        outputs) as one.

        One kernel call (plus one per wall-clock chunk), recording or
        not: while a collector records, the kernel writes every pass's
        trace row, edge blocks and touched marks itself.  Returns the
        table's per-step outputs (``STEP_OUT`` columns, rounds first)
        summed over the calls.  Bit-identical to the numpy steps: same
        edge order, same lowest-index parent tie-breaks, same traces.
        """
        graph = self.graph
        track = self.track_parents and (
            parent_rows is not None or table is not None
        )
        kwargs: dict = {}
        n_steps = 1
        if table is not None:
            steps, step_rows, seed_edges = table.columns()
            kwargs.update(steps=steps, step_rows=step_rows, repair=repair)
            n_steps = len(table)
            parent_rows = step_rows
        if track:
            kwargs.update(
                parent_edge=self.parent_edge,
                parent_rows=np.ascontiguousarray(parent_rows, dtype=np.int64),
            )
        collector = self.collector
        record = collector is not None and (
            table is not None or collector.active
        )
        if record:
            if table is not None:
                stamp_base = collector.reserve_stamps(n_steps)
                edge_masks = (
                    np.zeros((n_steps, graph.n_edges), dtype=bool)
                    if collector.record_touched_edges
                    else None
                )
            else:
                stamp_base = collector.stamp
                mask = collector.edge_mask
                edge_masks = None if mask is None else mask[None, :]
            kwargs.update(
                edges_per_block=self.edges_per_block,
                dst_stamp=collector.dst_stamp,
                stamp_base=stamp_base,
                edge_masks=edge_masks,
            )
            touched = [0] * n_steps
        clock = self._budget_clock
        prof = active_profiler()
        totals = None
        first = 0
        resume = False
        while True:
            max_rounds, max_events = self._round_caps()
            t0 = prof.now() if prof is not None else 0.0
            counts = self._backend.daic_round(
                graph.indptr, graph.src_of_edge, graph.dst, graph.wt,
                frontier, presence, values,
                self._fused_op, self.algorithm.minimize, self._scratch.get,
                seed_edges=seed_edges,
                max_rounds=max_rounds,
                max_events=max_events,
                first_step=first,
                resume=resume,
                **kwargs,
            )
            if prof is not None and prof.sample(counts.rounds + counts.seeds):
                prof.add("fused_relax", prof.now() - t0)
            if totals is None:
                totals = counts.steps
            else:
                totals += counts.steps
            if record:
                self._record_steps(
                    phase, values.shape[0], counts, counts.steps.tolist(),
                    first, resume, table, stamp_base, edge_masks, touched,
                )
            if counts.unsupported:
                raise RuntimeError(NOT_A_FIXPOINT)
            if clock is not None and counts.rounds:
                # one charge per call: the call ran within the remaining
                # allowance, so only a wall-clock deadline can breach here
                last = min(counts.stop, n_steps - 1)
                clock.charge(
                    rounds=counts.rounds,
                    events=counts.events,
                    stats={"propagate_rounds": int(totals[last, 0])},
                )
            if not counts.mid:
                return totals
            if counts.stop == first and not (counts.rounds or counts.seeds):
                # the budget's allowance stopped the loop before a round:
                # charge that round as the numpy tier would, which breaches
                clock.charge(
                    rounds=1,
                    events=counts.pending,
                    stats={"propagate_rounds": int(totals[first, 0]) + 1},
                )
                raise AssertionError("budget cap without a breach")
            first, resume = counts.stop, True

    def _record_steps(
        self,
        phase: str,
        n_versions: int,
        counts,
        per_step: list[list[int]],
        first: int,
        resume: bool,
        table: StepTable | None,
        stamp_base: int,
        edge_masks: np.ndarray | None,
        touched: list[int],
    ) -> None:
        """Append each step's slice of a kernel call's trace rows and
        edge-block ids to its execution, one chunk per step.  A segment's
        apply steps open their execution at their first pass and close it
        at their last; a repair's TAG opens its execution and its
        PROPAGATE closes it, and each of its steps' passes are chunks of
        their own phase."""
        collector = self.collector
        r = b = 0
        for s in range(first, min(counts.stop, len(per_step) - 1) + 1):
            n_rows, n_blocks = per_step[s][2:4]
            lead = s
            chunk_phase = phase
            if table is not None:
                kind = table.kinds[s]
                if kind == STEP_COPY or kind == STEP_GROUND:
                    continue
                if kind != STEP_APPLY:
                    chunk_phase = _REPAIR_PHASE[kind]
                    lead = s - _REPAIR_LEAD.get(kind, 0)
                n_versions = len(table.rows[s])
                if (kind == STEP_APPLY or kind == STEP_TAG) and (
                    s != first or not resume
                ):
                    collector.begin(
                        table.tags[s],
                        phase if kind == STEP_APPLY else "del",
                        table.rows[s],
                        stamp=stamp_base + s,
                        touched_edges=(
                            None if edge_masks is None else edge_masks[s]
                        ),
                    )
            if n_rows:
                collector.record(
                    chunk_phase, n_versions, counts.rows[r:r + n_rows],
                    counts.blocks[b:b + n_blocks],
                )
            r += n_rows
            b += n_blocks
            if table is not None:
                touched[lead] += per_step[s][4]
                if kind != STEP_TAG and kind != STEP_PULL and (
                    s < counts.stop or not counts.mid
                ):
                    collector.end(touched_dst_count=touched[lead])

    def _update_parents(
        self,
        parent_rows: np.ndarray,
        changed: np.ndarray,
        flat_idx: np.ndarray,
        flat_cand: np.ndarray,
        flat_edge: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Record the winning in-edge of each changed ``(version, vertex)``."""
        if self.parent_edge is None:
            return
        uniq, best = group_argbest(flat_idx, flat_cand, self.algorithm.minimize)
        if uniq.size == 0:
            return
        n = values.shape[1]
        kv, vv = uniq // n, uniq % n
        is_changed = changed[kv, vv]
        rows = parent_rows[kv[is_changed]]
        self.parent_edge[rows, vv[is_changed]] = flat_edge[best[is_changed]]

    # -- public operations -----------------------------------------------------

    def evaluate_full(
        self,
        presence_row: np.ndarray,
        source: int,
        phase: str = "full",
        tag: str = "full-eval",
        parent_row: int | None = None,
    ) -> np.ndarray:
        """From-scratch evaluation on one graph; returns a ``(n,)`` array."""
        values = self.new_values(1, source)
        frontier = np.zeros((1, self.graph.n_vertices), dtype=bool)
        frontier[0, self.algorithm.initial_frontier(self.graph.n_vertices, source)] = True
        parent_rows = None
        if self.track_parents and parent_row is not None:
            self._ensure_parent_rows(parent_row + 1)
            self.parent_edge[parent_row, :] = -1
            parent_rows = np.array([parent_row])
        self._begin(tag, phase, (0,))
        self.propagate(values, frontier, presence_row[None, :], phase, parent_rows)
        self._end()
        return values[0]

    def run_worklist(
        self,
        n_rows: int,
        evals: np.ndarray,
        edge_tag: np.ndarray,
        table: StepTable | None = None,
        marks: np.ndarray | None = None,
    ) -> WorklistRun | None:
        """A value-only plan on the worklist kernel, or None where it does
        not run; the caller then runs the plan on the round loop.

        ``n_rows`` value rows, each row's graph told by ``edge_tag``
        (``_kernels.c``: -1 the base graph, -2 no row, ``s`` the rows
        holding ``table``'s step ``s``).  Each ``evals`` ``(row,
        source)`` evaluates its row from scratch on the base graph, then
        ``table``'s COPY and APPLY steps run, each APPLY on a worklist
        whose entries carry the rows a vertex improved in; ``marks``
        names the rows summarised.  No rounds, so no trace, parent or
        round or event budget: only a wall clock, read every
        ``_WORKLIST_CHUNK`` pops.  Every row reaches the round loop's
        fixpoint bit for bit.  None on the numpy tier, for an algorithm
        without a ``kernel_op``, and where the kernel refuses: a NaN
        candidate, whose poison depends on the relaxation order, and a
        pass past ``n * (n + 1)`` pops.  A FIFO worklist settles every
        graph whose best paths are simple within n passes of at most n
        pops; past that the pass climbs a cycle, and the round loop
        reruns the plan to fail or converge as it always has.
        """
        kernel = self._backend.worklist_eval
        if kernel is None or self._fused_op is None:
            return None
        graph = self.graph
        algo = self.algorithm
        n = graph.n_vertices
        steps, step_rows, seeds = (
            _NO_STEPS if table is None else table.columns()
        )
        n_steps = steps.shape[0]
        values = np.empty((n_rows, n), dtype=np.float64)
        applied = self._scratch.get(
            "applied", np.uint8, (n_rows, max(n_steps, 1))
        )
        work = self._scratch.get(
            "worklist", np.int64, (worklist_work(n, n_steps),)
        )
        state = self._scratch.get("state", np.int64, (WORKLIST_STATE,))
        reached = checksum = None
        if marks is not None:
            reached = np.empty(marks.shape[0], dtype=np.int64)
            checksum = np.empty(marks.shape[0], dtype=np.float64)
        self._start_budget()
        clock = self._budget_clock
        chunk = (
            _WORKLIST_CHUNK
            if clock is not None and clock.budget.wall_clock_s is not None
            else -1
        )
        prof = active_profiler()
        resume = False
        while True:
            t0 = prof.now() if prof is not None else 0.0
            status = kernel(
                graph.indptr, graph.src_of_edge, graph.dst, graph.wt,
                edge_tag, evals, steps, step_rows, seeds, values, applied,
                self._fused_op, algo.minimize, float(algo.identity),
                float(algo.source_value), work, state, marks, reached,
                checksum, max_pops=chunk, resume=resume,
            )
            resume = True
            pops = int(state[5])
            if prof is not None and prof.sample():
                prof.add("fused_relax", prof.now() - t0)
            if clock is not None:
                clock.charge(stats={"worklist_pops": pops})
            if status == WORKLIST_DONE:
                return WorklistRun(
                    values, reached, checksum, pops, int(state[6])
                )
            if status != WORKLIST_PAUSED:
                return None

    def apply_additions(
        self,
        values: np.ndarray,
        batch_edge_idx: np.ndarray,
        presence: np.ndarray,
        phase: str = "add",
        tag: str = "batch",
        targets: tuple[int, ...] = (0,),
        parent_rows: np.ndarray | None = None,
    ) -> int:
        """Incrementally apply an addition batch to ``K`` versions at once.

        ``values`` is ``(K, n)`` and updated in place; ``presence`` must
        already include the batch's edges for every target version.  The
        batch reader pass (round 0) scatters the batch edges' candidates,
        then propagation runs to a fixpoint.  Returns rounds executed
        (including the seeding round when it produced work).
        """
        self._begin(tag, phase, targets)
        edge_idx = np.ascontiguousarray(batch_edge_idx, dtype=np.int64)
        if self._can_fuse(presence, values):
            self._start_budget()
            rounds = int(self._run_compiled(
                values,
                self._frontier(values.shape[0]),
                presence,
                phase,
                parent_rows,
                seed_edges=edge_idx,
            )[0, 0])
        else:
            changed = self._seed_batch(
                values, edge_idx, presence, phase, parent_rows
            )
            rounds = self.propagate(
                values, changed, presence, phase, parent_rows
            )
        self._end()
        return rounds + 1

    def run_segment(
        self, values: np.ndarray, presence: np.ndarray, table: StepTable
    ) -> list[DeletionStats]:
        """Run a plan segment's copy, apply and repair steps in order.

        ``values`` ``(S, n)`` and ``presence`` ``(S, M)`` hold every
        state row and are updated in place; each apply step sets its
        batch edges in its targets' presence rows, then applies them as
        one multi-version batch (phase ``"add"``, its own execution when
        recording); each deletion clears its edges in its row's presence
        and runs the KickStarter repair (one ``"del"`` execution), and a
        grounding rebuilds its row's parent forest.  With
        ``track_parents`` each target row is its own parent row; repairs
        need it.  Returns each deletion's :class:`DeletionStats`, in
        table order.  The compiled tier runs the whole table in one loop
        call; the numpy tier's step loop, through
        :class:`DeletionRepair` and :func:`reconstruct_parents`, is the
        parity reference.
        """
        if self.track_parents:
            self._ensure_parent_rows(
                max(r for rows in table.rows for r in rows) + 1
            )
        elif STEP_TAG in table.kinds or STEP_GROUND in table.kinds:
            raise ValueError("deletion repair requires parent tracking")
        if self._can_fuse(values, presence):
            self._start_budget()
            repair = self._repair_inputs(table)
            totals = self._run_compiled(
                values,
                self._frontier(table.max_rows),
                presence,
                "add",
                None,
                table=table,
                repair=repair,
            )
            if repair is None:
                return []
            tags = [s for s, kind in enumerate(table.kinds) if kind == STEP_TAG]
            return [
                DeletionStats(
                    tagged_vertices=tagged,
                    tag_events=events,
                    tag_rounds=passes,
                    recompute_rounds=int(totals[s + 2, 0]),
                    tagged_mask=repair.tagged[q],
                )
                for q, (s, (tagged, events, passes)) in enumerate(
                    zip(tags, repair.stats.tolist())
                )
            ]
        stats = []
        for kind, rows, edge_idx, tag in zip(
            table.kinds, table.rows, table.seeds, table.tags
        ):
            if kind == STEP_COPY:
                src, dst = rows
                values[dst] = values[src]
                presence[dst] = presence[src]
                if self.track_parents:
                    self.parent_edge[dst] = self.parent_edge[src]
                continue
            if kind == STEP_GROUND:
                reconstruct_parents(
                    self, values[rows[0]], presence[rows[0]], table.source,
                    parent_row=rows[0],
                )
                continue
            if kind == STEP_TAG:
                row = rows[0]
                presence[row, edge_idx] = False
                stats.append(DeletionRepair(self).apply_deletions(
                    values[row], edge_idx, presence[row], table.source,
                    parent_row=row, tag=tag,
                ))
                continue
            if kind != STEP_APPLY:
                continue  # a repair's pull and recompute: run with its TAG
            targets = list(rows)
            for t in targets:
                presence[t, edge_idx] = True
            parent_rows = np.array(targets) if self.track_parents else None
            if len(targets) == 1:
                self.apply_additions(
                    values[targets[0]][None, :], edge_idx,
                    presence[targets[0]][None, :], phase="add", tag=tag,
                    targets=rows, parent_rows=parent_rows,
                )
                continue
            sub_values = values[targets]
            self.apply_additions(
                sub_values, edge_idx, presence[targets], phase="add",
                tag=tag, targets=rows, parent_rows=parent_rows,
            )
            values[targets] = sub_values
        return stats

    def _repair_inputs(self, table: StepTable) -> RepairInputs | None:
        """The compiled repair steps' scalars, zeroed outputs and, when
        recording, the transpose (None for a table without repair
        steps).  Unrecorded, the pull reads the forward edges, so a
        window slide never builds its union's transpose."""
        n_tags = table.kinds.count(STEP_TAG)
        if not n_tags and STEP_GROUND not in table.kinds:
            return None
        unified = self.unified
        rev_indptr = rev_src = origin = None
        if self.collector is not None:
            rev = unified.reverse_graph()
            rev_indptr, rev_src = rev.indptr, rev.dst
            origin = unified.reverse_edge_origin
        n = self.graph.n_vertices
        return RepairInputs(
            rev_indptr, rev_src, origin,
            self.reverse_block_offset, table.source,
            float(self.algorithm.identity),
            float(self.algorithm.source_value),
            np.empty((n_tags, n), dtype=bool),
            np.zeros((n_tags, REPAIR_STATS), dtype=np.int64),
        )

    @property
    def reverse_block_offset(self) -> int:
        """Block-id offset for the transpose (CSC) edge arrays, which live
        in their own memory region and must not alias the CSR blocks in
        the cache model."""
        epb = self.edges_per_block
        return ((self.graph.n_edges + epb - 1) // epb) * epb

    def _seed_batch(
        self,
        values: np.ndarray,
        edge_idx: np.ndarray,
        presence: np.ndarray,
        phase: str,
        parent_rows: np.ndarray | None,
    ) -> np.ndarray:
        """The numpy batch-reader pass (round 0): every batch edge present
        in a target version relaxes once; returns the changed matrix."""
        algo = self.algorithm
        graph = self.graph
        k, n = values.shape
        prof = active_profiler()
        timing = prof is not None and prof.sample()
        t0 = prof.now() if timing else 0.0
        scratch = self._scratch
        e = edge_idx.size
        src = np.take(
            graph.src_of_edge, edge_idx,
            out=scratch.get("src", np.int64, (e,)),
        )
        dst = np.take(
            graph.dst, edge_idx, out=scratch.get("dst", np.int64, (e,))
        )
        present = np.take(
            presence, edge_idx, axis=1,
            out=scratch.get("pres", bool, (k, e)),
        )
        vals = np.take(
            values, src, axis=1,
            out=scratch.get("vals", np.float64, (k, e)),
        )
        wt = np.take(
            graph.wt, edge_idx, out=scratch.get("wt", np.float64, (e,))
        )
        cand = algo.candidate(vals, wt)
        absent = np.logical_not(
            present, out=scratch.get("inactive", bool, (k, e))
        )
        np.copyto(cand, algo.mask_value, where=absent)

        old = scratch.get("old", np.float64, (k, n))
        np.copyto(old, values)
        flat_dst = np.add(
            np.arange(k, dtype=np.int64)[:, None] * n, dst[None, :],
            out=scratch.get("flat", np.int64, (k, e)),
        )
        sel = present.ravel()
        flat_idx = flat_dst.ravel()[sel]
        flat_cand = cand.ravel()[sel]
        algo.scatter_reduce(values.reshape(-1), flat_idx, flat_cand)
        changed = algo.better_into(
            values, old, out=scratch.get("changed", bool, (k, n))
        )
        if self.track_parents and parent_rows is not None:
            self._update_parents(
                parent_rows, changed, flat_idx, flat_cand,
                np.broadcast_to(edge_idx, (k, e)).ravel()[sel],
                values,
            )
        if timing:
            prof.add("batch_seed", prof.now() - t0)
        # Round 0: the batch reader fetches the batch edges and generates
        # one (row-wide) event per batch edge live in any target version.
        if self._recording():
            self._record_round(
                phase,
                events_popped=0,
                events_generated=int(present.any(axis=0).sum()),
                edge_idx=edge_idx,
                vertex_writes=int(changed.any(axis=0).sum()),
                n_versions=k,
                dst=dst,
                version_events_popped=0,
                version_events_generated=int(present.sum()),
                version_vertex_writes=int(changed.sum()),
            )
        return changed

    # -- trace plumbing ----------------------------------------------------------

    def _begin(self, tag: str, phase: str, targets: tuple[int, ...]) -> None:
        if self.collector is not None and not self.collector.active:
            self.collector.begin(tag, phase, targets)
            self._owns_execution = True
        else:
            self._owns_execution = False

    def _end(self) -> None:
        if self.collector is not None and self._owns_execution:
            self.collector.end()

    def _recording(self) -> bool:
        """Is a trace collector actively recording?  The hot round loop
        skips computing per-round statistics entirely when not."""
        return self.collector is not None and self.collector.active

    def _record_round(
        self,
        phase: str,
        events_popped: int,
        events_generated: int,
        edge_idx: np.ndarray,
        vertex_writes: int,
        n_versions: int,
        version_events_popped: int,
        version_events_generated: int,
        version_vertex_writes: int,
        dst: np.ndarray | None = None,
        blocks: np.ndarray | None = None,
    ) -> None:
        """The numpy tier's trace of one pass — the reference the
        compiled kernel's record mode must reproduce — as one trace row.
        ``blocks`` overrides the edge-block ids of ``edge_idx``."""
        if self.collector is None or not self.collector.active:
            return
        if blocks is None:
            blocks = edge_blocks(edge_idx, self.edges_per_block)
        row = np.array(
            [[
                events_popped, events_generated, edge_idx.size,
                vertex_writes, version_events_popped,
                version_events_generated, version_vertex_writes,
                blocks.size,
            ]],
            dtype=np.int64,
        )
        self.collector.record(
            phase, n_versions, row, blocks.astype(np.int64, copy=False),
            edge_idx, dst,
        )
