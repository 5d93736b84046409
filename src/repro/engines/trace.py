"""Execution traces emitted by the propagation engines.

The accelerator simulators are *trace-driven*: the functional engines run
the actual graph computation and record one trace row per asynchronous
round (a round = one wave of coalesced events, the unit the paper plots
in Fig. 10), held as int64 columns per execution.  The timing models then
replay the traces against the modelled hardware (PEs, queues, NoC,
caches, DRAM); :class:`RoundTrace` is the one-round view of a row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ROW_FIELDS",
    "TRACE_ROW",
    "RoundTrace",
    "ExecutionTrace",
    "TraceCollector",
    "edge_blocks",
]


def edge_blocks(edge_idx: np.ndarray, edges_per_block: int) -> np.ndarray:
    """Sorted unique edge-block ids of a pass's gathered edges.

    Gathers over a sorted frontier (and a monotone ``indptr``) yield
    ascending edge ids, so uniquing their block ids is a run-boundary
    scan; edges in any other order (a batch) fall back to a sort.
    """
    blocks = edge_idx // edges_per_block
    if blocks.shape[0] <= 1:
        return blocks
    if np.any(blocks[1:] < blocks[:-1]):
        return np.unique(blocks)
    keep = np.empty(blocks.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(blocks[1:], blocks[:-1], out=keep[1:])
    return blocks[keep]


@dataclass
class RoundTrace:
    """Aggregate activity of one asynchronous round.

    * ``events_popped`` — coalesced events executed (one per active
      ``(vertex, version)`` pair);
    * ``events_generated`` — outgoing delta messages produced (one per
      traversed ``(edge, version)`` pair);
    * ``edges_fetched`` — *union* edge slots gathered from memory; shared
      across versions, which is exactly BOE's reuse win;
    * ``edge_blocks`` — unique edge-block ids touched (cache-line granular);
    * ``vertex_reads`` / ``vertex_writes`` — value-array accesses;
    * ``n_versions`` — versions sharing this round's edge fetches.

    The destination vertices a round touches are not kept per round: the
    collector folds them into its execution's
    :attr:`ExecutionTrace.touched_dst_count`, the only figure the timing
    models read from them.
    """

    phase: str
    events_popped: int
    events_generated: int
    edges_fetched: int
    edge_blocks: np.ndarray
    vertex_reads: int
    vertex_writes: int
    n_versions: int
    #: per-(vertex, version) scalar work, for analyses that need it.  In a
    #: multi-version round the datapath processes one row-wide event per
    #: vertex (the unified value array of §3.2), so the primary counters
    #: above are vertex-granular; these record the un-amortized totals.
    version_events_popped: int = 0
    version_events_generated: int = 0
    version_vertex_writes: int = 0


#: the int64 columns of a recorded round, in the compiled loop kernel's
#: trace-row layout (DAIC_ROW in ``_kernels.c``); a round's vertex reads
#: are its popped plus generated events, so they take no column
ROW_FIELDS = (
    "events_popped",
    "events_generated",
    "edges_fetched",
    "vertex_writes",
    "version_events_popped",
    "version_events_generated",
    "version_vertex_writes",
    "n_blocks",
)
TRACE_ROW = len(ROW_FIELDS)


@dataclass(eq=False)
class ExecutionTrace:
    """All rounds of one logical execution (one batch application or one
    full evaluation), plus which versions it targeted.

    The rounds are held as columns, in chunks as they were recorded: a
    chunk is an ``(r, TRACE_ROW)`` int64 row block in the
    :data:`ROW_FIELDS` layout (a compiled call's rows for one step, or one
    numpy-tier pass), its rounds' edge-block ids concatenated, its round
    phase and its version count.  The timing replay reads the chunks;
    :attr:`rounds` builds :class:`RoundTrace` views only when read.
    """

    tag: str
    phase: str
    targets: tuple[int, ...]
    #: bool mask over union edges fetched at least once (reuse metrics)
    touched_edges: np.ndarray | None = None
    #: unique destination vertices touched across the whole execution —
    #: the coalesced event-queue cells, which bound partition spill traffic
    touched_dst_count: int = 0
    #: rounds recorded, over all chunks
    n_rounds: int = field(default=0, init=False)
    row_chunks: list[np.ndarray] = field(
        default_factory=list, init=False, repr=False
    )
    block_chunks: list[np.ndarray] = field(
        default_factory=list, init=False, repr=False
    )
    chunk_phases: list[str] = field(
        default_factory=list, init=False, repr=False
    )
    chunk_versions: list[int] = field(
        default_factory=list, init=False, repr=False
    )
    _views: tuple[RoundTrace, ...] | None = field(
        default=None, init=False, repr=False
    )

    def append(
        self, phase: str, n_versions: int, rows: np.ndarray, blocks: np.ndarray
    ) -> None:
        """Append a chunk of rounds (layout in the class docstring)."""
        self.row_chunks.append(rows)
        self.block_chunks.append(blocks)
        self.chunk_phases.append(phase)
        self.chunk_versions.append(n_versions)
        self.n_rounds += len(rows)
        self._views = None

    @property
    def rounds(self) -> tuple[RoundTrace, ...]:
        """One read-only :class:`RoundTrace` per round, built on first
        read; ``edge_blocks`` are views into the chunks' block ids."""
        if self._views is None:
            views = []
            for rows, blocks, phase, k in zip(
                self.row_chunks, self.block_chunks, self.chunk_phases,
                self.chunk_versions,
            ):
                b = 0
                for (popped, generated, fetched, writes, version_popped,
                     version_generated, version_writes,
                     n_blocks) in rows.tolist():
                    views.append(RoundTrace(
                        phase=phase,
                        events_popped=popped,
                        events_generated=generated,
                        edges_fetched=fetched,
                        edge_blocks=blocks[b:b + n_blocks],
                        vertex_reads=popped + generated,
                        vertex_writes=writes,
                        n_versions=k,
                        version_events_popped=version_popped,
                        version_events_generated=version_generated,
                        version_vertex_writes=version_writes,
                    ))
                    b += n_blocks
            self._views = tuple(views)
        return self._views

    def _column_sum(self, col: int) -> int:
        return sum(int(rows[:, col].sum()) for rows in self.row_chunks)

    @property
    def events_popped(self) -> int:
        return self._column_sum(0)

    @property
    def events_generated(self) -> int:
        return self._column_sum(1)

    @property
    def edges_fetched(self) -> int:
        return self._column_sum(2)

    @property
    def vertex_reads(self) -> int:
        return self.events_popped + self.events_generated

    @property
    def vertex_writes(self) -> int:
        return self._column_sum(3)

    def events_per_round(self) -> list[int]:
        """The Fig. 10 series: coalesced events processed per round."""
        return [
            popped for rows in self.row_chunks for popped in rows[:, 0].tolist()
        ]


class TraceCollector:
    """Accumulates execution traces across a whole workflow run.

    ``record_touched_edges`` enables the per-execution union-edge masks
    needed by the reuse studies (Figs. 4/5); it costs one bool array per
    execution, so it is off by default.  With ``n_vertices`` the
    collector counts each execution's touched destinations through one
    stamp array: an execution stamps the vertices it reaches with its own
    serial, so no per-execution mask is cleared or allocated.
    """

    def __init__(
        self,
        n_union_edges: int = 0,
        record_touched_edges: bool = False,
        n_vertices: int = 0,
    ) -> None:
        self.executions: list[ExecutionTrace] = []
        self.n_union_edges = n_union_edges
        self.n_vertices = n_vertices
        self.record_touched_edges = record_touched_edges
        self._current: ExecutionTrace | None = None
        #: the serial of the execution that last stamped each vertex
        #: (None when counting no vertices); kernels recording a round
        #: stamp it too
        self.dst_stamp: np.ndarray | None = (
            np.full(n_vertices, -1, dtype=np.int64) if n_vertices else None
        )
        #: the current execution's serial; serials are never reused
        self.stamp = -1
        self._next_stamp = 0

    def reserve_stamps(self, count: int) -> int:
        """The first of ``count`` fresh serials, for executions a kernel
        runs (and stamps) before they :meth:`begin`."""
        first = self._next_stamp
        self._next_stamp += count
        return first

    def begin(
        self,
        tag: str,
        phase: str,
        targets: tuple[int, ...],
        stamp: int | None = None,
        touched_edges: np.ndarray | None = None,
    ) -> ExecutionTrace:
        """Open an execution; ``stamp`` is its reserved serial and
        ``touched_edges`` its edge mask, when a kernel fills them."""
        if self._current is not None:
            raise RuntimeError("nested executions are not supported")
        if touched_edges is None and self.record_touched_edges:
            touched_edges = np.zeros(self.n_union_edges, dtype=bool)
        self._current = ExecutionTrace(tag, phase, targets, touched_edges)
        self.stamp = self.reserve_stamps(1) if stamp is None else stamp
        return self._current

    def record(
        self,
        phase: str,
        n_versions: int,
        rows: np.ndarray,
        blocks: np.ndarray,
        edge_idx: np.ndarray | None = None,
        dst: np.ndarray | None = None,
    ) -> None:
        """Append a chunk of rounds to the current execution (layout in
        :class:`ExecutionTrace`); ``edge_idx`` and ``dst`` (the chunk's
        gathered edges and the vertices they reach) mark its masks."""
        if self._current is None:
            raise RuntimeError("round recorded outside an execution")
        self._current.append(phase, n_versions, rows, blocks)
        if self._current.touched_edges is not None and edge_idx is not None:
            self._current.touched_edges[edge_idx] = True
        if self.dst_stamp is not None and dst is not None:
            self.dst_stamp[dst] = self.stamp

    @property
    def edge_mask(self) -> np.ndarray | None:
        """The current execution's touched-edge mask (None unless
        ``record_touched_edges``), for kernels that set it."""
        return None if self._current is None else self._current.touched_edges

    def end(self, touched_dst_count: int | None = None) -> ExecutionTrace:
        """Close the execution.  ``touched_dst_count`` is its count of
        stamped vertices when the caller kept it; otherwise the stamps
        are counted."""
        if self._current is None:
            raise RuntimeError("no execution in progress")
        done, self._current = self._current, None
        if self.dst_stamp is not None:
            done.touched_dst_count = (
                int(np.count_nonzero(self.dst_stamp == self.stamp))
                if touched_dst_count is None
                else touched_dst_count
            )
        self.executions.append(done)
        return done

    @property
    def active(self) -> bool:
        return self._current is not None

    # -- aggregates ---------------------------------------------------------

    def total(self, attr: str) -> int:
        return sum(getattr(e, attr) for e in self.executions)

    def by_phase(self, phase: str) -> list[ExecutionTrace]:
        return [e for e in self.executions if e.phase == phase]
