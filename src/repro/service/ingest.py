"""The ingest path: append a delta batch and advance the window.

An evolving-graph service is defined by serving *while the graph changes*.
A :class:`DeltaBatch` is one transition's worth of edge churn (``Δ+`` and
``Δ-``); applying it slides the window forward one snapshot via
:func:`repro.evolving.window.slide_window`, exactly as
:class:`~repro.core.window_server.WindowServer` does — but here the value
maintenance is left to the workers, which recompute coalesced BOE plans on
the slid scenario on demand.

The live scenario is defined *reproducibly*: the base scenario (graph,
scale, snapshots — deterministic by construction) plus the ordered log of
ingested deltas.  The coordinator reconstructs epoch ``e`` by applying
``log[:e]`` (or only the suffix past the epoch it already holds) and
publishes the result for the workers (:mod:`repro.service.shm`); the log
itself never leaves the coordinator.

The log is a :class:`DeltaLog`: the five delta columns of every epoch
concatenated into growable buffers, plus two offset arrays, plus each
epoch's JSON wire text once a compaction snapshot has encoded it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.evolving.snapshots import EvolvingScenario
from repro.evolving.window import slide_window
from repro.graph.edges import EdgeList

__all__ = ["DeltaBatch", "DeltaLog", "apply_delta", "synthesize_delta"]


@dataclass
class DeltaBatch:
    """One transition of edge churn, in plain arrays (cheap to pickle)."""

    add_src: np.ndarray
    add_dst: np.ndarray
    add_wt: np.ndarray
    del_src: np.ndarray
    del_dst: np.ndarray
    #: provenance for logs/benchmarks (seeded synthesis or external feed)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.add_src = np.asarray(self.add_src, dtype=np.int64)
        self.add_dst = np.asarray(self.add_dst, dtype=np.int64)
        self.add_wt = np.asarray(self.add_wt, dtype=np.float64)
        self.del_src = np.asarray(self.del_src, dtype=np.int64)
        self.del_dst = np.asarray(self.del_dst, dtype=np.int64)

    @property
    def n_additions(self) -> int:
        return int(self.add_src.size)

    @property
    def n_deletions(self) -> int:
        return int(self.del_src.size)

    def additions(self, n_vertices: int) -> EdgeList:
        return EdgeList(n_vertices, self.add_src, self.add_dst, self.add_wt)

    def deletions(self) -> list[tuple[int, int]]:
        return list(zip(self.del_src.tolist(), self.del_dst.tolist()))

    @classmethod
    def from_lists(cls, adds, dels, **meta) -> "DeltaBatch":
        """Build from ``[[u, v, w?], ...]`` / ``[[u, v], ...]`` rows
        (the JSON-lines front end's and the WAL's wire format).

        Empty lists are fine (a pure-addition or pure-deletion batch);
        a malformed row raises ``ValueError`` with its index, never an
        ``IndexError``/``TypeError`` from deep inside numpy.
        """
        try:
            adds = [tuple(a) for a in adds]
            dels = [tuple(d) for d in dels]
        except TypeError as exc:
            raise ValueError(f"delta rows must be [u, v(, w)] lists: {exc}") from exc
        for i, a in enumerate(adds):
            if len(a) not in (2, 3):
                raise ValueError(
                    f"addition row {i} must be [u, v] or [u, v, w]; got {a!r}"
                )
        for i, d in enumerate(dels):
            if len(d) != 2:
                raise ValueError(
                    f"deletion row {i} must be [u, v]; got {d!r}"
                )
        return cls(
            add_src=np.array([a[0] for a in adds], dtype=np.int64),
            add_dst=np.array([a[1] for a in adds], dtype=np.int64),
            add_wt=np.array(
                [a[2] if len(a) > 2 else 1.0 for a in adds], dtype=np.float64
            ),
            del_src=np.array([d[0] for d in dels], dtype=np.int64),
            del_dst=np.array([d[1] for d in dels], dtype=np.int64),
            meta=dict(meta),
        )

    def refuse_nan_weights(self) -> None:
        """``ValueError`` naming the first addition row with a NaN weight.

        A NaN weight poisons values in an order-dependent way, so a
        window holding one has no parent forest to repair: every later
        deletion slide would fail.  The ingest path calls this before the
        WAL append.  Recovery and replication do not: a record an older
        WAL already holds still replays (recovery never raises), and a
        sliding window over it refuses its deletion slides with
        ``values are not a fixpoint``.
        """
        bad = np.flatnonzero(np.isnan(self.add_wt))
        if bad.size:
            raise ValueError(f"addition row {int(bad[0])} has a NaN weight")

    # -- WAL wire format ---------------------------------------------------

    def to_wire(self) -> dict:
        """JSON-able form, exact enough to replay: ``from_wire`` inverts."""
        return {
            "adds": [
                [int(u), int(v), float(w)]
                for u, v, w in zip(self.add_src, self.add_dst, self.add_wt)
            ],
            "dels": [
                [int(u), int(v)]
                for u, v in zip(self.del_src, self.del_dst)
            ],
            "meta": dict(self.meta),
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "DeltaBatch":
        return cls.from_lists(
            wire.get("adds", []), wire.get("dels", []),
            **wire.get("meta", {}),
        )


def _grown(buf: np.ndarray, used: int, need: int) -> np.ndarray:
    """``buf`` if it holds ``need`` rows, else a copy of its first
    ``used`` rows in a buffer of at least twice the capacity."""
    if need <= buf.shape[0]:
        return buf
    out = np.empty(max(need, 2 * buf.shape[0], 16), dtype=buf.dtype)
    out[:used] = buf[:used]
    return out


def _written(cols: tuple, lo: int, hi: int, rows: tuple) -> tuple:
    """``cols`` with ``rows`` stored at ``lo:hi``, each column grown as
    needed; the rows below ``lo`` are left as they are."""
    out = []
    for col, new in zip(cols, rows):
        col = _grown(col, lo, hi)
        col[lo:hi] = new
        out.append(col)
    return tuple(out)


class DeltaLog:
    """The ordered ingest log as packed columns.

    Epoch ``i``'s additions are rows ``add_off[i]:add_off[i+1]`` of the
    ``add_src``/``add_dst``/``add_wt`` columns, its deletions rows
    ``del_off[i]:del_off[i+1]`` of ``del_src``/``del_dst``.  ``log[i]``
    is that epoch as a :class:`DeltaBatch` of array views; ``log[a:b]``
    is an O(1) read-only view of epochs ``a..b-1`` that indexes from 0,
    like a list slice.

    Rows already written are never overwritten: :meth:`append` only
    writes past the end (growth copies into a larger buffer).  So a view
    taken under the owner's lock stays valid after the lock is released,
    whatever the owner appends next.

    :meth:`wire_text` memoizes each epoch's wire text in ``_wires``,
    beside ``_metas``, so a compaction snapshot encodes an epoch once,
    not once per compaction.
    """

    __slots__ = (
        "_adds", "_dels", "_add_off", "_del_off", "_metas", "_wires",
        "_lo", "_hi", "_view",
    )

    def __init__(self, batches=()) -> None:
        empty = np.empty(0, dtype=np.int64)
        self._adds = (empty, empty, np.empty(0, dtype=np.float64))
        self._dels = (empty, empty)
        self._add_off = np.zeros(1, dtype=np.int64)
        self._del_off = np.zeros(1, dtype=np.int64)
        self._metas: list[dict] = []
        self._wires: list[str | None] = []
        self._lo = self._hi = 0
        self._view = False
        for batch in batches:
            self.append(batch)

    # -- owner mutations (coordinator, under its graph lock) ---------------

    def _check_owner(self) -> None:
        if self._view:
            raise TypeError("a DeltaLog slice is a read-only view")

    def append(self, batch: DeltaBatch) -> None:
        """Add one epoch at the end of the log."""
        self._check_owner()
        n = self._hi
        a0, d0 = int(self._add_off[n]), int(self._del_off[n])
        a1, d1 = a0 + batch.n_additions, d0 + batch.n_deletions
        self._adds = _written(
            self._adds, a0, a1, (batch.add_src, batch.add_dst, batch.add_wt)
        )
        self._dels = _written(self._dels, d0, d1, (batch.del_src, batch.del_dst))
        self._add_off, self._del_off = _written(
            (self._add_off, self._del_off), n + 1, n + 2, (a1, d1)
        )
        self._metas.append(batch.meta)
        self._wires.append(None)
        self._hi = n + 1

    # -- reads ---------------------------------------------------------------

    def __len__(self) -> int:
        return self._hi - self._lo

    def __iter__(self):
        for i in range(self._lo, self._hi):
            yield self._batch(i)

    def __getitem__(self, key):
        n = len(self)
        if isinstance(key, slice):
            start, stop, step = key.indices(n)
            if step != 1:
                raise ValueError("DeltaLog slices take no step")
            view = object.__new__(DeltaLog)
            for name in self.__slots__:
                setattr(view, name, getattr(self, name))
            view._lo = self._lo + start
            view._hi = self._lo + max(start, stop)
            view._view = True
            return view
        i = int(key)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"epoch {key} outside a log of {n}")
        return self._batch(self._lo + i)

    def wire_text(self) -> str:
        """The log as JSON text, byte for byte
        ``json.dumps([b.to_wire() for b in log], sort_keys=True)``.

        An epoch is encoded on its first call and its text kept, so each
        call costs the epochs no earlier call encoded plus one join.  A
        view fills the text its owner shares: the text of an epoch never
        changes once written.
        """
        wires = self._wires
        for i in range(self._lo, self._hi):
            if wires[i] is None:
                wires[i] = json.dumps(self._batch(i).to_wire(), sort_keys=True)
        return "[" + ", ".join(wires[self._lo:self._hi]) + "]"

    def extends(self, prefix: "DeltaLog") -> bool:
        """Whether this log's first ``len(prefix)`` epochs are
        ``prefix``'s epochs, row for row and meta for meta."""
        n = len(prefix)
        mine, theirs = self[:n], prefix[:n]
        if len(mine) < n:
            return False
        if mine._metas[mine._lo:mine._hi] != theirs._metas[theirs._lo:theirs._hi]:
            return False
        return all(
            np.array_equal(a, b, equal_nan=True)
            for a, b in zip(mine._epoch_rows(), theirs._epoch_rows())
        )

    def _epoch_rows(self) -> list[np.ndarray]:
        """Each epoch's addition and deletion counts, then its rows."""
        lo, hi = self._lo, self._hi
        return [
            np.diff(self._add_off[lo:hi + 1]),
            np.diff(self._del_off[lo:hi + 1]),
            *self._columns(lo, hi),
        ]

    def _columns(self, lo: int, hi: int) -> list[np.ndarray]:
        """The five columns' rows for epochs ``lo..hi-1``, in
        :class:`DeltaBatch` field order."""
        a0, a1 = int(self._add_off[lo]), int(self._add_off[hi])
        d0, d1 = int(self._del_off[lo]), int(self._del_off[hi])
        return [col[a0:a1] for col in self._adds] + [col[d0:d1] for col in self._dels]

    def _batch(self, i: int) -> DeltaBatch:
        return DeltaBatch(*self._columns(i, i + 1), meta=self._metas[i])

    def __repr__(self) -> str:
        return f"DeltaLog(epochs={len(self)}, view={self._view})"


def apply_delta(scenario: EvolvingScenario, delta: DeltaBatch) -> EvolvingScenario:
    """Advance the window by ``delta``; returns a *new* scenario.

    Pure — safe to apply to a scenario held in a shared cache (callers
    must never mutate cached scenarios in place; see
    :func:`repro.experiments.runner.scenario_cache`).
    """
    slide = slide_window(
        scenario.unified,
        delta.additions(scenario.n_vertices),
        delta.deletions(),
    )
    meta = dict(scenario.metadata)
    meta["epoch"] = meta.get("epoch", 0) + 1
    return EvolvingScenario(
        slide.unified,
        source=scenario.source,
        name=scenario.name,
        metadata=meta,
    )


def synthesize_delta(
    scenario: EvolvingScenario,
    seed: int,
    n_add: int = 8,
    n_del: int = 8,
) -> DeltaBatch:
    """Seeded churn for the load harness (and `serve` without a feed).

    Deletions are drawn from the scenario's *common* edges — present in
    every snapshot and untouched inside the window, so the CommonGraph
    one-change-per-edge rule can never reject them no matter how many
    deltas have been applied before.  Additions are sampled pairs absent
    from the union.
    """
    u = scenario.unified
    rng = np.random.default_rng(seed)

    common = np.flatnonzero((u.add_step < 0) & (u.del_step < 0))
    n_del = min(n_del, common.size)
    del_slots = rng.choice(common, size=n_del, replace=False)
    del_src = u.graph.src_of_edge[del_slots]
    del_dst = u.graph.dst[del_slots]

    n_vertices = u.n_vertices
    # the union CSR's rows are (src, dst)-sorted: a binary search per
    # candidate beats hashing every union edge on every seeded ingest
    accepted: set[tuple[int, int]] = set()
    add_src, add_dst = [], []
    attempts = 0
    while len(add_src) < n_add and attempts < 50 * max(n_add, 1):
        attempts += 1
        s = int(rng.integers(n_vertices))
        d = int(rng.integers(n_vertices))
        if s == d or (s, d) in accepted or u.graph.has_edge(s, d):
            continue
        accepted.add((s, d))
        add_src.append(s)
        add_dst.append(d)
    add_wt = rng.uniform(1.0, 2.0, size=len(add_src))

    return DeltaBatch(
        add_src=np.array(add_src, dtype=np.int64),
        add_dst=np.array(add_dst, dtype=np.int64),
        add_wt=add_wt,
        del_src=del_src.astype(np.int64),
        del_dst=del_dst.astype(np.int64),
        meta={"seed": int(seed), "synthetic": True},
    )
