"""Workflow plans — the schedule IR shared by software engines and the
accelerator simulators.

A *plan* is the offline-generated schedule the paper describes in §3.1
(Algorithm 1 emits ``GEN [...]`` statements; our steps are their explicit
form).  Each workflow — streaming, Direct-Hop, Work-Sharing, BOE — compiles
to a linear list of steps over named value *states*:

* ``EvalFull`` — from-scratch query evaluation on a state's current graph;
* ``CopyState`` — duplicate a state (snapshot peel-off / tree branch);
* ``ApplyEdges`` — incrementally add a set of union edges to one or more
  target states *simultaneously* (the multi-target form is BOE's shared
  batch execution);
* ``DeleteEdges`` — remove edges with KickStarter repair (streaming only);
* ``MarkSnapshot`` — a state now holds a snapshot's final query values.

Plans are pure data: they can be executed (``repro.engines.executor``),
costed without execution (Fig. 3), or scheduled onto the modelled hardware
(``repro.accel``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.evolving.batches import BatchId

__all__ = [
    "EvalFull",
    "CopyState",
    "ApplyEdges",
    "DeleteEdges",
    "MarkSnapshot",
    "Step",
    "Plan",
]


@dataclass
class EvalFull:
    """Evaluate the query from scratch on ``state``'s current graph.

    ``source`` overrides the scenario's query source — used by the
    multi-query extension where each query has its own source vertex.
    """

    state: int
    label: str = "eval"
    source: int | None = None


@dataclass
class CopyState:
    """Copy values (and graph membership) from ``src`` into ``dst``."""

    src: int
    dst: int


@dataclass
class ApplyEdges:
    """Incrementally add ``edge_idx`` (union-edge slots) to every target.

    With multiple targets the step is executed as one multi-version batch:
    edges are fetched once and candidates are scattered to all target
    versions — the Batch-Oriented-Execution primitive.
    ``batches`` records which logical batches the edges came from (for
    scheduling and accounting); ``stage`` is the Algorithm 1 stage index
    when applicable.
    """

    targets: tuple[int, ...]
    edge_idx: np.ndarray
    batches: tuple[BatchId, ...] = ()
    label: str = "apply"
    #: steps sharing a stage key are mutually independent and may execute
    #: concurrently on the accelerator (any hashable key; None = ordered)
    stage: int | tuple | None = None


@dataclass
class DeleteEdges:
    """Delete ``edge_idx`` from ``state`` with dependence-tree repair."""

    state: int
    edge_idx: np.ndarray
    batches: tuple[BatchId, ...] = ()
    label: str = "delete"


@dataclass
class MarkSnapshot:
    """Declare that ``state`` now holds snapshot ``snapshot``'s results."""

    state: int
    snapshot: int


Step = EvalFull | CopyState | ApplyEdges | DeleteEdges | MarkSnapshot


@dataclass
class Plan:
    """An ordered workflow schedule plus bookkeeping metadata."""

    name: str
    n_states: int
    steps: list[Step] = field(default_factory=list)
    #: which union-edge mask each state starts from ("common" | "snapshot0")
    initial_graph: str = "common"
    #: names the schedule on its union up to the sources of its
    #: ``EvalFull`` steps: plans with one key over one union share every
    #: other step, so the executor builds their segments once (None: a
    #: one-off plan)
    key: tuple | None = None

    def applied_edge_total(self) -> int:
        """Total edges applied across all ``ApplyEdges`` steps and targets.

        This is the paper's Fig. 3 metric ("number of additions"): an edge
        applied to ``k`` target states counts ``k`` times.
        """
        return sum(
            int(s.edge_idx.size) * len(s.targets)
            for s in self.steps
            if isinstance(s, ApplyEdges)
        )

    def deleted_edge_total(self) -> int:
        return sum(
            int(s.edge_idx.size)
            for s in self.steps
            if isinstance(s, DeleteEdges)
        )

    def batch_applications(self) -> int:
        """Number of (batch, state) incremental applications."""
        count = 0
        for s in self.steps:
            if isinstance(s, ApplyEdges):
                count += max(1, len(s.batches)) * len(s.targets)
            elif isinstance(s, DeleteEdges):
                count += max(1, len(s.batches))
        return count

    def snapshots_marked(self) -> list[int]:
        return [s.snapshot for s in self.steps if isinstance(s, MarkSnapshot)]
