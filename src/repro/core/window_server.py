"""Continuous serving: slide the evolving window forward in place.

The paper's workloads analyze a *fixed* historical window; a deployed
system keeps serving as time moves on.  :class:`WindowServer` holds the
current window's results and advances one snapshot at a time:

* the window ``[0..N-1]`` becomes ``[1..N]``: snapshot tags shift down,
  edges that existed only in the dropped snapshot leave the union, and
  additions that arrived at the first transition join the common graph;
* results for the surviving snapshots are *reused untouched*;
* only the new latest snapshot is computed, incrementally from the
  previous latest — additions propagate directly, deletions run the
  KickStarter repair against a dependence tree grounded in the
  converged values (union slots re-index on every slide, so live parent
  tracking would not survive; see
  :func:`repro.engines.deletion.reconstruct_parents`).  Grounding and
  repair are one step table, so one kernel call on the compiled tier.

CommonGraph's one-change-per-edge rule applies across the *current*
window: deleting an edge that was added inside it is rejected with the
same guidance the builder gives (split the window first).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import Algorithm
from repro.engines.daic import MultiVersionEngine, StepTable
from repro.engines.executor import PlanExecutor
from repro.evolving.snapshots import EvolvingScenario
from repro.evolving.window import slide_window
from repro.graph.edges import EdgeList
from repro.schedule.boe import boe_plan

__all__ = ["WindowServer"]


class WindowServer:
    """Holds one evolving window's results and slides it forward."""

    def __init__(self, scenario: EvolvingScenario, algorithm: Algorithm) -> None:
        self.scenario = scenario
        self.algorithm = algorithm
        result = PlanExecutor(scenario, algorithm).run(
            boe_plan(scenario.unified)
        )
        self._values = [
            result.values(k) for k in range(scenario.n_snapshots)
        ]
        self.slides = 0

    # -- queries ---------------------------------------------------------------

    @property
    def n_snapshots(self) -> int:
        return self.scenario.n_snapshots

    def values(self, snapshot: int) -> np.ndarray:
        return self._values[snapshot]

    def latest(self) -> np.ndarray:
        return self._values[-1]

    def as_result(self):
        """The current window as a result object the analysis toolkit
        accepts (``repro.analysis.track_*`` take any object exposing
        ``snapshot_values`` and ``values``)."""

        class _WindowResult:
            def __init__(inner, values_list):
                inner.snapshot_values = dict(enumerate(values_list))

            def values(inner, k):
                return inner.snapshot_values[k]

        return _WindowResult(self._values)

    # -- sliding ---------------------------------------------------------------

    def advance(
        self,
        additions: EdgeList | None = None,
        deletions: list[tuple[int, int]] | None = None,
    ) -> None:
        """Apply one new transition and slide the window by one snapshot."""
        u = self.scenario.unified
        n = u.n_snapshots
        additions = additions or EdgeList.from_tuples(u.n_vertices, [])
        deletions = deletions or []

        # Validate against the CommonGraph rule and merge the additions
        # into the kept union with shifted tags (pure; the old unified
        # stays usable for repair).
        slide = slide_window(u, additions, deletions)
        del_slots = slide.del_slots

        # -- compute the new latest snapshot's values ----------------------
        latest = self._values[-1].copy()
        if del_slots.size:
            # ground a parent forest in the converged values, then repair
            table = StepTable(self.scenario.source)
            table.ground(0)
            table.delete(0, del_slots, "del-batch")
            engine = MultiVersionEngine(self.algorithm, u, track_parents=True)
            engine.run_segment(
                latest[None, :], slide.last_presence[None, :].copy(), table
            )

        new_unified = slide.unified
        self.scenario = EvolvingScenario(
            new_unified,
            source=self.scenario.source,
            name=self.scenario.name,
            metadata=dict(self.scenario.metadata),
        )

        # -- apply the additions on the new union, then slide results ------
        if len(additions):
            engine2 = MultiVersionEngine(self.algorithm, new_unified)
            engine2.apply_additions(
                latest[None, :],
                slide.add_slots,
                new_unified.presence_mask(n - 1)[None, :],
            )

        self._values = self._values[1:] + [latest]
        self.slides += 1
