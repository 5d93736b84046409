"""Coalesced multi-query plans equal per-query sequential runs.

The query service leans on ``multi_query_boe_plan`` to merge compatible
concurrent queries into one shared plan, so this parity must hold for
every algorithm the registry exposes — not just the one the service
happens to batch first.  Each case compares the coalesced values against
(a) singleton multi-query runs and (b) the from-scratch reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.multi_query import evaluate_multi_query
from repro.engines.validation import evaluate_reference
from repro.evolving.snapshots import EvolvingScenario
from repro.resilience import Budget, BudgetExceeded


def _sources(scenario, count=3):
    degrees = np.diff(scenario.common_graph().indptr)
    ranked = np.argsort(-degrees)
    return [int(v) for v in ranked[:count]]


def test_coalesced_equals_sequential(small_scenario, algorithm):
    """One shared plan for Q sources == Q singleton plans, all algos."""
    sources = _sources(small_scenario)
    coalesced = evaluate_multi_query(small_scenario, algorithm, sources)
    for q, source in enumerate(sources):
        single = evaluate_multi_query(small_scenario, algorithm, [source])
        for k in range(small_scenario.n_snapshots):
            assert np.allclose(
                coalesced.values(q, k), single.values(0, k), equal_nan=True
            ), (algorithm.name, q, k)


def test_one_snapshot_plan_marks_every_query(small_scenario, algorithm):
    """A one-snapshot window (``lo == hi``) still gives each coalesced
    query its own snapshot slot, equal to its single-source run."""
    from repro.evolving.window import window_scenario

    window = window_scenario(small_scenario, 2, 2)
    assert window.n_snapshots == 1
    sources = _sources(window)
    coalesced = evaluate_multi_query(window, algorithm, sources)
    assert sorted(coalesced.raw.snapshot_values) == list(range(len(sources)))
    for q, source in enumerate(sources):
        single = evaluate_multi_query(window, algorithm, [source])
        assert np.array_equal(
            coalesced.values(q, 0), single.values(0, 0), equal_nan=True
        ), (algorithm.name, q)


def test_coalesced_equals_reference(small_scenario, algorithm):
    """The shared plan also matches from-scratch evaluation per snapshot."""
    sources = _sources(small_scenario)
    coalesced = evaluate_multi_query(small_scenario, algorithm, sources)
    for q, source in enumerate(sources):
        requeried = EvolvingScenario(
            small_scenario.unified, source=source, name="parity"
        )
        for k in range(small_scenario.n_snapshots):
            expected = evaluate_reference(requeried, algorithm, k)
            assert np.allclose(
                coalesced.values(q, k), expected, equal_nan=True
            ), (algorithm.name, q, k)


def test_duplicate_sources_agree(small_scenario, algorithm):
    """The same source listed twice yields identical rows (the batcher
    dedups duplicates, but the plan itself must tolerate them too)."""
    source = _sources(small_scenario, count=1)[0]
    result = evaluate_multi_query(
        small_scenario, algorithm, [source, source]
    )
    for k in range(small_scenario.n_snapshots):
        assert np.allclose(
            result.values(0, k), result.values(1, k), equal_nan=True
        )


def test_shm_attached_equals_copy(small_scenario, algorithm):
    """A worker on the shared-memory plane computes exactly what a
    copy-path worker computes, for every algorithm.

    Publishes the scenario into a real shm segment, attaches it the way
    ``repro.service.pool`` does (read-only zero-copy views), and runs the
    full coalesced plan on both sides.
    """
    from repro.service.shm import ScenarioPlane, attach_scenario

    sources = _sources(small_scenario)
    plane = ScenarioPlane()
    try:
        manifest = plane.publish(small_scenario, "small", "test", epoch=0)
        shm, attached = attach_scenario(manifest)
        via_shm = evaluate_multi_query(attached, algorithm, sources)
        via_copy = evaluate_multi_query(small_scenario, algorithm, sources)
        for q in range(len(sources)):
            for k in range(small_scenario.n_snapshots):
                assert np.allclose(
                    via_shm.values(q, k),
                    via_copy.values(q, k),
                    equal_nan=True,
                ), (algorithm.name, q, k)
        del attached, via_shm
        shm.close()
    finally:
        plane.close_all()


def test_packed_presence_equals_dense(small_scenario, algorithm, monkeypatch):
    """Plans over bit-packed presence == plans over dense tag compares.

    Forces the engine's multi-version gather through the pre-packing
    dense reference (:meth:`UnifiedCSR._presence_of_dense`) and checks
    the coalesced values are unchanged, for every algorithm.
    """
    from repro.evolving.unified_csr import UnifiedCSR

    sources = _sources(small_scenario)
    packed = evaluate_multi_query(small_scenario, algorithm, sources)

    def dense_multi(self, edge_idx=None):
        if edge_idx is None:
            edge_idx = np.arange(self.n_union_edges, dtype=np.int64)
        return np.stack(
            [
                self._presence_of_dense(k, edge_idx)
                for k in range(self.n_snapshots)
            ]
        )

    monkeypatch.setattr(UnifiedCSR, "presence_multi", dense_multi)
    dense = evaluate_multi_query(small_scenario, algorithm, sources)
    for q in range(len(sources)):
        for k in range(small_scenario.n_snapshots):
            assert np.allclose(
                packed.values(q, k), dense.values(q, k), equal_nan=True
            ), (algorithm.name, q, k)


def test_multi_query_budget_breaches(small_scenario):
    """A tiny round budget breaches loudly on a multi-query plan (it
    keeps the plan on the round kernel; the service's own watchdog is
    a wall clock, held by the kernel-backend suite's worklist test)."""
    from repro.algorithms import get_algorithm

    with pytest.raises(BudgetExceeded):
        evaluate_multi_query(
            small_scenario,
            get_algorithm("sssp"),
            _sources(small_scenario),
            budget=Budget(max_rounds=1),
        )
