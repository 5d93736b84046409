"""Shared-memory scenario plane: lifecycle, zero-copy, crash hygiene.

The plane (`repro.service.shm`) is the only way a worker gets a
scenario: the coordinator publishes each live scenario once and workers
attach read-only views.  These tests pin the contract pieces the service
leans on — round-trip fidelity, the no-copy attach, refcounted
retirement, private straggler generations, orphan sweeping by PID
liveness, the worker-side attach cache, and end-to-end parity through a
real process-pool service, including the straggler and attach-failure
paths.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.evolving import synthesize_scenario
from repro.service.shm import (
    SEGMENT_PREFIX,
    SHM_DIR,
    PlaneError,
    ScenarioPlane,
    attach_scenario,
    list_orphan_segments,
    sweep_orphan_segments,
)


def _segment_path(manifest) -> str:
    return os.path.join(SHM_DIR, manifest.segment)


def _plane(scenario, epoch=0):
    plane = ScenarioPlane()
    manifest = plane.publish(scenario, "small", "test", epoch=epoch)
    return plane, manifest


# -- publish / attach round trip -------------------------------------------


def test_attach_round_trips_every_array(small_scenario):
    plane, manifest = _plane(small_scenario)
    try:
        shm, attached = attach_scenario(manifest)
        u, v = small_scenario.unified, attached.unified
        assert np.array_equal(u.graph.indptr, v.graph.indptr)
        assert np.array_equal(u.graph.dst, v.graph.dst)
        assert np.array_equal(u.graph.wt, v.graph.wt)
        assert np.array_equal(u.add_step, v.add_step)
        assert np.array_equal(u.del_step, v.del_step)
        assert np.array_equal(u.presence_planes(), v.presence_planes())
        assert attached.source == small_scenario.source
        assert attached.n_snapshots == small_scenario.n_snapshots
        del attached, u, v
        shm.close()
    finally:
        plane.close_all()


def test_attach_is_zero_copy_and_read_only(small_scenario):
    """Attached arrays are views over the segment, not copies."""
    plane, manifest = _plane(small_scenario)
    try:
        shm, attached = attach_scenario(manifest)
        for arr in (
            attached.unified.graph.dst,
            attached.unified.graph.indptr,
            attached.unified.presence_planes(),
        ):
            assert not arr.flags.owndata
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[..., 0] = 0
        del attached
        shm.close()
    finally:
        plane.close_all()


def test_batch_edges_on_attached_scenario(small_scenario):
    """Batch edge lists derive from read-only attached tag arrays."""
    from repro.evolving.batches import BatchId, BatchKind

    plane, manifest = _plane(small_scenario)
    try:
        shm, attached = attach_scenario(manifest)
        u, v = small_scenario.unified, attached.unified
        assert not v.add_step.flags.writeable
        for kind in BatchKind:
            for step in range(v.n_snapshots - 1):
                bid = BatchId(kind, step)
                edges = v.batch_edges(bid)
                assert np.array_equal(edges, u.batch_edges(bid))
                assert v.batch_edges(bid) is edges
                assert not edges.flags.writeable
        del attached, u, v, edges
        shm.close()
    finally:
        plane.close_all()


def test_manifest_records_segment_layout(small_scenario):
    plane, manifest = _plane(small_scenario, epoch=3)
    try:
        assert manifest.segment.startswith(f"{SEGMENT_PREFIX}{os.getpid()}-")
        assert manifest.epoch == 3
        assert manifest.n_vertices == small_scenario.n_vertices
        names = [spec.name for spec in manifest.arrays]
        assert names == [
            "indptr", "dst", "wt", "add_step", "del_step", "planes",
        ]
        assert all(spec.offset % 64 == 0 for spec in manifest.arrays)
        assert os.path.getsize(_segment_path(manifest)) >= manifest.nbytes
    finally:
        plane.close_all()


def test_attach_missing_segment_raises(small_scenario):
    plane, manifest = _plane(small_scenario)
    plane.close_all()
    with pytest.raises(FileNotFoundError):
        attach_scenario(manifest)


# -- refcounted lifecycle --------------------------------------------------


def test_acquire_matches_epoch_only(small_scenario):
    plane, manifest = _plane(small_scenario, epoch=2)
    try:
        got = plane.acquire("small", "test", small_scenario.n_snapshots, 2)
        assert got is not None and got.segment == manifest.segment
        plane.release(got)
        assert plane.acquire(
            "small", "test", small_scenario.n_snapshots, 5
        ) is None
        assert plane.acquire(
            "other", "test", small_scenario.n_snapshots, 2
        ) is None
    finally:
        plane.close_all()


def test_republish_retires_idle_segment_immediately(small_scenario):
    plane, old = _plane(small_scenario, epoch=0)
    try:
        new = plane.publish(small_scenario, "small", "test", epoch=1)
        assert not os.path.exists(_segment_path(old))
        assert os.path.exists(_segment_path(new))
        assert plane.stats()["retired"] == 1
    finally:
        plane.close_all()


def test_retired_segment_survives_until_release(small_scenario):
    """A generation bump must not unlink under an in-flight plan."""
    plane, old = _plane(small_scenario, epoch=0)
    try:
        held = plane.acquire("small", "test", small_scenario.n_snapshots, 0)
        assert held is not None
        plane.publish(small_scenario, "small", "test", epoch=1)
        assert os.path.exists(_segment_path(old))  # refs keep it alive
        plane.release(held)
        assert not os.path.exists(_segment_path(old))
    finally:
        plane.close_all()


def test_older_epoch_publishes_a_private_generation(small_scenario):
    """A straggler's epoch never displaces the current generation: its
    own generation is retired at once and unlinked on release."""
    n = small_scenario.n_snapshots
    plane, current = _plane(small_scenario, epoch=3)
    try:
        private = plane.publish(small_scenario, "small", "test", 1, hold=True)
        assert os.path.exists(_segment_path(private))
        assert plane.stats()["retired_pending"] == 1
        held = plane.acquire("small", "test", n, 3)
        assert held is not None and held.segment == current.segment
        plane.release(held)
        assert plane.acquire("small", "test", n, 1) is None
        plane.release(private)
        assert not os.path.exists(_segment_path(private))
        assert os.path.exists(_segment_path(current))
        assert plane.stats()["retired_pending"] == 0
    finally:
        plane.close_all()


def test_acquire_refuses_a_lineage_mismatch(small_scenario):
    """A generation names one history: at its epoch it is handed out
    only under the lineage it was built from."""
    n = small_scenario.n_snapshots
    plane, manifest = _plane(small_scenario, epoch=2)
    try:
        assert manifest.lineage == 0
        assert plane.acquire("small", "test", n, 2, lineage=1) is None
        got = plane.acquire("small", "test", n, 2, lineage=0)
        assert got is not None and got.segment == manifest.segment
        plane.release(got)
    finally:
        plane.close_all()


def test_a_new_lineage_displaces_a_later_epoch(small_scenario):
    """Generations order by ``(lineage, epoch)``: a re-sync's shorter
    history becomes current although its epoch is lower, and the
    replaced generation is retired."""
    n = small_scenario.n_snapshots
    plane, old = _plane(small_scenario, epoch=3)
    try:
        new = plane.publish(small_scenario, "small", "test", 2, lineage=1)
        assert not os.path.exists(_segment_path(old))
        assert plane.acquire("small", "test", n, 3) is None
        held = plane.acquire("small", "test", n, 2, lineage=1)
        assert held is not None and held.segment == new.segment
        plane.release(held)
        assert plane.stats()["retired_pending"] == 0
    finally:
        plane.close_all()


def test_an_older_lineage_publishes_a_private_generation(small_scenario):
    """A straggler of a replaced history never displaces the current
    generation, whatever its epoch: its generation is private and is
    unlinked on release."""
    n = small_scenario.n_snapshots
    plane = ScenarioPlane()
    try:
        current = plane.publish(small_scenario, "small", "test", 1, lineage=2)
        private = plane.publish(
            small_scenario, "small", "test", 5, lineage=1, hold=True
        )
        assert plane.stats()["retired_pending"] == 1
        assert plane.acquire("small", "test", n, 5, lineage=1) is None
        held = plane.acquire("small", "test", n, 1, lineage=2)
        assert held is not None and held.segment == current.segment
        plane.release(held)
        plane.release(private)
        assert not os.path.exists(_segment_path(private))
        assert os.path.exists(_segment_path(current))
    finally:
        plane.close_all()


def test_release_with_retire_drops_the_current_generation(small_scenario):
    n = small_scenario.n_snapshots
    plane, manifest = _plane(small_scenario, epoch=2)
    try:
        held = plane.acquire("small", "test", n, 2)
        plane.release(held, retire=True)
        assert not os.path.exists(_segment_path(manifest))
        assert plane.acquire("small", "test", n, 2) is None
        assert plane.stats()["retired_pending"] == 0
    finally:
        plane.close_all()


def test_close_all_unlinks_everything(small_scenario):
    plane, first = _plane(small_scenario, epoch=0)
    second = plane.publish(small_scenario, "small", "other", epoch=0)
    plane.close_all()
    assert not os.path.exists(_segment_path(first))
    assert not os.path.exists(_segment_path(second))
    plane.close_all()  # idempotent


# -- orphan sweeping -------------------------------------------------------


def _dead_pid() -> int:
    pid = 4_000_000  # near the default pid_max ceiling
    while True:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return pid
        except PermissionError:
            pass
        pid -= 1


def test_sweep_reclaims_dead_owner_segments(tmp_path):
    shm_dir = str(tmp_path)
    dead = f"{SEGMENT_PREFIX}{_dead_pid()}-1"
    alive = f"{SEGMENT_PREFIX}{os.getpid()}-1"
    for name in (dead, alive, "unrelated-file"):
        (tmp_path / name).write_bytes(b"x")
    assert list_orphan_segments(shm_dir) == [dead]
    assert sweep_orphan_segments(shm_dir) == [dead]
    assert not (tmp_path / dead).exists()
    assert (tmp_path / alive).exists()  # live owner: untouched
    assert (tmp_path / "unrelated-file").exists()  # non-plane: untouched
    assert sweep_orphan_segments(shm_dir) == []


# -- worker-side attach cache ----------------------------------------------


def test_worker_attach_cache_and_fallback(small_scenario):
    from repro.service import pool

    plane, manifest = _plane(small_scenario)
    try:
        first = pool._attached_scenario(manifest)
        assert first is not None
        assert pool._attached_scenario(manifest) is first  # cached
        pool._detach_all()
        assert pool._ATTACHED == {}
        # segment gone mid-flight: a typed error the coordinator retries
        plane.close_all()
        with pytest.raises(PlaneError, match=manifest.segment):
            pool._attached_scenario(manifest)
    finally:
        pool._detach_all()
        plane.close_all()


# -- what a worker derives from a generation, built once ------------------


def _plan(manifest, i, algo="sssp", sources=(3,)):
    from repro.service.pool import PlanPayload

    return PlanPayload(i, algo, tuple(sources), shm=manifest)


def _count_calls(monkeypatch, owner, name, key):
    """Count calls of ``owner.name`` per ``key(*args)``."""
    from collections import Counter

    calls: Counter = Counter()
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[key(*args)] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_worker_builds_schedules_once(small_scenario, monkeypatch):
    """Over many plans on one generation, each (union, Q) schedule — the
    plan's shared steps and the executor's step tables — is built once,
    and no windowed view ever is: every plan runs the full window."""
    from repro.schedule import boe
    from repro.engines.executor import PlanExecutor
    from repro.evolving import window
    from repro.service import pool

    pool._detach_all()
    views = _count_calls(
        monkeypatch, window, "extract_window", lambda u, lo, hi: (lo, hi)
    )
    steps = _count_calls(
        monkeypatch, boe, "_shared_steps", lambda u, q: (id(u), q)
    )
    tables = _count_calls(
        monkeypatch, PlanExecutor, "_segments",
        lambda ex, plan_steps: (id(ex.unified), ex.scenario.source),
    )
    plane, manifest = _plane(small_scenario)
    try:
        algos = ("bfs", "sssp", "sswp", "ssnp", "viterbi")
        for i in range(24):
            q = 1 + i % 3
            result = pool._execute(_plan(
                manifest, i, algos[i % 5], range(i, i + q)
            ))
            assert len(result.summaries) == q
            assert all(
                len(rows) == small_scenario.n_snapshots
                for rows in result.summaries.values()
            )
        assert not views
        assert len(steps) == 3 and set(steps.values()) == {1}
        assert sum(tables.values()) == 3
    finally:
        pool._detach_all()
        plane.close_all()


def test_evaluate_path_books_no_composition(small_scenario, monkeypatch):
    """Serving builds no version table: only the fault campaign reads
    one, and it books the plan itself."""
    from repro.accel.version_table import VersionTable
    from repro.service import pool

    def refuse(self, *args, **kwargs):
        raise AssertionError("a composition record was built")

    monkeypatch.setattr(VersionTable, "__init__", refuse)
    plane, manifest = _plane(small_scenario)
    try:
        for i, sources in enumerate(((3,), (3, 5), (7, 3, 7))):
            assert pool._execute(_plan(manifest, i, sources=sources)).summaries
    finally:
        pool._detach_all()
        plane.close_all()


def test_evicting_an_attach_drops_its_derived_state(
    small_scenario, monkeypatch
):
    """An attach entry's union and its memos go with it, on LRU
    eviction and on ``_detach_all``."""
    import gc
    import weakref

    from repro.service import pool

    pool._detach_all()
    monkeypatch.setattr(pool, "_ATTACHED_LIMIT", 1)
    plane, first = _plane(small_scenario)
    second = plane.publish(small_scenario, "small", "other", epoch=0)
    try:
        def derived(manifest):
            for i, sources in enumerate(((3,), (3, 5))):
                pool._execute(_plan(manifest, i, sources=sources))
            union = pool._ATTACHED[manifest.segment].scenario.unified
            assert union._memo
            return weakref.ref(union)

        ref = derived(first)
        later = derived(second)
        gc.collect()
        assert list(pool._ATTACHED) == [second.segment]
        assert ref() is None
        pool._detach_all()
        gc.collect()
        assert pool._ATTACHED == {}
        assert later() is None
    finally:
        pool._detach_all()
        plane.close_all()


def test_a_worker_holds_at_most_four_attaches_and_no_views(small_scenario):
    """A worker's whole state is ``_ATTACHED_LIMIT`` attaches, each its
    generation's mapping and zero-copy scenario: a fifth generation
    evicts the oldest, and an entry keeps no windowed view."""
    import dataclasses

    from repro.service import pool

    pool._detach_all()
    plane = ScenarioPlane()
    try:
        manifests = [
            plane.publish(small_scenario, "small", f"g{i}", epoch=0)
            for i in range(pool._ATTACHED_LIMIT + 1)
        ]
        for i, manifest in enumerate(manifests):
            pool._execute(_plan(manifest, i))
        assert pool._ATTACHED_LIMIT == 4
        assert list(pool._ATTACHED) == [m.segment for m in manifests[1:]]
        assert [f.name for f in dataclasses.fields(pool._Attach)] == [
            "shm", "scenario"
        ]
    finally:
        pool._detach_all()
        plane.close_all()


def test_a_hit_keeps_an_attach_from_eviction(small_scenario):
    """``_ATTACHED`` is an LRU, not a FIFO: attach four generations, hit
    the first, attach a fifth, and the first is still attached."""
    from repro.service import pool

    pool._detach_all()
    plane = ScenarioPlane()
    try:
        manifests = [
            plane.publish(small_scenario, "small", f"g{i}", epoch=0)
            for i in range(pool._ATTACHED_LIMIT + 1)
        ]
        first = pool._attached_scenario(manifests[0])
        for manifest in manifests[1:-1]:
            pool._attached_scenario(manifest)
        assert pool._attached_scenario(manifests[0]) is first
        pool._attached_scenario(manifests[-1])
        assert list(pool._ATTACHED) == [
            m.segment for m in manifests[2:-1] + [manifests[0], manifests[-1]]
        ]
    finally:
        pool._detach_all()
        plane.close_all()


def test_new_generation_answers_from_its_own_scenario(
    small_pool, small_scenario
):
    """A second publish is a new attach: its answers come from its own
    scenario, never from the last generation's."""
    from repro.service import pool

    other = synthesize_scenario(
        small_pool, n_snapshots=8, batch_pct=0.02, seed=4, name="small"
    )
    plane, first = _plane(small_scenario, epoch=0)
    try:
        old = pool._execute(_plan(first, 0))
        second = plane.publish(other, "small", "test", epoch=1)
        new = pool._execute(_plan(second, 1))
        assert pool._ATTACHED[second.segment].scenario is not (
            pool._ATTACHED[first.segment].scenario
        )
        for scenario, result in ((small_scenario, old), (other, new)):
            assert _rows(result.summaries[3]) == _reference(scenario, "sssp", 3)
        assert _rows(old.summaries[3]) != _rows(new.summaries[3])
    finally:
        pool._detach_all()
        plane.close_all()


def _rows(summaries):
    return [(s.snapshot, s.reached, s.checksum) for s in summaries]


def _reference(scenario, algo_name, source):
    """From-scratch values per snapshot, summarised row by row."""
    from repro.algorithms import get_algorithm
    from repro.engines.validation import evaluate_reference
    from repro.evolving.snapshots import EvolvingScenario

    algo = get_algorithm(algo_name)
    rooted = EvolvingScenario(scenario.unified, source=source)
    out = []
    for k in range(scenario.n_snapshots):
        v = evaluate_reference(rooted, algo, k)
        out.append(
            (k, int(algo.reached(v).sum()), float(v[np.isfinite(v)].sum()))
        )
    return out


@pytest.mark.parametrize("algo", ["bfs", "sssp", "sswp", "ssnp", "viterbi"])
def test_cached_worker_path_is_bit_identical(small_scenario, algo):
    """On the active kernel tier, every plan shape — one source, three
    with a duplicate — answers from the attach entry's cached schedules
    exactly as from-scratch evaluation does, the second time as the
    first."""
    from repro.service import pool

    pool._detach_all()
    plane, manifest = _plane(small_scenario)
    try:
        for rep in range(2):
            for sources in ((7,), (7, 11, 7)):
                got = pool._execute(_plan(manifest, rep, algo, sources))
                assert sorted(got.summaries) == sorted(set(sources))
                for s in sources:
                    assert _rows(got.summaries[s]) == _reference(
                        small_scenario, algo, s
                    ), (rep, sources, s)
    finally:
        pool._detach_all()
        plane.close_all()


# -- end-to-end through a process-pool service ----------------------------


def _summaries(response):
    assert response is not None and response.status == "ok", response
    return [(s.snapshot, s.reached, s.checksum) for s in response.summaries]


def _scratch(service, epoch, algo, source):
    """From-scratch summaries at ``epoch``: the service's own log applied
    to the base scenario, evaluated in this process."""
    from repro.algorithms import get_algorithm
    from repro.core.multi_query import evaluate_multi_query, summarize
    from repro.experiments.runner import scenario_cache
    from repro.service.ingest import apply_delta

    cfg = service.config
    scenario = scenario_cache("PK", cfg.scale, n_snapshots=cfg.n_snapshots)
    for delta in service.graph_deltas("PK")[:epoch]:
        scenario = apply_delta(scenario, delta)
    algorithm = get_algorithm(algo)
    mq = evaluate_multi_query(scenario, algorithm, [source])
    reached, checksum = summarize(algorithm, mq.matrix())
    return list(zip(range(len(reached)), reached.tolist(), checksum.tolist()))


def _tiny(**kw):
    from repro.service import ServiceConfig

    return ServiceConfig(scale="tiny", n_snapshots=4, workers=1, **kw)


def test_attached_service_matches_scratch_evaluation():
    """Queries answered from attached generations equal from-scratch
    evaluation of the same ingest chain."""
    from repro.service import QueryRequest, QueryService

    with QueryService(_tiny()) as service:
        service.ingest("PK", seed=1)
        for source in (1, 2, 3):
            resp = service.submit(
                QueryRequest("PK", "sssp", source)
            ).wait(timeout=120)
            assert _summaries(resp) == _scratch(service, 1, "sssp", source)
        assert service.health()["shm"]["published"] >= 1


def test_straggler_answers_at_its_epoch_from_a_private_generation():
    """A query admitted at epoch 1 and held in the queue across a slide
    checkpoint's eager republish of epoch 2 answers at epoch 1, from a
    private generation that leaves the current one in place."""
    from repro.service import QueryRequest, QueryService

    mine = f"{SEGMENT_PREFIX}{os.getpid()}-"
    with QueryService(_tiny(window_slide_every=2)) as service:
        service.ingest("PK", seed=1)
        assert service.submit(QueryRequest("PK", "sssp", 1)).wait(120).ok
        # fake in-flight plans fill the pool, so the batcher leaves the
        # next query queued
        fake = [-1 - i for i in range(service.pool.workers + 1)]
        with service._inflight_lock:
            service._inflight.update(fake)
        held = service.submit(QueryRequest("PK", "sssp", 2))
        time.sleep(0.02)
        assert not held.done.is_set()
        assert service.ingest("PK", seed=2) == 2  # checkpoint: republish
        published = service.plane.stats()["published"]
        for plan_id in fake:
            service._retire(plan_id)
        resp = held.wait(timeout=120)
        assert resp.epoch == 1
        assert _summaries(resp) == _scratch(service, 1, "sssp", 2)
        shm = service.plane.stats()
        assert shm["published"] == published + 1
        assert shm["retired_pending"] == 0
        current = service.plane.acquire("PK", "tiny", 4, 2)
        assert current is not None
        service.plane.release(current)
        assert service.drain(timeout=60)
    leftovers = [n for n in os.listdir(SHM_DIR) if n.startswith(mine)]
    assert leftovers == []


def test_unattachable_generation_is_retried_on_a_fresh_one():
    """A segment unlinked between acquire and attach fails the plan with
    a PlaneError; the coordinator retries the query once, on a freshly
    published generation."""
    from repro.service import QueryRequest, QueryService

    with QueryService(_tiny()) as service:
        plane_manifest = service._plane_manifest
        segments = []

        def unlinked_first(graph, epoch):
            manifest = plane_manifest(graph, epoch)
            if not segments:
                os.unlink(_segment_path(manifest))
            segments.append(manifest.segment)
            return manifest

        service._plane_manifest = unlinked_first
        resp = service.submit(QueryRequest("PK", "sssp", 1)).wait(120)
        assert _summaries(resp) == _scratch(service, 0, "sssp", 1)
        assert service.service_stats()["retries"] == 1
        assert len(segments) == 2 and segments[0] != segments[1]
        assert service.plane.stats()["retired_pending"] == 0


def test_failed_publish_is_retried(monkeypatch):
    """A segment the coordinator cannot write fails the plan with a
    PlaneError before submit; the query's retry publishes again."""
    from repro.service import QueryRequest, QueryService
    from repro.service import shm as shm_module

    write_segment = shm_module._write_segment
    failures = []

    def full_once(name, arrays):
        if not failures:
            failures.append(name)
            raise OSError(28, "No space left on device")
        return write_segment(name, arrays)

    with QueryService(_tiny()) as service:
        monkeypatch.setattr(shm_module, "_write_segment", full_once)
        resp = service.submit(QueryRequest("PK", "sssp", 1)).wait(120)
        assert _summaries(resp) == _scratch(service, 0, "sssp", 1)
        assert service.service_stats()["retries"] == 1
        assert not os.path.exists(os.path.join(SHM_DIR, failures[0]))


def test_plane_off_is_refused():
    from repro.cli import main
    from repro.service import ServiceConfig

    with pytest.raises(ValueError, match="use_shm=False") as err:
        ServiceConfig(use_shm=False)
    assert "\n" not in str(err.value)
    assert main(["serve", "--no-shm"]) == 2
    assert main(["serve-bench", "--no-shm"]) == 2


def test_no_segments_leak_after_service_stop():
    from repro.service import QueryRequest, QueryService, ServiceConfig

    mine = f"{SEGMENT_PREFIX}{os.getpid()}-"
    config = ServiceConfig(scale="tiny", n_snapshots=4, workers=1)
    with QueryService(config) as service:
        resp = service.submit(QueryRequest("PK", "sssp", 1)).wait(timeout=120)
        assert resp is not None and resp.status == "ok"
    leftovers = [n for n in os.listdir(SHM_DIR) if n.startswith(mine)]
    assert leftovers == []
