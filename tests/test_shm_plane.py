"""Shared-memory scenario plane: lifecycle, zero-copy, crash hygiene.

The plane (`repro.service.shm`) is the tentpole of the zero-copy path:
the coordinator publishes each live scenario once and workers attach
read-only views instead of replaying the ingest log.  These tests pin
the contract pieces the service leans on — round-trip fidelity, the
no-copy attach, refcounted retirement, orphan sweeping by PID liveness,
the worker-side attach cache, and end-to-end shm-vs-copy parity through
a real process-pool service.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.service.shm import (
    SEGMENT_PREFIX,
    SHM_DIR,
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
        assert plane.current_epoch(
            "small", "test", small_scenario.n_snapshots
        ) == 2
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
        # segment gone mid-flight: attach degrades to None (replay path)
        plane.close_all()
        assert pool._attached_scenario(manifest) is None
    finally:
        pool._detach_all()
        plane.close_all()


# -- end-to-end: shm workers vs copy workers -------------------------------


@pytest.mark.parametrize("use_shm", [True, False])
def test_service_parity_across_shm_modes(use_shm):
    """The same queries + ingest chain produce identical digests whether
    workers attach the plane or replay the scenario (``--no-shm``)."""
    from repro.service import QueryRequest, QueryService, ServiceConfig

    config = ServiceConfig(
        scale="tiny", n_snapshots=4, workers=1,
        coalesce_ms=2.0, use_shm=use_shm,
    )
    digests = []
    with QueryService(config) as service:
        assert service.health()["shm"]["enabled"] is use_shm
        service.ingest("PK", seed=1)
        for source in (1, 2, 3):
            resp = service.submit(
                QueryRequest("PK", "sssp", source)
            ).wait(timeout=120)
            assert resp is not None and resp.status == "ok"
            digests.append(
                [(s.snapshot, s.reached, s.checksum) for s in resp.summaries]
            )
        if use_shm:
            assert service.health()["shm"]["published"] >= 1
    # stash per-mode digests on the function and compare once both ran
    store = test_service_parity_across_shm_modes.__dict__.setdefault(
        "digests", {}
    )
    store[use_shm] = digests
    if len(store) == 2:
        assert store[True] == store[False]


def test_no_segments_leak_after_service_stop():
    from repro.service import QueryRequest, QueryService, ServiceConfig

    mine = f"{SEGMENT_PREFIX}{os.getpid()}-"
    config = ServiceConfig(
        scale="tiny", n_snapshots=4, workers=1, coalesce_ms=2.0,
    )
    with QueryService(config) as service:
        resp = service.submit(QueryRequest("PK", "sssp", 1)).wait(timeout=120)
        assert resp is not None and resp.status == "ok"
    leftovers = [n for n in os.listdir(SHM_DIR) if n.startswith(mine)]
    assert leftovers == []
