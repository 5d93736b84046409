"""The ingest log (`repro.service.ingest`): seeded synthesis, the
columnar :class:`DeltaLog` a plan ships, and what the log writes to the
WAL.

The pinned digests were recorded from the list-of-``DeltaBatch`` log and
the set-based synthesis that preceded the columnar one: the packed log
and the per-candidate ``has_edge`` test must reproduce the old bytes
exactly.
"""

from __future__ import annotations

import hashlib
import io
import pathlib
import pickle
import sys
import threading
import time

import numpy as np
import pytest

from repro.experiments.runner import scenario_cache
from repro.service import QueryService, ServiceConfig
from repro.service.ingest import DeltaBatch, DeltaLog, apply_delta, synthesize_delta
from repro.service.pool import _LIVE, PlanPayload, _live_scenario


def _digest(delta) -> str:
    h = hashlib.sha256()
    for column in (
        delta.add_src, delta.add_dst, delta.add_wt,
        delta.del_src, delta.del_dst,
    ):
        h.update(np.ascontiguousarray(column).tobytes())
    return h.hexdigest()[:16]


# -- seeded synthesis --------------------------------------------------------


#: (seed, digest of the five columns) for a chain of seeded ingests on
#: LJ ``small``: each delta is drawn on the scenario the previous ones built
PINNED_LJ_SMALL_CHAIN = [
    (1, "89511f8d03e4e7e8"),
    (2, "2f61803284e137ab"),
    (3, "819dc295266154b9"),
    (17, "68ee7032f96e105f"),
    (123, "5de19385b6f1c831"),
]


def test_synthesize_delta_is_pinned_on_lj_small():
    scenario = scenario_cache("LJ", "small", n_snapshots=8)
    for seed, expected in PINNED_LJ_SMALL_CHAIN:
        delta = synthesize_delta(scenario, seed=seed)
        assert (delta.n_additions, delta.n_deletions) == (8, 8)
        assert _digest(delta) == expected, seed
        scenario = apply_delta(scenario, delta)


# -- the WAL image ------------------------------------------------------------


#: sha256 of ``snapshot.json`` after 12 seeded PK ingests at tiny scale
#: with a slide (and so a compaction) every 4th epoch
PINNED_SLIDE_SNAPSHOT_SHA256 = (
    "7a9f3c7a5500e13b9225875d014768ae0ad5aec9b748193291e71a48db08144d"
)


def test_compaction_snapshot_bytes_are_pinned(tmp_path):
    wal_dir = tmp_path / "wal"
    service = QueryService(
        ServiceConfig(
            scale="tiny", n_snapshots=4, workers=1,
            window_slide_every=4, wal_dir=str(wal_dir),
        )
    ).start()
    try:
        for seed in range(1, 13):
            service.ingest("PK", seed=seed)
    finally:
        service.stop()
    raw = pathlib.Path(wal_dir, "snapshot.json").read_bytes()
    assert hashlib.sha256(raw).hexdigest() == PINNED_SLIDE_SNAPSHOT_SHA256


# -- explicit deltas ------------------------------------------------------------


def _pk_answers(service) -> list:
    from repro.service.request import QueryRequest

    service.clear_caches()
    response = service.submit(
        QueryRequest(graph="PK", algo="sssp", source=3)
    ).wait(60)
    assert response is not None and response.ok, response
    return [(s.snapshot, s.reached, s.checksum) for s in response.summaries]


@pytest.mark.parametrize(
    "dels",
    [
        [[0, 80]],  # PK tiny has 80 vertices: keyed as edge (1, 0)
        [[0, 0]],  # no self loops, so never present
    ],
)
def test_explicit_ingest_the_window_refuses_is_never_acked(tmp_path, dels):
    """An explicit delta is slid against the live window before the WAL
    append: a refused one leaves the epoch, the WAL and every later
    answer exactly as they were, and the front end answers one line."""
    from repro.service.server import ServiceFrontend

    service = QueryService(
        ServiceConfig(
            scale="tiny", n_snapshots=4, workers=1,
            wal_dir=str(tmp_path / "wal"),
        )
    ).start()
    try:
        base = scenario_cache("PK", "tiny", n_snapshots=4)
        first = synthesize_delta(base, seed=1)
        assert service.ingest("PK", delta=first) == 1  # explicit, valid
        before = _pk_answers(service)
        records = service.service_stats()["wal_records"]
        with pytest.raises(ValueError, match="cannot delete edge"):
            service.ingest_with_ack(
                "PK", delta=DeltaBatch.from_lists([], dels)
            )
        reply = ServiceFrontend(service).handle_line(
            '{"op": "ingest", "graph": "PK", "dels": %s}' % dels
        )
        assert reply["ok"] is False
        assert reply["error"].startswith("ValueError: cannot delete edge")
        assert "\n" not in reply["error"]
        assert service.epoch("PK") == 1
        assert service.service_stats()["wal_records"] == records
        assert _pk_answers(service) == before
        # the window still takes the next valid explicit delta
        good = synthesize_delta(apply_delta(base, first), seed=9)
        assert service.ingest("PK", delta=good) == 2
    finally:
        service.stop()


def test_nan_addition_weight_is_refused_before_the_wal(tmp_path):
    """A NaN weight would poison every later deletion slide of the
    window, so the ingest path refuses it before the WAL append, in one
    line naming the row: the epoch, the WAL and the answers stay."""
    from repro.service.server import ServiceFrontend

    service = QueryService(
        ServiceConfig(
            scale="tiny", n_snapshots=4, workers=1,
            wal_dir=str(tmp_path / "wal"),
        )
    ).start()
    try:
        before = _pk_answers(service)
        records = service.service_stats()["wal_records"]
        frontend = ServiceFrontend(service)
        for adds, row in (("[[0, 27, NaN]]", 0),
                          ("[[0, 27, 1.5], [0, 28, NaN]]", 1)):
            reply = frontend.handle_line(
                '{"op": "ingest", "graph": "PK", "adds": %s}' % adds
            )
            assert reply["ok"] is False, reply
            assert reply["error"] == (
                f"ValueError: addition row {row} has a NaN weight"
            )
        assert service.epoch("PK") == 0
        assert service.service_stats()["wal_records"] == records
        assert _pk_answers(service) == before
    finally:
        service.stop()


# -- DeltaLog ------------------------------------------------------------------


COLUMNS = ("add_src", "add_dst", "add_wt", "del_src", "del_dst")


def _batches(n, seed=0):
    """``n`` varied batches, including empty-addition and empty-deletion ones."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        n_add = 0 if i % 5 == 1 else int(rng.integers(1, 6))
        n_del = 0 if i % 5 == 3 else int(rng.integers(1, 4))
        out.append(
            DeltaBatch(
                add_src=rng.integers(0, 100, n_add),
                add_dst=rng.integers(0, 100, n_add),
                add_wt=rng.uniform(1.0, 2.0, n_add),
                del_src=rng.integers(0, 100, n_del),
                del_dst=rng.integers(0, 100, n_del),
                meta={"seed": i},
            )
        )
    return out


def _assert_same(batches, expected):
    batches = list(batches)
    assert len(batches) == len(expected)
    for got, want in zip(batches, expected):
        for name in COLUMNS:
            column = getattr(got, name)
            assert column.dtype == getattr(want, name).dtype, name
            np.testing.assert_array_equal(column, getattr(want, name))


def test_delta_log_iterates_and_slices_like_the_list():
    batches = _batches(40)
    log = DeltaLog(batches)
    assert len(log) == 40
    _assert_same(log, batches)
    _assert_same([log[i] for i in range(40)], batches)
    _assert_same([log[-1]], batches[-1:])
    for a, b in ((0, 40), (0, 7), (5, 5), (12, 31), (30, 99)):
        view = log[a:b]
        assert len(view) == len(batches[a:b])
        _assert_same(view, batches[a:b])
        # a view of a view indexes from the view's start, like a list
        _assert_same(view[1:4], batches[a:b][1:4])
    assert [d.meta for d in log] == [b.meta for b in batches]
    with pytest.raises(IndexError):
        log[40]


def test_delta_log_round_trips_empty_batches():
    empty = np.empty(0, dtype=np.int64)
    adds_only = DeltaBatch.from_lists([[1, 2, 1.5], [3, 4]], [])
    dels_only = DeltaBatch.from_lists([], [[5, 6]])
    nothing = DeltaBatch(empty, empty, empty, empty, empty)
    batches = [adds_only, dels_only, nothing, adds_only]
    log = DeltaLog(batches)
    shipped = pickle.loads(pickle.dumps(log[:4]))
    _assert_same(log, batches)
    _assert_same(shipped, batches)
    assert [(d.n_additions, d.n_deletions) for d in shipped] == [
        (2, 0), (0, 1), (0, 0), (2, 0),
    ]
    for empty_log in (DeltaLog(), log[2:2]):
        assert len(pickle.loads(pickle.dumps(empty_log))) == 0


def test_delta_log_view_survives_truncate_and_reappend():
    batches = _batches(20, seed=1)
    log = DeltaLog(batches)
    before = log[:20]
    log.truncate(6)
    assert len(log) == 6
    for batch in _batches(30, seed=2):
        log.append(batch)
    _assert_same(before, batches)
    _assert_same(log[:6], batches[:6])
    with pytest.raises(TypeError):
        before.append(batches[0])


def test_unpickled_log_carries_no_meta():
    log = DeltaLog(_batches(6))
    shipped = pickle.loads(pickle.dumps(log[2:5]))
    _assert_same(shipped, _batches(6)[2:5])
    assert all(d.meta == {} for d in shipped)
    assert not shipped[0].add_src.flags.writeable


class _BufferCounter(pickle.Pickler):
    """Counts the ndarrays and the byte strings a pickle carries."""

    def __init__(self, fh):
        super().__init__(fh)
        self.arrays = self.buffers = 0

    def persistent_id(self, obj):
        self.arrays += isinstance(obj, np.ndarray)
        self.buffers += isinstance(obj, (np.ndarray, bytes))
        return None


def _plan_pickle(log, epoch):
    payload = PlanPayload(
        plan_id=1, graph="PK", scale="tiny", n_snapshots=4, algo="sssp",
        sources=(3,), epoch=epoch, deltas=log[:epoch],
    )
    buf = io.BytesIO()
    pickler = _BufferCounter(buf)
    pickler.dump(payload)
    return (pickler.arrays, pickler.buffers), buf.getvalue()


def test_plan_payload_pickles_a_fixed_number_of_arrays():
    scenario = scenario_cache("PK", "tiny", n_snapshots=4)
    log = DeltaLog()
    counts = {}
    for seed in range(200):
        delta = synthesize_delta(scenario, seed=seed)
        scenario = apply_delta(scenario, delta)
        log.append(delta)
        if len(log) in (5, 200):
            counts[len(log)], raw = _plan_pickle(log, len(log))
            assert b"DeltaBatch" not in raw
    # the log travels as seven byte strings and no ndarray at any epoch
    assert counts[5] == counts[200] == (0, 7)


def test_live_scenario_cache_never_regresses_to_a_straggler():
    scenario = scenario_cache("PK", "tiny", n_snapshots=4)
    log = DeltaLog()
    for seed in range(3):
        delta = synthesize_delta(scenario, seed=seed)
        scenario = apply_delta(scenario, delta)
        log.append(delta)

    def payload(epoch):
        return PlanPayload(
            plan_id=0, graph="PK", scale="tiny", n_snapshots=4, algo="",
            sources=(), epoch=epoch, deltas=log[:epoch], chain=-7,
        )

    key = ("PK", "tiny", 4, -7)
    try:
        _live_scenario(payload(3))
        straggler = _live_scenario(payload(1))
        assert straggler.metadata["epoch"] == 1
        assert _LIVE[key][0] == 3
    finally:
        _LIVE.pop(key, None)


def test_delta_log_views_hold_under_concurrent_appends_and_truncates():
    """Readers take views under the writer's lock and check them outside
    it while the writer keeps appending and truncating: a view must
    always read the rows that were current when it was taken."""
    lock = threading.Lock()
    log = DeltaLog()
    #: per epoch, the tag its rows were written with (changes on rewrite)
    tags: list[int] = []
    stop = threading.Event()
    errors: list[str] = []

    def batch(tag, n):
        return DeltaBatch(
            add_src=np.full(n, tag), add_dst=np.full(n, tag),
            add_wt=np.full(n, float(tag)),
            del_src=np.full(n % 3, tag), del_dst=np.full(n % 3, tag),
        )

    def writer():
        tag = 0
        while not stop.is_set():
            tag += 1
            with lock:
                if tag % 50 == 0:
                    keep = len(log) // 2
                    log.truncate(keep)
                    del tags[keep:]
                else:
                    log.append(batch(tag, 1 + tag % 7))
                    tags.append(tag)

    def reader():
        while not stop.is_set():
            with lock:
                view, want = log[: len(log)], list(tags)
            got = [int(d.add_src[0]) for d in view]
            if got != want or any(
                not (d.add_dst == d.add_src[0]).all() for d in view
            ):
                errors.append(f"view of {len(want)} read {got[:5]}...")

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader) for _ in range(4)
    ]
    try:
        for t in threads:
            t.start()
        time.sleep(1.0)
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=10)
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[:3]
    assert len(log) == len(tags) > 0
