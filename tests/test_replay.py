"""Timing replay parity: the compiled ``replay`` kernel vs the Python
reference.

``WaveScheduler.run`` flattens a workflow's waves once and replays them
in one ``replay`` kernel call on the compiled tier, or through
``WaveScheduler.replay_reference`` (``TimingModel.group_cost`` per round
group) on numpy.  The kernel repeats the reference operation for
operation, so every ``ScheduleOutcome`` field — cycles, each counter,
``phase_cycles`` with its key order, round groups, early injections and
``wave_cycles`` — and the edge cache and row-buffer state it leaves
behind must be identical, compared with ``==`` and no tolerance.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.accel import JetStreamSimulator, MegaSimulator
from repro.accel.cache import EdgeCacheModel
from repro.accel.config import jetstream_config, mega_config
from repro.accel.memory import MemorySystem, PartitionPlan
from repro.accel.scheduler import Wave, WaveScheduler, flatten_waves
from repro.accel.timing import ROUND_KINDS, ROUND_PLAIN, TimingModel
from repro.algorithms import get_algorithm
from repro.engines.trace import TRACE_ROW, ExecutionTrace
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_edges
from repro.perf.backend import available_backends, reset_backend, resolve_backend
from repro.workloads import load_scenario

HAS_CEXT = "cext" in available_backends()
needs_cext = pytest.mark.skipif(not HAS_CEXT, reason="no C compiler")

ALGOS = ("BFS", "SSSP", "SSWP", "SSNP", "Viterbi")


@pytest.fixture(autouse=True)
def _restore_backend():
    yield
    reset_backend()


@pytest.fixture(scope="module")
def dl_tiny():
    return load_scenario("DL", "tiny", seed=0)


@pytest.fixture(scope="module")
def pk_tiny():
    return load_scenario("PK", "tiny", seed=0)


def _fields(outcome) -> tuple:
    """Every ScheduleOutcome field, phase_cycles in key order."""
    return (
        outcome.cycles,
        sorted(vars(outcome.counters).items()),
        list(outcome.phase_cycles.items()),
        outcome.round_groups,
        outcome.waves_injected_early,
        list(outcome.wave_cycles),
    )


def _simulated(tier: str, make_sim, scenario, algo: str, monkeypatch):
    """The outcome of one simulation's replay on ``tier``, and its
    report; the compiled tier replays in exactly one kernel call."""
    import dataclasses

    from repro.perf import backend

    reset_backend()
    active = resolve_backend(tier)
    outcomes = []
    calls = []
    run = WaveScheduler.run

    def capture(self, waves):
        outcome = run(self, waves)
        outcomes.append(outcome)
        return outcome

    def counted(*args):
        calls.append(1)
        return active.replay(*args)

    monkeypatch.setattr(WaveScheduler, "run", capture)
    if active.replay is not None:
        monkeypatch.setattr(
            backend, "get_backend",
            lambda: dataclasses.replace(active, replay=counted),
        )
    report = make_sim().run(scenario, get_algorithm(algo))
    monkeypatch.undo()
    assert len(outcomes) == 1
    assert len(calls) == (active.replay is not None)
    return outcomes[0], report


def _assert_tiers_agree(make_sim, scenario, algo, monkeypatch):
    ref, ref_report = _simulated("numpy", make_sim, scenario, algo, monkeypatch)
    got, got_report = _simulated("cext", make_sim, scenario, algo, monkeypatch)
    assert _fields(got) == _fields(ref)
    assert got_report.round_series == ref_report.round_series
    return got_report


SYSTEMS = {
    "jetstream": JetStreamSimulator,
    "direct-hop": lambda: MegaSimulator("direct-hop"),
    "work-sharing": lambda: MegaSimulator("work-sharing"),
    "boe": lambda: MegaSimulator("boe"),
    "boe+bp": lambda: MegaSimulator("boe", pipeline=True),
}


@needs_cext
@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("system", list(SYSTEMS))
def test_every_table4_system_replays_identically(
    system, algo, dl_tiny, monkeypatch
):
    """DL tiny partitions every system's waves; BOE+BP pipelines."""
    report = _assert_tiers_agree(SYSTEMS[system], dl_tiny, algo, monkeypatch)
    assert report.n_partitions > 1


@needs_cext
@pytest.mark.parametrize(
    "make_sim",
    [
        lambda: MegaSimulator(
            "boe", config=replace(mega_config(), row_wide_versions=False)
        ),
        lambda: MegaSimulator(
            "work-sharing", config=replace(mega_config(), detailed_dram=True)
        ),
        lambda: JetStreamSimulator(
            replace(jetstream_config(), detailed_dram=True)
        ),
        lambda: MegaSimulator(
            "boe", pipeline=True,
            config=replace(
                mega_config(), detailed_dram=True, row_wide_versions=False
            ),
        ),
    ],
    ids=["scalar-versions", "detailed-dram", "detailed-dram-deletions",
         "pipelined-scalar-detailed"],
)
@pytest.mark.parametrize("algo", ["SSSP", "SSWP"])
def test_model_ablations_replay_identically(make_sim, algo, dl_tiny, monkeypatch):
    _assert_tiers_agree(make_sim, dl_tiny, algo, monkeypatch)


@needs_cext
@pytest.mark.parametrize("pipeline", [False, True])
def test_small_onchip_memory_partitions_identically(
    pipeline, pk_tiny, monkeypatch
):
    """At paper-scale capacity PK tiny fits on chip; a 2 KB on-chip
    memory splits it."""
    config = mega_config(capacity_scale=1.0)
    unsplit = MegaSimulator("boe", pipeline=pipeline, config=config).run(
        pk_tiny, get_algorithm("BFS")
    )
    report = _assert_tiers_agree(
        lambda: MegaSimulator(
            "boe", pipeline=pipeline, config=config.with_onchip_mb(0.002)
        ),
        pk_tiny, "BFS", monkeypatch,
    )
    assert unsplit.n_partitions == 1
    assert report.n_partitions > 1


# -- hand-built and random flat traces ------------------------------------

#: round phases a trace can carry: plain, repair and tag kinds
PHASES = ("full", "add", "del", "del-tag", "del-pull", "del-recompute")


def _timing(config, n_blocks: int, capacity: int) -> TimingModel:
    graph = CSRGraph.from_edges(rmat_edges(64, 256, seed=3))
    return TimingModel(
        config, MemorySystem(config, graph), EdgeCacheModel(capacity, n_blocks)
    )


def _execution(phase, chunks, touched) -> ExecutionTrace:
    """An execution of hand-built chunks of (round phase, trace rows);
    row i's edge blocks are its n_blocks ids from 3 * i, so consecutive
    rounds overlap in the cache."""
    e = ExecutionTrace("t", phase, (0,))
    for round_phase, rows in chunks:
        rows = np.array(rows, dtype=np.int64)
        blocks = [3 * i + j for i, row in enumerate(rows) for j in range(row[-1])]
        e.append(round_phase, 1, rows, np.array(blocks, dtype=np.int64))
    e.touched_dst_count = touched
    return e


def _both(config, waves, pipeline=False, threshold=None, n_blocks=64,
          capacity=8):
    """Replay ``waves`` on both tiers from fresh models; returns the two
    outcomes and the two timing models (for their cache state)."""
    from repro.perf.backend import cext

    flat = flatten_waves(waves)
    ref_timing = _timing(config, n_blocks, capacity)
    got_timing = _timing(config, n_blocks, capacity)
    ref = WaveScheduler(ref_timing, pipeline, threshold).replay_reference(flat)
    got = WaveScheduler(got_timing, pipeline, threshold)._replay_compiled(
        flat, cext.replay
    )
    return ref, got, ref_timing, got_timing


def _assert_same_state(ref_timing, got_timing):
    a, b = ref_timing.cache, got_timing.cache
    assert np.array_equal(a.stamp, b.stamp)
    assert (a.distinct_accesses, a.hits, a.misses) == (
        b.distinct_accesses, b.hits, b.misses
    )
    if ref_timing.dram_model is not None:
        x, y = ref_timing.dram_model, got_timing.dram_model
        assert np.array_equal(x.open_rows, y.open_rows)
        assert (x.row_hits, x.row_misses) == (y.row_hits, y.row_misses)


@needs_cext
def test_unlabelled_waves_and_roundless_executions():
    """A wave labelled "" records no wave_cycles entry; an execution
    with no rounds still pays its spill and never becomes a stream."""
    row = [40, 90, 90, 20, 40, 90, 20, 4]
    waves = [
        Wave([_execution("full", [("full", [row, row])], 12)],
             PartitionPlan(3, 0.0, 0.0, 0.4), label="first"),
        Wave([_execution("add", [], 30),
              _execution("add", [("add", [row])], 5)],
             PartitionPlan(2, 0.0, 0.0, 0.25)),
        Wave([_execution("add", [], 0)], PartitionPlan(1, 0.0, 0.0, 0.0),
             label="empty"),
    ]
    ref, got, ref_timing, got_timing = _both(mega_config(), waves)
    assert _fields(got) == _fields(ref)
    _assert_same_state(ref_timing, got_timing)
    assert [label for label, __ in got.wave_cycles] == ["first", "empty"]
    assert got.wave_cycles[-1] == ("empty", 0.0)
    assert list(got.phase_cycles) == ["partition", "full", "add"]
    assert got.round_groups == 3


@needs_cext
@pytest.mark.parametrize("threshold, early", [(30, 0), (31, 1)])
def test_pipelining_injects_only_below_the_threshold(threshold, early):
    """A stream whose next round holds exactly the threshold's events
    (10 popped + 20 generated) is not in its tail yet."""
    head = [50, 200, 200, 40, 50, 200, 40, 2]
    tail = [10, 20, 20, 5, 10, 20, 5, 1]
    waves = [
        Wave([_execution("add", [("add", [head, tail, tail])], 3)],
             PartitionPlan(1, 0.0, 0.0, 0.0), label="a"),
        Wave([_execution("add", [("add", [head])], 3)],
             PartitionPlan(1, 0.0, 0.0, 0.0), label="b"),
    ]
    ref, got, *_ = _both(mega_config(), waves, True, threshold)
    assert _fields(got) == _fields(ref)
    assert got.waves_injected_early == early


@needs_cext
def test_no_waves_and_repeated_runs_share_the_cache():
    """An empty wave list replays to nothing; a second run on the same
    models starts from the cache state the first left."""
    from repro.perf.backend import cext

    ref, got, *_ = _both(mega_config(), [])
    assert _fields(got) == _fields(ref)
    assert got.cycles == 0.0 and got.wave_cycles == []
    row = [8, 30, 30, 6, 8, 30, 6, 5]
    waves = [Wave([_execution("add", [("add", [row, row])], 4)],
                  PartitionPlan(1, 0.0, 0.0, 0.0), label="w")]
    flat = flatten_waves(waves)
    ref_timing = _timing(mega_config(), 64, 8)
    got_timing = _timing(mega_config(), 64, 8)
    for __ in range(2):
        ref = WaveScheduler(ref_timing).replay_reference(flat)
        got = WaveScheduler(got_timing)._replay_compiled(flat, cext.replay)
        assert _fields(got) == _fields(ref)
        _assert_same_state(ref_timing, got_timing)
    assert got.counters.edge_block_hits > 0


#: small counts make heads meet the pipelining threshold exactly
_count = st.integers(0, 12) | st.integers(0, 900)
_row = st.tuples(
    _count, _count, _count, _count, _count, _count, _count,
)
#: 48 block ids spread over 64 DRAM rows (32 blocks each), so the
#: cache sees reuse and the row buffer's banks see row conflicts
_block = st.integers(0, 47).map(lambda b: b * 41)
_chunk = st.tuples(
    st.sampled_from(PHASES),
    st.lists(
        st.tuples(_row, st.lists(_block, max_size=12)),
        min_size=0, max_size=4,
    ),
)
_execution_st = st.tuples(
    st.sampled_from(PHASES), st.lists(_chunk, max_size=3),
    st.integers(0, 500),
)
_wave = st.tuples(
    st.lists(_execution_st, max_size=3),
    st.integers(1, 4),
    st.floats(0.0, 1.0),
    st.sampled_from(["", "a", "b"]),
)


@needs_cext
@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    waves=st.lists(_wave, max_size=5),
    pipeline=st.booleans(),
    threshold=st.integers(-1, 30) | st.integers(0, 1500),
    row_wide=st.booleans(),
    detailed=st.booleans(),
    capacity=st.integers(0, 20),
)
def test_random_flat_traces_replay_identically(
    waves, pipeline, threshold, row_wide, detailed, capacity
):
    built = []
    for executions, parts, cross, label in waves:
        traces = []
        for phase, chunks, touched in executions:
            e = ExecutionTrace("t", phase, (0,))
            for round_phase, rounds in chunks:
                rows = np.array(
                    [list(r) + [len(b)] for r, b in rounds], dtype=np.int64
                ).reshape(-1, TRACE_ROW)
                blocks = np.array(
                    [x for __, b in rounds for x in b], dtype=np.int64
                )
                e.append(round_phase, 1, rows, blocks)
            e.touched_dst_count = touched
            traces.append(e)
        built.append(Wave(traces, PartitionPlan(parts, 0.0, 0.0, cross), label))
    config = replace(
        mega_config(), row_wide_versions=row_wide, detailed_dram=detailed
    )
    ref, got, ref_timing, got_timing = _both(
        config, built, pipeline, threshold, n_blocks=48 * 41,
        capacity=capacity,
    )
    assert _fields(got) == _fields(ref)
    _assert_same_state(ref_timing, got_timing)


# -- malformed input ---------------------------------------------------------


def _valid_args():
    """A valid replay call's arguments (as WaveScheduler builds them)."""
    row = [8, 30, 30, 6, 8, 30, 6, 3]
    waves = [
        Wave([_execution("add", [("add", [row, row]), ("del-tag", [row])], 4)],
             PartitionPlan(2, 0.0, 0.0, 0.5), label="w"),
    ]
    flat = flatten_waves(waves)
    timing = _timing(replace(mega_config(), detailed_dram=True), 16, 4)
    ints, doubles = timing.kernel_config()
    kinds = np.array(
        [ROUND_KINDS.get(p, ROUND_PLAIN) for p in flat.phases], dtype=np.int64
    )
    return dict(
        wave_parts=flat.parts, wave_cross=flat.cross,
        wave_execs=flat.wave_execs, exec_rounds=flat.exec_rounds,
        exec_touched=flat.touched, exec_phase=flat.exec_phase,
        rows=flat.rows, round_phase=flat.round_phase, blocks=flat.blocks,
        phase_kind=kinds, ints=ints, doubles=doubles,
        stamp=timing.cache.stamp, open_rows=timing.dram_model.open_rows,
        state=np.zeros(3, dtype=np.int64), pipeline=False, threshold=64,
    )


def _bad(**overrides):
    def make(args):
        for name, change in overrides.items():
            args[name] = change(args[name]) if callable(change) else change
        return args
    return make


def _set(index, value):
    def change(arr):
        arr = arr.copy()
        arr[index] = value
        return arr
    return change


@needs_cext
@pytest.mark.parametrize(
    "make_bad",
    [
        _bad(rows=lambda r: np.ascontiguousarray(r[:, :-1])),
        _bad(rows=lambda r: np.asfortranarray(r)),
        _bad(blocks=lambda b: b.astype(np.int32)),
        _bad(wave_cross=lambda c: c.astype(np.float32)),
        _bad(exec_touched=lambda t: np.zeros(2, dtype=np.int64)),
        _bad(round_phase=lambda p: p[:-1].copy()),
        _bad(blocks=_set(0, 16)),
        _bad(blocks=_set(-1, -1)),
        _bad(blocks=lambda b: b[:-1].copy()),
        _bad(rows=_set((0, TRACE_ROW - 1), 5)),
        _bad(rows=_set((0, TRACE_ROW - 1), -1)),
        _bad(wave_execs=_set(0, 1)),
        _bad(exec_rounds=_set(0, 1)),
        _bad(exec_phase=_set(0, 9)),
        _bad(round_phase=_set(0, -1)),
        _bad(phase_kind=_set(0, 3)),
        _bad(ints=_set(0, 0)),
        _bad(ints=lambda i: i[:-1].copy()),
        _bad(doubles=lambda d: d[:-1].copy()),
        _bad(open_rows=None),
        _bad(open_rows=lambda r: r[:-1].copy()),
        _bad(state=lambda s: s[:2].copy()),
        _bad(stamp=lambda s: s.reshape(4, 4)),
    ],
)
def test_replay_rejects_bad_arrays(make_bad):
    """Every shape, dtype, offset, id and block the kernel would misread
    is a ValueError, with the cache's stamps untouched."""
    from repro.perf.backend import cext

    args = make_bad(_valid_args())
    stamp = args["stamp"]
    before = np.array(stamp, copy=True)
    with pytest.raises(ValueError):
        cext.replay(**args)
    assert np.array_equal(stamp, before)


@needs_cext
def test_valid_arguments_replay():
    from repro.perf.backend import cext

    out = cext.replay(**_valid_args())
    assert out.counts[7] == 3 and out.sums[0] > 0
