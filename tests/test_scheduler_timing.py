"""Unit tests for the wave scheduler and the timing model."""

import numpy as np
import pytest

from repro.accel.cache import EdgeCacheModel
from repro.accel.config import mega_config
from repro.accel.memory import MemorySystem, PartitionPlan
from repro.accel.scheduler import Wave, WaveScheduler
from repro.accel.stats import SimCounters
from repro.accel.timing import TimingModel
from repro.engines.trace import ROW_FIELDS, ExecutionTrace, RoundTrace
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_edges


def make_round(
    events=64,
    generated=256,
    blocks=8,
    phase="add",
    n_versions=1,
):
    return RoundTrace(
        phase=phase,
        events_popped=events,
        events_generated=generated,
        edges_fetched=generated,
        edge_blocks=np.arange(blocks),
        vertex_reads=events + generated,
        vertex_writes=events,
        n_versions=n_versions,
        version_events_popped=events * n_versions,
        version_events_generated=generated * n_versions,
        version_vertex_writes=events * n_versions,
    )


#: every made round touches destinations 0..TOUCHED_DSTS-1
TOUCHED_DSTS = 32


def make_execution(rounds, tag="x", phase="add", targets=(0,)):
    e = ExecutionTrace(tag, phase, targets)
    for r in rounds:
        row = [getattr(r, name) for name in ROW_FIELDS[:-1]]
        e.append(
            r.phase, r.n_versions,
            np.array([row + [r.edge_blocks.size]], dtype=np.int64),
            r.edge_blocks,
        )
    e.touched_dst_count = TOUCHED_DSTS if rounds else 0
    return e


@pytest.fixture
def timing():
    g = CSRGraph.from_edges(rmat_edges(256, 2048, seed=0))
    cfg = mega_config(capacity_scale=1.0)
    memory = MemorySystem(cfg, g)
    cache = EdgeCacheModel(64, 1024)
    return TimingModel(cfg, memory, cache)


def unpartitioned():
    return PartitionPlan(1, 0.0, 0.0, 0.0)


def partitioned(n=4, cross=0.5):
    return PartitionPlan(n, 1e6, 2e6, cross)


# -- timing model -------------------------------------------------------------


def test_round_cost_components_positive(timing):
    counters = SimCounters()
    cost = timing.round_group_cost(
        [(make_round(), unpartitioned())], counters
    )
    assert cost.pe > 0 and cost.queue > 0 and cost.noc > 0
    assert cost.total >= max(cost.pe, cost.queue, cost.noc, cost.dram)
    assert counters.events_popped == 64
    assert counters.rounds == 1


def test_round_cost_is_max_not_sum(timing):
    counters = SimCounters()
    cost = timing.round_group_cost(
        [(make_round(events=8, generated=8, blocks=0), unpartitioned())],
        counters,
    )
    # tiny round: overhead dominates and cost ~ overhead + max(components)
    assert cost.total < cost.pe + cost.queue + cost.noc + cost.overhead + 5


def test_deletion_factor_inflates_pe_cost(timing):
    counters = SimCounters()
    add = timing.round_group_cost(
        [(make_round(phase="add", blocks=0), unpartitioned())], counters
    )
    tag = timing.round_group_cost(
        [(make_round(phase="del-tag", blocks=0), unpartitioned())], counters
    )
    factor = timing.config.deletion_event_factor
    assert tag.pe == pytest.approx(add.pe * factor)


def test_deletion_metadata_traffic(timing):
    counters = SimCounters()
    timing.round_group_cost(
        [(make_round(phase="del-recompute", blocks=0), unpartitioned())],
        counters,
    )
    expected = 256 * timing.config.dependence_bytes
    assert counters.dram_bytes == pytest.approx(expected)


def test_row_wide_versions_ablation():
    g = CSRGraph.from_edges(rmat_edges(64, 512, seed=1))
    cfg = mega_config(capacity_scale=1.0)
    scalar_cfg = type(cfg)(**{**cfg.__dict__, "row_wide_versions": False})
    memory = MemorySystem(cfg, g)
    cache = EdgeCacheModel(64, 1024)
    row = TimingModel(cfg, memory, cache)
    scalar = TimingModel(scalar_cfg, memory, EdgeCacheModel(64, 1024))
    r = make_round(n_versions=8, blocks=0)
    a = row.round_group_cost([(r, unpartitioned())], SimCounters())
    b = scalar.round_group_cost([(r, unpartitioned())], SimCounters())
    assert b.pe == pytest.approx(a.pe * 8)


def test_execution_spill_only_when_partitioned(timing):
    counters = SimCounters()
    assert (
        timing.execution_spill_cycles(100, unpartitioned(), counters) == 0.0
    )
    assert counters.spill_bytes == 0
    cycles = timing.execution_spill_cycles(100, partitioned(), counters)
    assert cycles > 0
    assert counters.spill_bytes == pytest.approx(
        100 * 0.5 * 2 * timing.config.event_bytes
    )


def test_partition_sweep_flushes_cache(timing):
    timing.cache.access_round(np.array([1, 2, 3]))
    counters = SimCounters()
    cycles = timing.partition_sweep_cycles(partitioned(), counters)
    assert cycles > 0
    hits, __ = timing.cache.access_round(np.array([1, 2, 3]))
    assert hits == 0  # flushed


# -- wave scheduler -----------------------------------------------------------


def fresh_timing():
    g = CSRGraph.from_edges(rmat_edges(256, 2048, seed=0))
    cfg = mega_config(capacity_scale=1.0)
    return TimingModel(cfg, MemorySystem(cfg, g), EdgeCacheModel(64, 1024))


def test_sequential_waves_sum():
    single = (
        WaveScheduler(fresh_timing(), pipeline=False)
        .run([Wave([make_execution([make_round()])], unpartitioned())])
        .cycles
    )
    both = (
        WaveScheduler(fresh_timing(), pipeline=False)
        .run(
            [
                Wave([make_execution([make_round()])], unpartitioned()),
                Wave([make_execution([make_round()])], unpartitioned()),
            ]
        )
        .cycles
    )
    # the second wave re-hits the warm edge cache, so it costs less than
    # the first but the total still clearly exceeds one wave
    assert single < both <= 2 * single


def test_concurrent_streams_share_overhead(timing):
    solo = WaveScheduler(timing).run(
        [Wave([make_execution([make_round()])], unpartitioned())]
    )
    merged = WaveScheduler(timing).run(
        [
            Wave(
                [
                    make_execution([make_round()], tag="a"),
                    make_execution([make_round()], tag="b"),
                ],
                unpartitioned(),
            )
        ]
    )
    # two concurrent streams cost far less than double a single one
    assert merged.cycles < 1.8 * solo.cycles
    assert merged.round_groups == 1


def test_pipelining_injects_early(timing):
    tail = [make_round(events=4, generated=4, blocks=0) for __ in range(6)]
    head = [make_round() for __ in range(3)]
    waves = [
        Wave([make_execution([make_round()] + tail, tag="first")], unpartitioned()),
        Wave([make_execution(head, tag="second")], unpartitioned()),
    ]
    plain = WaveScheduler(timing, pipeline=False).run(
        [Wave([make_execution([make_round()] + tail)], unpartitioned()),
         Wave([make_execution(head)], unpartitioned())]
    )
    piped = WaveScheduler(timing, pipeline=True, threshold_events=64).run(waves)
    assert piped.waves_injected_early >= 1
    assert piped.cycles < plain.cycles


def test_phase_cycles_accounted(timing):
    outcome = WaveScheduler(timing).run(
        [
            Wave([make_execution([make_round()], phase="full")], unpartitioned()),
            Wave([make_execution([make_round()], phase="add")], unpartitioned()),
        ]
    )
    assert set(outcome.phase_cycles) == {"full", "add"}
    assert sum(outcome.phase_cycles.values()) == pytest.approx(outcome.cycles)


def test_empty_executions_skipped(timing):
    outcome = WaveScheduler(timing).run(
        [Wave([make_execution([], tag="empty")], unpartitioned())]
    )
    assert outcome.cycles == 0.0
    assert outcome.round_groups == 0
