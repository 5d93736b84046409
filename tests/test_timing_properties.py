"""Property-based tests for the timing model's monotonicity invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.accel.cache import EdgeCacheModel
from repro.accel.config import mega_config
from repro.accel.memory import MemorySystem, PartitionPlan
from repro.accel.stats import SimCounters
from repro.accel.timing import TimingModel
from repro.engines.trace import RoundTrace
from repro.graph.csr import CSRGraph

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def fresh_timing():
    g = CSRGraph.from_tuples(4, [(0, 1), (1, 2), (2, 3)])
    cfg = mega_config(capacity_scale=1.0)
    return TimingModel(cfg, MemorySystem(cfg, g), EdgeCacheModel(0, 1024))


def make_round(events, generated, blocks, phase="add", versions=1):
    return RoundTrace(
        phase=phase,
        events_popped=events,
        events_generated=generated,
        edges_fetched=generated,
        edge_blocks=np.arange(blocks, dtype=np.int64),
        vertex_reads=events + generated,
        vertex_writes=events,
        n_versions=versions,
        version_events_popped=events * versions,
        version_events_generated=generated * versions,
        version_vertex_writes=events * versions,
    )


@SETTINGS
@given(
    events=st.integers(0, 10_000),
    generated=st.integers(0, 50_000),
    blocks=st.integers(0, 500),
)
def test_cost_components_nonnegative(events, generated, blocks):
    timing = fresh_timing()
    part = PartitionPlan(1, 0.0, 0.0, 0.0)
    cost = timing.round_group_cost(
        [(make_round(events, generated, blocks), part)], SimCounters()
    )
    assert cost.pe >= 0 and cost.queue >= 0
    assert cost.noc >= 0 and cost.dram >= 0
    assert cost.total >= cost.overhead


@SETTINGS
@given(
    base=st.integers(0, 5_000),
    extra=st.integers(1, 5_000),
    generated=st.integers(0, 10_000),
)
def test_more_events_never_cheaper(base, extra, generated):
    part = PartitionPlan(1, 0.0, 0.0, 0.0)
    small = fresh_timing().round_group_cost(
        [(make_round(base, generated, 0), part)], SimCounters()
    )
    big = fresh_timing().round_group_cost(
        [(make_round(base + extra, generated, 0), part)], SimCounters()
    )
    assert big.pe >= small.pe
    assert big.total >= small.total - 30.0  # prefetch latency hiding slack


@SETTINGS
@given(blocks=st.integers(0, 400), extra=st.integers(1, 400))
def test_more_cold_blocks_more_dram(blocks, extra):
    part = PartitionPlan(1, 0.0, 0.0, 0.0)
    c1, c2 = SimCounters(), SimCounters()
    fresh_timing().round_group_cost(
        [(make_round(10, 10, blocks), part)], c1
    )
    fresh_timing().round_group_cost(
        [(make_round(10, 10, blocks + extra), part)], c2
    )
    assert c2.dram_bytes > c1.dram_bytes


@SETTINGS
@given(
    touched=st.integers(0, 10_000),
    cross_lo=st.floats(0.0, 0.5),
    cross_hi=st.floats(0.5, 1.0),
)
def test_spill_monotone_in_cross_fraction(touched, cross_lo, cross_hi):
    timing = fresh_timing()
    lo = timing.execution_spill_cycles(
        touched, PartitionPlan(4, 1.0, 1.0, cross_lo), SimCounters()
    )
    hi = timing.execution_spill_cycles(
        touched, PartitionPlan(4, 1.0, 1.0, cross_hi), SimCounters()
    )
    assert hi >= lo


@SETTINGS
@given(
    events=st.integers(1, 2_000),
    generated=st.integers(1, 2_000),
    factor=st.floats(1.0, 20.0),
)
def test_deletion_factor_scales_pe_only(events, generated, factor):
    from dataclasses import replace

    g = CSRGraph.from_tuples(2, [(0, 1)])
    cfg = replace(mega_config(capacity_scale=1.0), deletion_event_factor=factor)
    timing = TimingModel(cfg, MemorySystem(cfg, g), EdgeCacheModel(0, 64))
    part = PartitionPlan(1, 0.0, 0.0, 0.0)
    add = timing.round_group_cost(
        [(make_round(events, generated, 0, phase="add"), part)], SimCounters()
    )
    tag = timing.round_group_cost(
        [(make_round(events, generated, 0, phase="del-tag"), part)],
        SimCounters(),
    )
    assert tag.pe == add.pe * factor or abs(tag.pe - add.pe * factor) < 1e-9
    assert tag.queue == add.queue
    assert tag.noc == add.noc
