"""Tests for the row-buffer-aware DRAM model."""

from dataclasses import replace

import numpy as np
import pytest

from repro.accel import MegaSimulator, mega_config
from repro.accel.dram import RowBufferDram
from repro.algorithms import get_algorithm
from repro.workloads import load_scenario


def model(**kw):
    return RowBufferDram(mega_config(capacity_scale=1.0), **kw)


def test_sequential_blocks_hit_row_buffer():
    m = model()
    # 32 blocks per 2 KiB row: the first access opens the row, rest hit
    m.access_round(np.arange(32))
    assert m.row_misses == 1
    assert m.row_hits == 31


def test_scattered_blocks_miss():
    m = model()
    stride = m.blocks_per_row * m.n_banks  # unique row per access, same bank
    m.access_round(np.arange(8) * stride)
    assert m.row_hits == 0
    assert m.row_misses == 8


def test_sequential_cheaper_than_scattered():
    seq = model()
    scat = model()
    a = seq.access_round(np.arange(64))
    stride = scat.blocks_per_row * scat.n_banks
    b = scat.access_round(np.arange(64) * stride)
    assert a < b


def test_open_rows_persist_across_rounds():
    m = model()
    m.access_round(np.array([0]))
    cost = m.access_round(np.array([1]))  # same row, still open
    assert m.row_hits == 1
    assert cost == pytest.approx(m.t_burst / m.config.dram_channels)


def test_empty_round_free():
    m = model()
    assert m.access_round(np.empty(0, dtype=np.int64)) == 0.0
    assert m.row_hit_rate == 0.0


def test_hit_rate_tracking():
    m = model()
    m.access_round(np.arange(16))
    assert 0.9 <= m.row_hit_rate < 1.0


def test_detailed_dram_integrates_with_simulator():
    scenario = load_scenario("PK", "tiny", n_snapshots=6)
    algo = get_algorithm("sssp")
    plain = MegaSimulator("boe", config=mega_config()).run(scenario, algo)
    detailed = MegaSimulator(
        "boe", config=replace(mega_config(), detailed_dram=True)
    ).run(scenario, algo)
    # the detailed model only ever adds service time for poor locality
    assert detailed.update_cycles >= plain.update_cycles * 0.999
    # and values/workflow behaviour are unchanged
    assert detailed.counters.events_generated == plain.counters.events_generated


def test_detailed_dram_sees_exactly_the_missed_blocks():
    """Only the blocks the edge cache missed reach the row-buffer model,
    wherever they sit in the round's block list."""
    from repro.accel.cache import EdgeCacheModel
    from repro.accel.memory import MemorySystem, PartitionPlan
    from repro.accel.stats import SimCounters
    from repro.accel.timing import TimingModel
    from repro.engines.trace import RoundTrace
    from repro.graph.csr import CSRGraph
    from repro.graph.generators import rmat_edges

    cfg = replace(mega_config(), detailed_dram=True)
    graph = CSRGraph.from_edges(rmat_edges(64, 256, seed=0))
    timing = TimingModel(cfg, MemorySystem(cfg, graph), EdgeCacheModel(4, 64))
    sent = []
    real = timing.dram_model.access_round
    timing.dram_model.access_round = lambda blocks: (
        sent.append(blocks.tolist()) or real(blocks)
    )
    timing.cache.access_round(np.array([40]))  # block 40 now hits
    r = RoundTrace(
        phase="add", events_popped=1, events_generated=2, edges_fetched=2,
        edge_blocks=np.array([3, 40]), vertex_reads=3, vertex_writes=1,
        n_versions=1,
    )
    counters = SimCounters()
    timing.round_group_cost([(r, PartitionPlan(1, 0.0, 0.0, 0.0))], counters)
    assert (counters.edge_block_hits, counters.edge_block_misses) == (1, 1)
    assert sent == [[3]]
