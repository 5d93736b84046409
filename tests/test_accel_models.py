"""Tests for the accelerator component models: cache, memory, NoC, power."""

import numpy as np
import pytest

from repro.accel.cache import EdgeCacheModel
from repro.accel.config import MB, mega_config
from repro.accel.memory import MemorySystem
from repro.accel.noc import CrossbarNoC
from repro.accel.power import PowerAreaModel, table5_breakdown
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_edges
from repro.graph.partition import VertexPartitioner


# -- edge cache ---------------------------------------------------------------


def test_cache_cold_misses():
    c = EdgeCacheModel(capacity_blocks=4, n_blocks=100)
    hits, misses = c.access_round(np.array([1, 2, 3]))
    assert (hits, misses) == (0, 3)


def test_cache_hits_within_capacity():
    c = EdgeCacheModel(capacity_blocks=8, n_blocks=100)
    c.access_round(np.array([1, 2, 3]))
    hits, misses = c.access_round(np.array([1, 2, 3]))
    assert (hits, misses) == (3, 0)


def test_cache_evicts_beyond_capacity():
    c = EdgeCacheModel(capacity_blocks=4, n_blocks=100)
    c.access_round(np.array([0, 1]))
    c.access_round(np.array([10, 11, 12, 13, 14, 15]))  # push 0,1 out
    hits, misses = c.access_round(np.array([0, 1]))
    assert hits == 0 and misses == 2


def test_cache_flush():
    c = EdgeCacheModel(capacity_blocks=8, n_blocks=50)
    c.access_round(np.array([1, 2]))
    c.flush()
    hits, __ = c.access_round(np.array([1, 2]))
    assert hits == 0


def test_cache_hit_rate():
    c = EdgeCacheModel(capacity_blocks=8, n_blocks=50)
    assert c.hit_rate == 0.0
    c.access_round(np.array([1]))
    c.access_round(np.array([1]))
    assert c.hit_rate == 0.5


def test_cache_empty_round():
    c = EdgeCacheModel(capacity_blocks=8, n_blocks=50)
    assert c.access_round(np.empty(0, dtype=np.int64)) == (0, 0)


def test_cache_rejects_negative_capacity():
    with pytest.raises(ValueError):
        EdgeCacheModel(capacity_blocks=-1, n_blocks=10)


# -- memory system ------------------------------------------------------------


@pytest.fixture
def wen_like_memory():
    """A memory system scaled like Wikipedia-En: 13M vertices at 1/1000."""
    g = CSRGraph.from_edges(rmat_edges(13_000, 100_000, seed=1))
    cfg = mega_config(capacity_scale=13_000 / 13_000_000)
    return MemorySystem(cfg, g)


def test_livejournal_needs_four_partitions():
    """The paper's §5.2 example: 16 snapshots of LJ (4M vertices) against
    64 MB on-chip memory require four partitions."""
    g = CSRGraph.from_edges(rmat_edges(4_000, 10_000, seed=0))
    cfg = mega_config(capacity_scale=4_000 / 4_000_000)
    mem = MemorySystem(cfg, g)
    assert mem.n_partitions(16) == 4
    assert mem.n_partitions(1) == 1  # JetStream needs no partitioning


def test_wen_partition_counts(wen_like_memory):
    assert wen_like_memory.n_partitions(16) == 13
    assert wen_like_memory.n_partitions(1) == 1


def test_state_bytes_scale_with_versions(wen_like_memory):
    assert wen_like_memory.state_bytes(8) == 2 * wen_like_memory.state_bytes(4)


def test_partition_plan_single_has_no_overheads(wen_like_memory):
    plan = wen_like_memory.partition_plan(1)
    assert plan.n_partitions == 1
    assert plan.sweep_bytes == 0.0
    assert plan.cross_fraction == 0.0


def test_partition_plan_cross_fraction_bounds(wen_like_memory):
    plan = wen_like_memory.partition_plan(16)
    assert 0.0 < plan.cross_fraction <= 1.0


def test_empty_graph_has_one_partition():
    """A graph with no vertices still gets one (empty) partition rather
    than zero, which VertexPartitioner rejects."""
    empty = np.empty(0, dtype=np.int64)
    g = CSRGraph(0, np.zeros(1, dtype=np.int64), empty, empty.astype(float))
    mem = MemorySystem(mega_config(), g)
    assert mem.n_partitions(16) == 1
    plan = mem.partition_plan(16)
    assert plan.n_partitions == 1
    assert plan.cross_fraction == 0.0


def test_cross_fraction_computed_once_per_partition_count(monkeypatch):
    """Repeated simulations of one scenario share the union graph's
    cross-fraction memo: each partition count is derived exactly once,
    and each memoised value equals a fresh partitioner's."""
    from repro.accel import JetStreamSimulator, MegaSimulator
    from repro.algorithms import get_algorithm
    from repro.workloads import load_scenario

    calls: list[int] = []
    real = VertexPartitioner.cross_fraction

    def counting(self, src, dst):
        calls.append(self.n_partitions)
        return real(self, src, dst)

    monkeypatch.setattr(VertexPartitioner, "cross_fraction", counting)
    scenario = load_scenario("DL", "tiny", seed=0)
    algo = get_algorithm("bfs")
    for sim in (JetStreamSimulator(), MegaSimulator("boe"),
                MegaSimulator("direct-hop")):
        for __ in range(2):
            sim.run(scenario, algo)
    assert len(calls) >= 2  # DL partitions even at one resident version
    assert len(calls) == len(set(calls))

    monkeypatch.undo()
    g = scenario.unified.graph
    for p in calls:
        fresh = VertexPartitioner(g.indptr, p).cross_fraction(
            g.src_of_edge, g.dst
        )
        assert g.partition_cross_fraction(p) == fresh


def test_dram_cycles_bandwidth():
    g = CSRGraph.from_tuples(2, [(0, 1)])
    cfg = mega_config()
    mem = MemorySystem(cfg, g)
    # 4 x 17 GB/s at 1 GHz = 68 bytes/cycle
    assert mem.dram_cycles(680.0) == pytest.approx(10.0)


def test_onchip_capacity_scaling():
    cfg = mega_config(capacity_scale=0.001)
    assert cfg.onchip_bytes == pytest.approx(64 * MB * 0.001)


# -- NoC ------------------------------------------------------------------------


def test_noc_throughput():
    noc = CrossbarNoC(mega_config())
    assert noc.peak_messages_per_cycle == 16
    assert noc.cycles(160) == pytest.approx(10.0)
    assert noc.cycles(0) == 0.0


def test_noc_generator_sharing():
    noc = CrossbarNoC(mega_config())
    # 32 generators over 16 ports -> 2 share each port
    assert noc.generators_per_port == 2


# -- power / area (Table 5) -----------------------------------------------------


def test_table5_totals_match_paper():
    """Total power ~9532 mW and area ~203 mm^2 (Table 5, within 5%)."""
    total = table5_breakdown()[-1]
    assert total.total_mw == pytest.approx(9532, rel=0.05)
    assert total.area_mm2 == pytest.approx(203, rel=0.05)


def test_table5_queue_dominates():
    rows = table5_breakdown()
    queue = rows[0]
    assert queue.total_mw == pytest.approx(9389, rel=0.05)
    assert queue.area_mm2 == pytest.approx(195, rel=0.05)


def test_power_scales_with_memory():
    small = PowerAreaModel(mega_config().with_onchip_mb(16)).total()
    big = PowerAreaModel(mega_config().with_onchip_mb(64)).total()
    assert big.total_mw > small.total_mw
    assert big.area_mm2 > small.area_mm2


def test_mega_overhead_over_jetstream_is_small_and_positive():
    """Table 5: MEGA costs ~6.8% more power and ~2% more area."""
    over = PowerAreaModel(mega_config()).overhead_over_jetstream()
    power_pct, area_pct = over["Total"]
    assert 0 < power_pct < 15
    assert 0 < area_pct < 10


def test_network_overhead_from_wider_events():
    over = PowerAreaModel(mega_config()).overhead_over_jetstream()
    power_pct, area_pct = over["Network"]
    assert power_pct > 5  # wider flits cost real power
    assert area_pct > 5
