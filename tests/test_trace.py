"""Unit tests for the trace layer (RoundTrace / ExecutionTrace / collector)."""

import numpy as np

from repro.engines.trace import ExecutionTrace, TraceCollector


def rt(events=4, generated=10, edges=10, writes=3, phase="add"):
    """One round as a chunk: (phase, versions, trace row, edge blocks)."""
    row = [[events, generated, edges, writes, events, generated, writes, 2]]
    return phase, 1, np.array(row, dtype=np.int64), np.array([0, 1])


def test_execution_trace_aggregates():
    e = ExecutionTrace("t", "add", (0,))
    e.append(*rt())
    e.append(*rt(events=6, generated=2))
    assert e.events_popped == 10
    assert e.events_generated == 12
    assert e.edges_fetched == 20
    assert e.vertex_writes == 6
    assert e.vertex_reads == (4 + 10) + (6 + 2)
    assert e.n_rounds == 2
    assert e.events_per_round() == [4, 6]


def test_collector_begin_round_end_flow():
    c = TraceCollector(n_union_edges=8, n_vertices=10)
    c.begin("x", "add", (0, 1))
    c.record(*rt(), np.array([0, 1]), dst=np.array([3, 4]))
    c.record(*rt(), np.array([2]), dst=np.array([4, 5]))
    done = c.end()
    assert done.tag == "x"
    assert done.targets == (0, 1)
    assert done.touched_dst_count == 3  # {3, 4, 5}
    assert not c.active


def test_touched_dst_union_semantics():
    c = TraceCollector(n_union_edges=4, n_vertices=10)
    c.begin("x", "add", (0,))
    c.record(*rt(), dst=np.array([1, 2]))
    c.record(*rt(), dst=np.array([2, 3, 3]))
    done = c.end()
    assert done.touched_dst_count == 3  # {1, 2, 3}


def test_touched_edges_only_when_enabled():
    c = TraceCollector(n_union_edges=6, record_touched_edges=True)
    c.begin("x", "add", (0,))
    c.record(*rt(), np.array([1, 4]))
    done = c.end()
    assert done.touched_edges.tolist() == [False, True, False, False, True, False]

    c2 = TraceCollector(n_union_edges=6)
    c2.begin("x", "add", (0,))
    c2.record(*rt(), np.array([1]))
    assert c2.end().touched_edges is None


def test_collector_totals_and_phase_filter():
    c = TraceCollector(4)
    c.begin("a", "add", (0,))
    c.record(*rt())
    c.end()
    c.begin("b", "del", (0,))
    c.record(*rt(generated=100))
    c.end()
    assert c.total("events_generated") == 110
    assert [e.tag for e in c.by_phase("del")] == ["b"]
    assert [e.tag for e in c.by_phase("add")] == ["a"]


def test_touched_dst_reset_between_executions():
    c = TraceCollector(4, n_vertices=8)
    c.begin("a", "add", (0,))
    c.record(*rt(), dst=np.array([1, 2, 3]))
    first = c.end()
    c.begin("b", "add", (0,))
    c.record(*rt(), dst=np.array([7]))
    second = c.end()
    assert first.touched_dst_count == 3
    assert second.touched_dst_count == 1


# -- columnar traces of recorded simulations ----------------------------------

ROUND_FIELDS = (
    "phase", "events_popped", "events_generated", "edges_fetched",
    "vertex_reads", "vertex_writes", "n_versions", "version_events_popped",
    "version_events_generated", "version_vertex_writes",
)


def _recorded(tier, simulator, scenario, algo):
    """A simulation's report and recorded executions on ``tier``."""
    from repro.perf.backend import reset_backend, resolve_backend

    reset_backend()
    try:
        resolve_backend(tier)
        report, result = simulator.run_with_values(scenario, algo)
    finally:
        reset_backend()
    return report, result.collector.executions


def _views(executions):
    return [
        [
            tuple(getattr(r, name) for name in ROUND_FIELDS)
            + (r.edge_blocks.dtype.str, r.edge_blocks.tolist())
            for r in e.rounds
        ]
        for e in executions
    ]


def _simulators():
    from repro.accel import JetStreamSimulator, MegaSimulator

    return [JetStreamSimulator(), MegaSimulator("direct-hop"),
            MegaSimulator("boe", pipeline=True)]


def test_round_views_and_aggregates_match_the_numpy_tier():
    """Every recorded round reads back as the numpy tier's RoundTrace,
    field for field, on each tier; the aggregates and the report's
    round series are column reads that agree with the views."""
    from repro.algorithms import get_algorithm
    from repro.perf.backend import available_backends
    from repro.workloads import load_scenario

    scenario = load_scenario("DL", "tiny", seed=0)
    algo = get_algorithm("SSSP")
    for simulator in _simulators():
        reference = None
        for tier in available_backends():
            report, executions = _recorded(tier, simulator, scenario, algo)
            views = _views(executions)
            if reference is None:
                reference = views
            assert views == reference, tier
            for e in executions:
                rounds = e.rounds
                assert e.n_rounds == len(rounds)
                assert e.events_per_round() == [
                    r.events_popped for r in rounds
                ]
                for name in ("events_popped", "events_generated",
                             "edges_fetched", "vertex_reads",
                             "vertex_writes"):
                    assert getattr(e, name) == sum(
                        getattr(r, name) for r in rounds
                    ), name
            assert report.round_series == [
                [r.events_popped for r in e.rounds] for e in executions
            ]


def test_recorded_compiled_simulation_builds_no_round_objects(monkeypatch):
    """On the compiled tier a recorded simulation — engine rounds,
    deletion repair and the timing replay — constructs no RoundTrace
    until an execution's rounds are read."""
    import pytest

    from repro.algorithms import get_algorithm
    from repro.engines.trace import RoundTrace
    from repro.perf.backend import available_backends
    from repro.workloads import load_scenario

    if "cext" not in available_backends():
        pytest.skip("no compiled kernel tier available")
    built = []
    init = RoundTrace.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RoundTrace, "__init__", counting)
    scenario = load_scenario("DL", "tiny", seed=0)
    for simulator in _simulators():
        report, executions = _recorded(
            "cext", simulator, scenario, get_algorithm("BFS")
        )
        assert report.cycles > 0 and executions
        assert built == []
        first = executions[0]
        assert len(first.rounds) == first.n_rounds > 0
        assert len(built) == first.n_rounds
        built.clear()
