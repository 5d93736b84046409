"""Unit tests for the trace layer (RoundTrace / ExecutionTrace / collector)."""

import numpy as np

from repro.engines.trace import ExecutionTrace, RoundTrace, TraceCollector


def rt(events=4, generated=10, edges=10, writes=3, phase="add"):
    return RoundTrace(
        phase=phase,
        events_popped=events,
        events_generated=generated,
        edges_fetched=edges,
        edge_blocks=np.array([0, 1]),
        vertex_reads=events + generated,
        vertex_writes=writes,
        n_versions=1,
        version_events_popped=events,
        version_events_generated=generated,
        version_vertex_writes=writes,
    )


def test_execution_trace_aggregates():
    e = ExecutionTrace("t", "add", (0,), [rt(), rt(events=6, generated=2)])
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
    c.round(rt(), np.array([0, 1]), dst=np.array([3, 4]))
    c.round(rt(), np.array([2]), dst=np.array([4, 5]))
    done = c.end()
    assert done.tag == "x"
    assert done.targets == (0, 1)
    assert done.touched_dst_count == 3  # {3, 4, 5}
    assert not c.active


def test_touched_dst_union_semantics():
    c = TraceCollector(n_union_edges=4, n_vertices=10)
    c.begin("x", "add", (0,))
    c.round(rt(), dst=np.array([1, 2]))
    c.round(rt(), dst=np.array([2, 3, 3]))
    done = c.end()
    assert done.touched_dst_count == 3  # {1, 2, 3}


def test_touched_edges_only_when_enabled():
    c = TraceCollector(n_union_edges=6, record_touched_edges=True)
    c.begin("x", "add", (0,))
    c.round(rt(), np.array([1, 4]))
    done = c.end()
    assert done.touched_edges.tolist() == [False, True, False, False, True, False]

    c2 = TraceCollector(n_union_edges=6)
    c2.begin("x", "add", (0,))
    c2.round(rt(), np.array([1]))
    assert c2.end().touched_edges is None


def test_collector_totals_and_phase_filter():
    c = TraceCollector(4)
    c.begin("a", "add", (0,))
    c.round(rt())
    c.end()
    c.begin("b", "del", (0,))
    c.round(rt(generated=100))
    c.end()
    assert c.total("events_generated") == 110
    assert [e.tag for e in c.by_phase("del")] == ["b"]
    assert [e.tag for e in c.by_phase("add")] == ["a"]


def test_touched_dst_reset_between_executions():
    c = TraceCollector(4, n_vertices=8)
    c.begin("a", "add", (0,))
    c.round(rt(), dst=np.array([1, 2, 3]))
    first = c.end()
    c.begin("b", "add", (0,))
    c.round(rt(), dst=np.array([7]))
    second = c.end()
    assert first.touched_dst_count == 3
    assert second.touched_dst_count == 1
