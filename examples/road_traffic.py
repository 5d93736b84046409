"""Shortest routes over an evolving road network.

A city road network (grid graph) evolves over a two-week window: some road
segments close (deletions — construction) and new segments open
(additions).  A logistics operator wants the shortest travel time from the
depot to every intersection *on every day* — a textbook evolving-graph
query (track a property over a time window), not a streaming one.

The example evaluates SSSP over all days with the deletion-free BOE
workflow, prints how the route cost to the farthest corner changes as the
network evolves, and compares against the streaming baseline that has to
process the closures as expensive deletions.

Run:  python examples/road_traffic.py
"""

import numpy as np

from repro import get_algorithm, synthesize_scenario
from repro.engines import PlanExecutor
from repro.engines.validation import validate_workflow
from repro.graph.generators import grid_edges
from repro.schedule import boe_plan, streaming_plan

ROWS, COLS = 24, 24
N_DAYS = 14


def main() -> None:
    # Road grid with travel-time weights; extra diagonal "express" links
    # form the pool of segments that can open during the window.
    roads = grid_edges(ROWS, COLS, seed=3)
    rng = np.random.default_rng(3)
    n = ROWS * COLS
    express_src = rng.integers(0, n - COLS - 1, size=300)
    express = type(roads)(
        n,
        express_src,
        np.minimum(express_src + COLS + 1, n - 1),
        rng.uniform(1.0, 4.0, size=300),
    )
    pool = roads.concat(express).without_self_loops().deduplicate()

    # construction-heavy fortnight: closures outnumber openings 2:1
    scenario = synthesize_scenario(
        pool,
        n_snapshots=N_DAYS,
        batch_pct=0.03,
        add_fraction=0.33,
        seed=9,
        source=0,  # the depot sits at the north-west corner
        name="roads",
    )
    sssp = get_algorithm("sssp")
    print(
        f"road network: {n} intersections, "
        f"{scenario.unified.n_union_edges} segments in the window, "
        f"{N_DAYS} daily snapshots"
    )

    result = PlanExecutor(scenario, sssp, record_traces=True).run(
        boe_plan(scenario.unified)
    )
    validate_workflow(scenario, sssp, result)

    far_corner = n - 1
    print(f"\n{'day':>4} {'open segments':>14} {'depot->far corner':>18}")
    for day in range(N_DAYS):
        dist = result.values(day)[far_corner]
        n_open = scenario.snapshot_graph(day).n_edges
        cost = f"{dist:.1f}" if np.isfinite(dist) else "unreachable"
        print(f"{day:>4} {n_open:>14} {cost:>18}")

    # The streaming engine reaches the same answers, paying for deletions.
    streaming = PlanExecutor(scenario, sssp, record_traces=True).run(
        streaming_plan(scenario.unified)
    )
    validate_workflow(scenario, sssp, streaming)
    boe_events = result.collector.total("events_generated")
    stream_events = streaming.collector.total("events_generated")
    print(
        f"\nevent work: BOE {boe_events} vs streaming {stream_events} "
        f"({stream_events / max(boe_events, 1):.1f}x more for streaming, "
        f"deletion repair included)"
    )


if __name__ == "__main__":
    main()
