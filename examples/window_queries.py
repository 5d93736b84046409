"""Ad-hoc time-window queries and multi-source analysis.

An analyst holds a long history (24 snapshots of a logistics network) and
asks two Tegra-style ad-hoc questions:

1. *Windowing*: "how did delivery reach look during weeks 10-15 only?" —
   the triangular-grid algebra re-roots the unified CSR at the window's
   own common graph, and any workflow runs on the sub-window unchanged.
2. *Multi-query BOE*: "shortest routes from all three depots, on every
   day" — the multi-query extension stacks (query, snapshot) pairs into
   one unified value array, fetching each update batch exactly once.

Run:  python examples/window_queries.py
"""

import numpy as np

from repro import synthesize_scenario
from repro.core import EvolvingGraphEngine, multi_query_boe_plan
from repro.engines import PlanExecutor
from repro.graph.generators import rmat_edges

N_SITES = 900
N_ROUTES = 10_000
N_DAYS = 24


def main() -> None:
    pool = rmat_edges(N_SITES, N_ROUTES, seed=33)
    scenario = synthesize_scenario(
        pool, n_snapshots=N_DAYS, batch_pct=0.01, seed=12, name="logistics"
    )
    engine = EvolvingGraphEngine(scenario, "sssp")
    print(
        f"history: {N_SITES} sites, {scenario.unified.n_union_edges} routes "
        f"in the union, {N_DAYS} snapshots"
    )

    # -- 1. ad-hoc window -------------------------------------------------
    lo, hi = 10, 15
    window = engine.evaluate_window(lo, hi, validate=True)
    print(f"\nwindow [{lo}, {hi}] — reachable sites per day:")
    for k in range(lo, hi + 1):
        reach = int(np.isfinite(window.values(k - lo)).sum())
        print(f"  day {k:>2}: {reach} sites reachable from the main depot")

    # -- 2. multi-source query over the full history ----------------------
    degrees = np.diff(scenario.common_graph().indptr)
    depots = [int(i) for i in np.argsort(degrees)[-3:]]
    mq = engine.evaluate_multi_query(depots)
    print(f"\nthree-depot study (depots {depots}), full history:")
    for q, depot in enumerate(depots):
        first = mq.values(q, 0)
        last = mq.values(q, N_DAYS - 1)
        print(
            f"  depot {depot:>4}: mean route cost "
            f"{np.nanmean(np.where(np.isfinite(first), first, np.nan)):6.2f} (day 0) -> "
            f"{np.nanmean(np.where(np.isfinite(last), last, np.nan)):6.2f} (day {N_DAYS - 1})"
        )

    # fetch sharing: the batch seeding cost did not triple (a traced run
    # of the same multi-query plan records each batch execution)
    traced = PlanExecutor(scenario, engine.algorithm, record_traces=True).run(
        multi_query_boe_plan(scenario.unified, depots)
    )
    adds = [e for e in traced.collector.executions if e.phase == "add"]
    total_fetch = sum(e.edges_fetched for e in adds)
    print(
        f"\n{len(adds)} shared batch executions fetched {total_fetch} edges "
        f"for {len(depots)} queries x {N_DAYS} snapshots"
    )


if __name__ == "__main__":
    main()
