#!/usr/bin/env python3
"""The repository benchmark: one command per workload, every metric.

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 16 --trace 0

Workloads: ``paper-table4`` (paper.py), ``serve-read`` and
``serve-churn`` (serving.py).  ``--seconds`` sizes the fixed, seeded op
sequence at a nominal rate of this benchmark's reference host (2 cores),
so one run measures about that long there; the same seed and seconds
always give the same sequence.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half
the sequence untraced, then half traced (layer entry points wrapped,
the engine's round profiler on) and prints the per-layer metrics plus
the tracing overhead.  Times and rates are printed at the reference
host speed: each op's time is scaled by the host speed that the
``harness.Yardstick`` measured around it, between ops.  Either way the
last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``; the line before it carries provenance, the
yardstick summary, the unscaled figures and the seed-deterministic
work counters.
Exit status: 0 when every checked output was correct, 1 when one was
wrong, 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from harness import BUILD_DIR, ROOT, Yardstick, median, percentile, provenance

WORKLOADS = ("paper-table4", "serve-read", "serve-churn")
#: nominal work per second of --seconds on the reference host
TABLE4_PASS_S = 11
#: fewest Table-4 passes a run makes; each draws its own batches, so a
#: run's cost never rests on a single draw
TABLE4_MIN_PASSES = 2
READ_WAVES_PER_S = 20
CHURN_WAVES_PER_S = 10
#: fewest waves a serve run makes, so that serve-churn's ingest p90 has
#: ten samples beyond it however short ``--seconds`` is
MIN_WAVES = 100

#: every per-layer metric, in BENCHMARK.json order; a layer a workload
#: does not cross reads 0
PER_LAYER = (
    "engines.run_ms", "engines.rounds", "engines.edges_relaxed",
    "perf.argbest_ms", "perf.argbest_calls", "perf.gather_ms",
    "perf.gather_calls", "perf.round_ms", "perf.round_calls",
    "accel.replay_ms", "schedule.plan_ms", "accel.cycles",
    "service.submit_us", "cache.hit_rate", "cache.hits",
    "batcher.wait_ms", "batcher.queries_per_plan", "pool.queue_ms",
    "pool.worker_ms", "pool.return_ms", "engines.edge_gather_ms",
    "engines.apply_ms", "wal.append_ms", "wal.append_calls",
    "wal.compact_ms", "wal.compact_calls", "wal.records",
    "shm.publish_ms", "shm.publish_calls", "cache.rebase_ms",
    "cache.rebase_calls", "ingest.other_ms", "core.slides",
    "core.slide_advances", "core.stable_vertices",
    "core.stable_vertex_rate", "trace.overhead_pct",
)
UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s",
    "service.submit_us": "us", "cache.hit_rate": "ratio",
    "core.stable_vertex_rate": "ratio", "batcher.queries_per_plan":
    "queries/plan", "trace.overhead_pct": "%",
}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "ms" if name.endswith("_ms") else "count"


def normalise(value: float, unit_: str, factor: float) -> float:
    """A per-layer ``value`` as on a host at the yardstick's reference speed.

    Times shrink and rates grow by the run's host-speed ``factor``;
    memory, counts and ratios do not depend on host speed.
    """
    if unit_ in ("s", "ms", "us"):
        return value / factor
    if unit_ == "1/s":
        return value * factor
    return value


def prepare() -> str:
    """Point the program at this checkout and build its kernels.

    Returns the kernel tier this process resolved.  The compiled tier is
    built here, before any timing, into the checkout's build directory.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {src}", file=sys.stderr)
        sys.exit(2)
    (BUILD_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    # the kernel build cache and every temporary file stay in the checkout
    os.environ["XDG_CACHE_HOME"] = str(BUILD_DIR / "cache")
    os.environ["TMPDIR"] = str(BUILD_DIR / "tmp")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])
    )
    sys.path.insert(0, str(src))
    from repro.perf.backend import cext, resolve_backend

    cext.load_library()
    return resolve_backend().name


def _end_to_end(
    ys: Yardstick, setup, peak_rss: float, n_ops: int, busy, op_ms, ingest_ms
) -> tuple[dict, dict]:
    """The end-to-end figures at reference speed, and as measured.

    ``setup`` (s), ``busy`` (s), ``op_ms`` and ``ingest_ms`` are
    ``(times, yardstick_positions)`` pairs; ``busy`` holds the spans in
    which the loop was working on its ``n_ops`` ops.
    """

    def figures(setup_s, busy_s, op_ms, ingest_ms) -> dict:
        return {
            "setup_s": median(setup_s),
            "peak_rss_mb": peak_rss,
            "ops_per_s": n_ops / sum(busy_s),
            "op_p50_ms": median(op_ms),
            "op_p90_ms": percentile(op_ms, 90.0),
            "ingest_p50_ms": median(ingest_ms),
            "ingest_p90_ms": percentile(ingest_ms, 90.0),
        }

    pairs = (setup, busy, op_ms, ingest_ms)
    scaled = figures(*(ys.scaled(*pair) for pair in pairs))
    return scaled, figures(*(times for times, __ in pairs))


def run_table4(seed: int, seconds: int, trace: bool, ys: Yardstick) -> dict:
    import paper

    passes = max(TABLE4_MIN_PASSES, round(seconds / TABLE4_PASS_S))
    setup_s, scenarios, first_ok = paper.setup(seed, ys)
    sets = [scenarios] + [paper.load(seed, p) for p in range(1, passes)]
    out = {"attempted": len(paper.ALGOS), "failed": 0 if first_ok else 1}
    if not trace:
        run = paper.measure(sets, seed, traced=False, ys=ys)
        out["metrics"], out["raw"] = _end_to_end(
            ys, setup_s, run["peak_rss_mb"], len(run["op_ms"]),
            ([ms / 1e3 for ms in run["op_ms"]], run["op_pos"]),
            (run["op_ms"], run["op_pos"]), (run["ingest_ms"], run["ingest_pos"]),
        )
    else:
        half = sets[:max(1, passes // 2)]
        plain = paper.measure(half, seed, traced=False, ys=ys, ingests=False)
        run = paper.measure(half, seed, traced=True, ys=ys)
        out["attempted"] += plain["attempted"]
        out["failed"] += plain["failed"]
        out["metrics"] = {
            **run["layers"], **run["counters"],
            "trace.overhead_pct": _overhead(plain, run),
        }
    out["attempted"] += run["attempted"]
    out["failed"] += run["failed"]
    out["counters"] = run["counters"]
    return out


def run_serve(
    seed: int, seconds: int, trace: bool, churn: bool, ys: Yardstick
) -> dict:
    import serving
    from harness import SpanRecorder

    n_waves = max(
        MIN_WAVES, seconds * (CHURN_WAVES_PER_S if churn else READ_WAVES_PER_S)
    )
    setup_s, inst, setup_answers = serving.setup(churn, seed, ys)
    # set-up answers are all at epoch 0: no deltas to replay
    failed = serving.check(setup_answers, ())
    attempted = len(setup_answers)
    try:
        if trace:
            waves = serving.make_waves(seed, max(1, n_waves // 2), churn)
            plain = serving.run_loop(inst, waves, churn, seed, ys)
            inst.stop()
            inst = serving.Instance(churn, f"{seed}-traced", profile=True)
            rec = SpanRecorder()
            serving.trace_layers(rec)
            try:
                run = serving.run_loop(inst, waves, churn, seed, ys)
            finally:
                rec.restore()
            runs = [plain, run]
        else:
            waves = serving.make_waves(seed, n_waves, churn)
            run = serving.run_loop(inst, waves, churn, seed, ys)
            runs = [run]
    finally:
        inst.stop()
    failures = []
    for r in runs:
        pairs = [(q[0], q[1]) for q in r["queries"]] + r["probes"]
        ok, refused = serving.served(pairs)
        attempted += len(pairs) + len(r["ingest_ms"]) + len(r["ingest_errors"])
        failed += refused + len(r["ingest_errors"])
        failed += serving.check(serving.sample(ok, seed) + r["probes"], r["deltas"])
        failures += r["ingest_errors"]
    if trace:
        metrics = {
            **serving.layers(rec, run), **run["counters"],
            "trace.overhead_pct": _overhead(plain, run),
        }
        raw = None
    else:
        metrics, raw = _end_to_end(
            ys, setup_s, run["peak_rss_mb"], run["n_ops"],
            tuple(zip(*run["waves"])),
            ([q[2] for q in run["queries"]], run["query_pos"]),
            (run["ingest_ms"], run["ingest_pos"]),
        )
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "raw": raw,
        "counters": run["counters"],
        "timing_counters": run["timing_counters"],
        "kernel_tiers": run["kernel_tiers"],
    }


def _overhead(plain: dict, traced: dict) -> float:
    """Throughput lost to tracing, as a share of the untraced run (%)."""
    return (plain["ops_per_s"] - traced["ops_per_s"]) / plain["ops_per_s"] * 100


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    load_start = os.getloadavg()
    tier = prepare()
    t0 = time.perf_counter()
    trace = bool(args.trace)
    ys = Yardstick()
    if args.workload == "paper-table4":
        out = run_table4(args.seed, args.seconds, trace, ys)
    else:
        out = run_serve(
            args.seed, args.seconds, trace, ys=ys,
            churn=args.workload == "serve-churn",
        )
    if trace:
        raw = {name: out["metrics"].get(name, 0) for name in PER_LAYER}
        scaled = {
            name: normalise(value, unit(name), ys.factor())
            for name, value in raw.items()
        }
    else:
        scaled, raw = out["metrics"], out["raw"]
    metrics = {
        name: {"value": value, "unit": unit(name)}
        for name, value in scaled.items()
    }
    correct = out["failed"] == 0
    details = {
        "workload": args.workload,
        "wall_s": time.perf_counter() - t0,
        "provenance": provenance(
            args.seed, out.get("kernel_tiers", {"benchmark": tier}), load_start
        ),
        "yardstick": ys.summary(),
        "raw_metrics": raw,
        "counters": out["counters"],
        "timing_counters": out.get("timing_counters", {}),
        "failures": out.get("failures", []),
    }
    print(json.dumps(details))
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
