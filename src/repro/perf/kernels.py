"""``mega-repro bench-kernels``: microbenchmarks of the hot kernels.

Everything here is seeded and deterministic in *work* (the timings vary
with the machine, the answers never do), and each timed kernel carries a
**parity check** against its reference implementation — the benchmark
doubles as a correctness gate, which is what CI smokes (timings are
reported, parity failures are fatal).

Timed kernels:

* ``multi_version_gather`` — the packed presence-plane gather
  (:meth:`~repro.evolving.unified_csr.UnifiedCSR.presence_multi`)
  against the dense per-snapshot tag-compare path it replaced;
* ``group_argbest`` — the engine's per-group reduction;
* ``plan_execution`` — a coalesced multi-source BOE plan end to end
  (the multi-version engine's round loop, post buffer-reuse);
* ``scenario_attach`` — cold and warm shared-memory attach against the
  from-scratch scenario build a plane-less worker pays.

Results land in ``BENCH_kernels.json`` (schema below) so successive PRs
have a kernel-level trajectory to beat.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = ["KernelBenchReport", "run_kernel_bench"]

KERNELS_SCHEMA_VERSION = 2


def _time(fn, iters: int, warmup: int = 1) -> dict:
    """Run ``fn`` ``iters`` times; report mean/p50/min wall milliseconds.

    ``warmup`` untimed calls run first (JIT compilation, lazy caches,
    branch warm-up) and are reported alongside ``iters`` so a reader of
    the JSON knows exactly how many calls produced the statistics.
    """
    for __ in range(warmup):
        fn()
    samples = []
    for __ in range(iters):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e3)
    return {
        "mean_ms": float(np.mean(samples)),
        "p50_ms": float(np.median(samples)),
        "min_ms": float(np.min(samples)),
        "iters": int(iters),
        "warmup": int(warmup),
    }


@dataclass
class KernelBenchReport:
    """JSON-able result of one bench-kernels run."""

    config: dict
    results: dict
    parity: dict = field(default_factory=dict)
    #: repro.perf.backend.backend_info() provenance (schema v2)
    backend: dict = field(default_factory=dict)
    #: per-kernel numpy-vs-compiled timings (--compare-backends)
    compare: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Every kernel's answer matched its reference implementation."""
        return bool(self.parity) and all(self.parity.values())

    def to_json(self) -> str:
        doc = {
            "bench": "kernels",
            "schema_version": KERNELS_SCHEMA_VERSION,
            "config": self.config,
            "results": self.results,
            "parity": self.parity,
            "backend": self.backend,
        }
        if self.compare:
            doc["compare_backends"] = self.compare
        return json.dumps(doc, indent=2, sort_keys=True)

    def format_table(self) -> str:
        r = self.results
        g = r["multi_version_gather"]
        a = r["scenario_attach"]
        lines = [
            "== bench-kernels: hot-kernel microbenchmarks ==",
            f"scenario {self.config['graph']}/{self.config['scale']}: "
            f"{self.config['n_vertices']} vertices, "
            f"{self.config['n_union_edges']} union edges, "
            f"{self.config['n_snapshots']} snapshots",
            f"multi-version gather  packed {g['packed']['mean_ms']:.3f} ms  "
            f"dense {g['dense']['mean_ms']:.3f} ms  "
            f"speedup {g['speedup']:.2f}x  "
            f"(planes {g['planes_bytes']} B vs dense {g['dense_bytes']} B, "
            f"{g['memory_ratio']:.1f}x smaller)",
            f"group_argbest         {r['group_argbest']['mean_ms']:.3f} ms  "
            f"({r['group_argbest']['n_items']} items)",
            f"plan execution        {r['plan_execution']['mean_ms']:.2f} ms  "
            f"({self.config['n_sources']} sources, "
            f"algo {self.config['algo']})",
            f"scenario attach       cold {a['cold']['mean_ms']:.3f} ms  "
            f"warm {a['warm']['mean_ms']:.4f} ms  "
            f"rebuild {a['rebuild']['mean_ms']:.1f} ms  "
            f"(cold attach {a['rebuild_over_cold']:.0f}x faster "
            f"than rebuild)",
        ]
        if self.backend:
            lines.append(
                f"kernel backend        {self.backend.get('active', '?')}"
            )
        if self.compare:
            compiled = self.compare.get("compiled", "?")
            for name in ("group_argbest", "daic_round", "presence_gather"):
                leg = self.compare.get(name)
                if leg is None:
                    continue
                lines.append(
                    f"  {name:<20} numpy {leg['numpy']['mean_ms']:.3f} ms  "
                    f"{compiled} {leg['compiled']['mean_ms']:.3f} ms  "
                    f"speedup {leg['speedup']:.2f}x"
                )
        for name, okay in sorted(self.parity.items()):
            lines.append(f"  parity {name:<22} {'ok' if okay else 'MISMATCH'}")
        lines.append(f"verdict: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def _gather_edge_idx(scenario, seed: int) -> np.ndarray:
    """A frontier-shaped union-edge gather set (what the engine fetches)."""
    from repro.graph.csr import gather_out_edges

    u = scenario.unified
    rng = np.random.default_rng(seed)
    n_front = max(1, u.n_vertices // 4)
    frontier = np.unique(rng.integers(0, u.n_vertices, size=n_front))
    edge_idx, __ = gather_out_edges(u.graph.indptr, frontier)
    if edge_idx.size == 0:  # pathological tiny graph: fall back to all edges
        edge_idx = np.arange(u.n_union_edges, dtype=np.int64)
    return edge_idx


def _dense_multi(unified, edge_idx: np.ndarray) -> np.ndarray:
    """Reference: per-snapshot tag compares stacked into (K, E)."""
    return np.stack(
        [
            unified._presence_of_dense(k, edge_idx)
            for k in range(unified.n_snapshots)
        ]
    )


def run_kernel_bench(
    graph: str = "Wen",
    scale: str = "small",
    n_snapshots: int = 8,
    algo: str = "sssp",
    n_sources: int = 4,
    iters: int = 20,
    seed: int = 0,
    compare_backends: bool = False,
) -> KernelBenchReport:
    """Run every kernel microbenchmark; see the module docstring.

    With ``compare_backends`` each backend-dispatched kernel
    (``group_argbest``, the fused DAIC round via plan execution, and the
    bit-plane presence gather) is additionally timed under both the
    numpy reference and the best compiled tier, with a bit-identical
    parity gate between the two legs.
    """
    from repro.algorithms import get_algorithm
    from repro.core.multi_query import evaluate_multi_query
    from repro.engines.daic import group_argbest
    from repro.perf.backend import backend_info
    from repro.service.shm import ScenarioPlane, attach_scenario
    from repro.workloads import load_scenario

    scenario = load_scenario(graph, scale, n_snapshots=n_snapshots)
    unified = scenario.unified
    algorithm = get_algorithm(algo)
    rng = np.random.default_rng(seed)
    parity: dict[str, bool] = {}
    results: dict[str, dict] = {}

    # -- multi-version presence gather: packed planes vs dense compares ----
    edge_idx = _gather_edge_idx(scenario, seed)
    unified.presence_planes()  # build outside the timed region
    packed = _time(lambda: unified.presence_multi(edge_idx), iters)
    dense = _time(lambda: _dense_multi(unified, edge_idx), iters)
    parity["multi_version_gather"] = bool(
        np.array_equal(
            unified.presence_multi(edge_idx), _dense_multi(unified, edge_idx)
        )
    )
    planes_bytes = int(unified.presence_planes().nbytes)
    dense_bytes = int(unified.n_snapshots * unified.n_union_edges)
    results["multi_version_gather"] = {
        "packed": packed,
        "dense": dense,
        "speedup": dense["mean_ms"] / max(packed["mean_ms"], 1e-9),
        "gathered_edges": int(edge_idx.size),
        "planes_bytes": planes_bytes,
        "dense_bytes": dense_bytes,
        "memory_ratio": dense_bytes / max(planes_bytes, 1),
    }

    # -- group_argbest ------------------------------------------------------
    n_items = int(edge_idx.size) * max(1, n_snapshots // 2)
    keys = rng.integers(0, unified.n_vertices, size=n_items).astype(np.int64)
    cands = rng.random(n_items)
    timing = _time(lambda: group_argbest(keys, cands, minimize=True), iters)
    timing["n_items"] = n_items
    results["group_argbest"] = timing
    uniq, best = group_argbest(keys, cands, minimize=True)
    order = np.argsort(keys, kind="stable")
    ref_ok = bool(np.array_equal(uniq, np.unique(keys)))
    if ref_ok:
        mins = np.minimum.reduceat(
            cands[order], np.searchsorted(keys[order], uniq)
        )
        ref_ok = bool(np.allclose(cands[best], mins))
    parity["group_argbest"] = ref_ok

    # -- coalesced plan execution ------------------------------------------
    degrees = np.diff(scenario.common_graph().indptr)
    sources = [int(v) for v in np.argsort(-degrees)[:n_sources]]
    plan_iters = max(3, iters // 4)
    results["plan_execution"] = _time(
        lambda: evaluate_multi_query(scenario, algorithm, sources),
        plan_iters,
    )
    mq = evaluate_multi_query(scenario, algorithm, sources)
    single = evaluate_multi_query(scenario, algorithm, [sources[0]])
    parity["plan_execution"] = bool(
        np.allclose(
            mq.values(0, n_snapshots - 1),
            single.values(0, n_snapshots - 1),
            equal_nan=True,
        )
    )

    # -- shared-memory attach: cold / warm / plane-less rebuild ------------
    plane = ScenarioPlane()
    try:
        manifest = plane.publish(scenario, graph, scale, epoch=0)

        def attach_cold() -> None:
            shm, __ = attach_scenario(manifest)
            shm.close()

        warm_shm, warm_scenario = attach_scenario(manifest)
        cache = {manifest.segment: warm_scenario}
        cold = _time(attach_cold, iters)
        warm = _time(lambda: cache[manifest.segment].unified, iters)
        rebuild = _time(
            lambda: load_scenario(graph, scale, n_snapshots=n_snapshots),
            max(2, iters // 10),
        )
        attached = cache[manifest.segment]
        parity["scenario_attach"] = bool(
            np.array_equal(attached.unified.graph.dst, unified.graph.dst)
            and np.array_equal(
                attached.unified.presence_planes(),
                unified.presence_planes(),
            )
            and attached.source == scenario.source
        )
        warm_shm.close()
    finally:
        plane.close_all()
    results["scenario_attach"] = {
        "cold": cold,
        "warm": warm,
        "rebuild": rebuild,
        "rebuild_over_cold": rebuild["mean_ms"] / max(cold["mean_ms"], 1e-9),
        "segment_bytes": manifest.nbytes,
    }

    # -- numpy vs compiled tier, per backend-dispatched kernel -------------
    compare: dict = {}
    if compare_backends:
        compare = _compare_backend_tiers(
            scenario, algorithm, sources, keys, cands, edge_idx,
            iters, plan_iters, parity,
        )

    config = {
        "graph": graph,
        "scale": scale,
        "n_snapshots": int(n_snapshots),
        "algo": algo,
        "n_sources": int(n_sources),
        "iters": int(iters),
        "seed": int(seed),
        "n_vertices": int(unified.n_vertices),
        "n_union_edges": int(unified.n_union_edges),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    return KernelBenchReport(
        config=config, results=results, parity=parity,
        backend=backend_info(), compare=compare,
    )


def _speedup_leg(numpy_timing: dict, compiled_timing: dict) -> dict:
    return {
        "numpy": numpy_timing,
        "compiled": compiled_timing,
        "speedup": numpy_timing["mean_ms"]
        / max(compiled_timing["mean_ms"], 1e-9),
    }


def _compare_backend_tiers(
    scenario, algorithm, sources, keys, cands, edge_idx,
    iters: int, plan_iters: int, parity: dict,
) -> dict:
    """Time each backend-dispatched kernel under numpy and the best
    compiled tier; parity-gate the two legs bit-identically.

    Returns ``{"compiled": "unavailable", ...}`` (and records no parity
    entries) when no compiled tier can load, so the benchmark still runs
    on machines without a C compiler.
    """
    from repro.core.multi_query import evaluate_multi_query
    from repro.perf.backend import backend_info, reference, resolve_backend

    requested = backend_info()["requested"]
    unified = scenario.unified
    try:
        try:
            compiled_be = resolve_backend("compiled")
        except RuntimeError as exc:
            return {"compiled": "unavailable", "error": str(exc)}
        compare: dict = {"compiled": compiled_be.name}

        # group_argbest: the raw reference against the guarded fast path
        leg_np = _time(
            lambda: reference.group_argbest(keys, cands, True), iters
        )
        leg_c = _time(
            lambda: compiled_be.group_argbest(keys, cands, True), iters
        )
        u_np, b_np = reference.group_argbest(keys, cands, True)
        u_c, b_c = compiled_be.group_argbest(keys, cands, True)
        parity["group_argbest_backends"] = bool(
            np.array_equal(u_np, u_c) and np.array_equal(b_np, b_c)
        )
        compare["group_argbest"] = _speedup_leg(leg_np, leg_c)

        # presence_gather: fused unpack-and-test vs unpackbits reference
        planes = unified.presence_planes()
        k = unified.n_snapshots
        idx64 = np.ascontiguousarray(edge_idx, dtype=np.int64)

        def presence_ref() -> np.ndarray:
            return np.unpackbits(
                planes[:, edge_idx], axis=0, count=k, bitorder="little"
            ).view(bool)

        leg_np = _time(presence_ref, iters)
        leg_c = _time(
            lambda: compiled_be.presence_gather(planes, idx64, k), iters
        )
        parity["presence_gather_backends"] = bool(
            np.array_equal(
                presence_ref(), compiled_be.presence_gather(planes, idx64, k)
            )
        )
        compare["presence_gather"] = _speedup_leg(leg_np, leg_c)

        # DAIC loop kernel, measured through the full coalesced plan: a
        # value-only plan makes one daic_round call per propagate on the
        # compiled leg and runs the numpy rounds on the other (the engine
        # resolves the process-wide backend at construction, so each leg
        # pins it explicitly)
        resolve_backend("numpy")
        leg_np = _time(
            lambda: evaluate_multi_query(scenario, algorithm, sources),
            plan_iters,
        )
        res_np = evaluate_multi_query(scenario, algorithm, sources)
        resolve_backend(compiled_be.name)
        leg_c = _time(
            lambda: evaluate_multi_query(scenario, algorithm, sources),
            plan_iters,
        )
        res_c = evaluate_multi_query(scenario, algorithm, sources)
        parity["daic_round_backends"] = all(
            np.array_equal(
                res_np.values(q, s), res_c.values(q, s)
            )
            for q in range(len(sources))
            for s in range(scenario.n_snapshots)
        )
        compare["daic_round"] = _speedup_leg(leg_np, leg_c)
        return compare
    finally:
        resolve_backend(requested)
