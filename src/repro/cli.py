"""Command-line interface: regenerate any table or figure of the paper.

Usage::

    mega-repro list
    mega-repro run table4 --scale small
    mega-repro run all --scale tiny --resume
    mega-repro simulate --graph Wen --algo sssp --workflow boe --pipeline
    mega-repro faults --scale tiny
    mega-repro serve --scale tiny --workers 4
    mega-repro serve --follow /path/to/primary-wal --node-id r2
    mega-repro serve --cluster 3 --node-id node-0 --wal-dir /tmp/wal \
        --ack-mode quorum:1
    mega-repro serve-bench --scale tiny --duration 5 --rate 50
    mega-repro drill failover --kill-at-epoch 3
    mega-repro drill chaos --kill-at-epoch 3

``MEGA_KERNEL_BACKEND`` (auto|numpy|compiled|cext) chooses the kernel
tier of every command, pool workers included.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import time

from repro.accel import JetStreamSimulator, MegaSimulator
from repro.algorithms import get_algorithm
from repro.experiments import ALL_EXPERIMENTS, run_experiment
from repro.workloads import DATASETS, SCALES, load_scenario

__all__ = ["main"]


def _fail_usage(message: str) -> int:
    """One-line operator error (bad input, not a crash): exit code 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _resolve_algorithm(name: str):
    """``get_algorithm`` with CLI error semantics (KeyError -> exit 2)."""
    try:
        return get_algorithm(name)
    except KeyError as exc:
        raise SystemExit(_fail_usage(exc.args[0])) from exc


def _load_scenario_checked(name: str, *args, **kwargs):
    """``load_scenario`` with CLI error semantics (KeyError -> exit 2)."""
    try:
        return load_scenario(name, *args, **kwargs)
    except KeyError as exc:
        raise SystemExit(_fail_usage(exc.args[0])) from exc


def _cmd_list(args: argparse.Namespace) -> int:
    print("experiments:")
    for name in ALL_EXPERIMENTS:
        print(f"  {name}")
    print("datasets:", ", ".join(sorted(DATASETS)))
    print("scales:", ", ".join(SCALES))
    from repro.resilience import FAULT_POINTS

    print("fault points:", ", ".join(sorted(FAULT_POINTS)))
    return 0


def _emit_result(args: argparse.Namespace, name: str, result, note: str) -> None:
    if args.format == "json":
        print(result.to_json())
    elif args.format == "csv":
        print(result.to_csv(), end="")
    else:
        print(result.format_table())
        print(f"[{name} {note}]")
        print()


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.runner import default_scale
    from repro.resilience import RunCheckpoint, retry_with_backoff

    sweep = args.experiment == "all"
    names = list(ALL_EXPERIMENTS) if sweep else [args.experiment]
    keep_going = args.keep_going if args.keep_going is not None else sweep

    checkpoint = None
    if sweep or args.run_dir:
        scale = args.scale or default_scale()
        run_dir = args.run_dir or pathlib.Path(
            ".mega-repro"
        ) / "runs" / f"{args.experiment}-{scale}"
        checkpoint = RunCheckpoint(run_dir)
        checkpoint.write_manifest(
            experiment=args.experiment, scale=scale, format=args.format
        )

    statuses: dict[str, str] = {}
    failures: dict[str, BaseException] = {}
    for name in names:
        if args.resume and checkpoint is not None and checkpoint.has_result(name):
            result = checkpoint.load_result(name)
            statuses[name] = "restored"
            _emit_result(args, name, result, "restored from checkpoint")
            continue
        t0 = time.time()
        try:
            result = retry_with_backoff(
                lambda name=name: run_experiment(name, args.scale),
                retries=1,
                base_delay=0.2,
            )
        except Exception as exc:  # noqa: BLE001 - per-experiment isolation
            elapsed = time.time() - t0
            failures[name] = exc
            statuses[name] = "failed"
            print(
                f"[{name} FAILED after {elapsed:.1f}s: "
                f"{type(exc).__name__}: {exc}]",
                file=sys.stderr,
            )
            if checkpoint is not None:
                checkpoint.record_failure(name, exc, elapsed)
            if not keep_going:
                return 1
            continue
        statuses[name] = "ok"
        if checkpoint is not None:
            checkpoint.save_result(name, result)
        _emit_result(args, name, result, f"completed in {time.time() - t0:.1f}s")
    if checkpoint is not None:
        checkpoint.write_summary(statuses)
    if failures:
        print(
            f"[{len(failures)}/{len(names)} experiments failed: "
            f"{', '.join(sorted(failures))}]",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    import repro.service  # noqa: F401 - registers service + WAL fault points
    from repro.resilience import FAULT_POINTS
    from repro.resilience.campaign import run_campaign

    algo = _resolve_algorithm(args.algo)
    for point in args.points or []:
        if point not in FAULT_POINTS:
            return _fail_usage(
                f"unknown fault point {point!r}; choose from "
                f"{sorted(FAULT_POINTS)}"
            )
    scenario = _load_scenario_checked(
        args.graph, args.scale, n_snapshots=args.snapshots
    )
    campaign = run_campaign(
        scenario, algo, points=args.points or None, seed=args.seed
    )
    print(campaign.format_table())
    if campaign.escaped:
        print(
            f"[{campaign.escaped} fault(s) escaped detection]", file=sys.stderr
        )
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import write_report

    path = write_report(args.out, args.scale)
    print(f"wrote {path}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    import numpy as np

    scenario = _load_scenario_checked(
        args.graph, args.scale, n_snapshots=args.snapshots
    )
    u = scenario.unified
    spec = DATASETS[scenario.metadata["dataset"]]
    print(f"scenario {scenario.name}  (proxy of {spec.name})")
    print(
        f"  vertices {u.n_vertices}  union edges {u.n_union_edges}  "
        f"snapshots {u.n_snapshots}  source {scenario.source}"
    )
    common = int(u.common_mask.sum())
    print(
        f"  common graph: {common} edges "
        f"({common / u.n_union_edges:.1%} of the union)"
    )
    adds = [len(b) for b in u.addition_batches()]
    dels = [len(b) for b in u.deletion_batches()]
    print(
        f"  batches: adds {min(adds)}-{max(adds)} edges, "
        f"dels {min(dels)}-{max(dels)} edges per transition"
    )
    sizes = [u.snapshot_graph(k).n_edges for k in range(u.n_snapshots)]
    print(f"  snapshot sizes: {min(sizes)} .. {max(sizes)} edges")
    degrees = np.diff(u.graph.indptr)
    print(
        f"  degrees: mean {degrees.mean():.1f}, max {int(degrees.max())} "
        f"(vertex {int(np.argmax(degrees))})"
    )
    print(
        f"  accelerator capacity scale: "
        f"{scenario.metadata['capacity_scale']:.2e}"
    )
    return 0


def _cmd_track(args: argparse.Namespace) -> int:
    from repro.analysis import snapshot_churn, track_mean_value, track_reach
    from repro.core import EvolvingGraphEngine

    _resolve_algorithm(args.algo)
    scenario = _load_scenario_checked(
        args.graph, args.scale, n_snapshots=args.snapshots
    )
    engine = EvolvingGraphEngine(scenario, args.algo)
    result = engine.evaluate("boe", validate=True)
    reach = track_reach(result, engine.algorithm)
    mean = track_mean_value(result, engine.algorithm)
    churn = snapshot_churn(result)
    print(
        f"{engine.algorithm.name} on {scenario.name}: "
        f"{scenario.n_snapshots} snapshots"
    )
    print(f"  reach      {reach.sparkline()}  "
          f"({reach.values[0]:.0f} -> {reach.values[-1]:.0f} vertices)")
    print(f"  mean value {mean.sparkline()}  "
          f"({mean.values[0]:.3g} -> {mean.values[-1]:.3g})")
    print(f"  churn      {churn.sparkline()}  "
          f"(max {max(churn.values):.0f} vertices at snapshot "
          f"{churn.argmax()})")
    return 0


def _parse_names(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


def _check_algos(args: argparse.Namespace) -> None:
    """The algorithms serve-bench and drill query; exits 2."""
    for algo in _parse_names(args.algos):
        _resolve_algorithm(algo)


def _check_slide_every(args: argparse.Namespace) -> None:
    if args.slide_every < 0:
        raise SystemExit(_fail_usage("--slide-every must be >= 0"))


def _check_out(args: argparse.Namespace) -> None:
    if not args.out:
        raise SystemExit(_fail_usage(
            "--out needs a path; --no-out skips the report"
        ))


def _write_report(args: argparse.Namespace, report) -> None:
    if not args.no_out:
        path = pathlib.Path(args.out)
        path.write_text(report.to_json() + "\n")
        print(f"[wrote {path}]")


def _service_config(args: argparse.Namespace):
    """Shared serve/serve-bench validation; bad values exit 2."""
    from repro.service import ServiceConfig

    if args.snapshots < 1:
        raise SystemExit(_fail_usage("--snapshots must be >= 1"))
    if args.workers < 1:
        raise SystemExit(_fail_usage("--workers must be >= 1"))
    _check_slide_every(args)
    if args.max_batch < 1:
        raise SystemExit(_fail_usage("--max-batch must be >= 1"))
    inject = tuple(args.inject_fault) if args.inject_fault else ()
    if inject:
        import repro.service  # noqa: F401 - registers service fault points
        from repro.resilience import FAULT_POINTS

        for point in inject:
            if point not in FAULT_POINTS:
                raise SystemExit(_fail_usage(
                    f"unknown fault point {point!r}; choose from "
                    f"{sorted(FAULT_POINTS)}"
                ))
    if args.profile_rounds < 0:
        raise SystemExit(_fail_usage("--profile-rounds must be >= 0"))
    from repro.service import parse_ack_mode

    try:
        mode, _needed = parse_ack_mode(args.ack_mode)
    except ValueError as exc:
        raise SystemExit(_fail_usage(str(exc))) from None
    if mode == "quorum" and not (
        args.wal_dir or getattr(args, "follow", None)
    ):
        raise SystemExit(_fail_usage(
            "--ack-mode quorum:k needs replication: give the primary a "
            "--wal-dir followers can tail"
        ))
    if args.quorum_timeout <= 0:
        raise SystemExit(_fail_usage("--quorum-timeout must be > 0"))
    return ServiceConfig(
        scale=args.scale,
        n_snapshots=args.snapshots,
        workers=args.workers,
        batching=args.batching,
        max_batch=args.max_batch,
        cache_size=max(1, args.cache_size),
        wal_dir=args.wal_dir,
        wal_fsync=args.wal_fsync,
        profile_rounds=args.profile_rounds,
        inject_fault=inject,
        ack_mode=args.ack_mode,
        quorum_timeout_s=args.quorum_timeout,
        window_slide_every=args.slide_every,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import QueryService, serve_stdio

    if args.cluster < 0 or args.cluster == 1:
        return _fail_usage(
            "--cluster takes the group size (>= 2), or 0 to disable"
        )
    if args.heartbeat_interval <= 0:
        return _fail_usage("--heartbeat-interval must be > 0")
    node_id = args.node_id or ("replica-1" if args.follow else "node-0")
    if args.cluster:
        from repro.service import ClusterNode, ReplicaServer

        config = _service_config(args)
        try:
            if args.follow:
                # a follower member: tail the shared directory under a
                # ticking supervisor that can elect itself
                replica = ReplicaServer(
                    args.follow, config, follower_id=node_id
                )
                node = ClusterNode(
                    args.follow, node_id,
                    replica=replica,
                    cluster_size=args.cluster,
                    heartbeat_interval_s=args.heartbeat_interval,
                )
            else:
                if not args.wal_dir:
                    return _fail_usage(
                        "--cluster primaries need --wal-dir: the shared "
                        "WAL directory is the replication medium"
                    )
                node = ClusterNode(
                    args.wal_dir, node_id,
                    service=QueryService(config),
                    cluster_size=args.cluster,
                    heartbeat_interval_s=args.heartbeat_interval,
                )
        except ValueError as exc:  # bad --node-id
            return _fail_usage(str(exc))
        print(
            f"[cluster member {node_id!r} of {args.cluster}: "
            f"role={node.role} ack_mode={args.ack_mode} "
            f"heartbeat={args.heartbeat_interval:g}s]",
            file=sys.stderr,
        )
        # the node is the lifecycle bracket *and* the promote target
        return serve_stdio(node.service, replica=node)
    if args.follow:
        from repro.service import ReplicaServer

        if args.wal_dir:
            return _fail_usage(
                "--follow and --wal-dir are mutually exclusive: a follower "
                "tails the primary's WAL and only owns one after promotion"
            )
        try:
            replica = ReplicaServer(
                args.follow, _service_config(args), follower_id=node_id
            )
        except ValueError as exc:  # a path-traversing --node-id
            return _fail_usage(str(exc))
        print(
            f"[following {args.follow} as {node_id!r}: serving "
            f"reads, redirecting ingest; send {{\"op\": \"promote\"}} to "
            f"fail over]",
            file=sys.stderr,
        )
        return serve_stdio(replica.service, replica=replica)
    service = QueryService(_service_config(args))
    print(
        f"[serving on stdin/stdout: scale={args.scale} "
        f"snapshots={args.snapshots} workers={args.workers} "
        f"batching={'on' if args.batching else 'off'}]",
        file=sys.stderr,
    )
    return serve_stdio(service)


#: ``drill`` names
DRILLS = ("crash", "failover", "chaos")


def _cmd_drill(args: argparse.Namespace) -> int:
    """Run one SIGKILL drill (docs/SERVICE.md, drills)."""
    import tempfile

    from repro.service import (
        run_chaos_kill_drill,
        run_crash_drill,
        run_failover_drill,
    )

    # validated here, not by argparse choices: one error line, exit 2
    if args.name not in DRILLS:
        return _fail_usage(
            f"unknown drill {args.name!r}; expected {'|'.join(DRILLS)}"
        )
    _check_algos(args)
    _check_slide_every(args)
    if args.kill_at_epoch < 1:
        return _fail_usage("--kill-at-epoch must be >= 1")
    _check_out(args)
    run = {
        "crash": run_crash_drill,
        "failover": run_failover_drill,
        "chaos": run_chaos_kill_drill,
    }[args.name]
    report = run(
        args.wal_dir or tempfile.mkdtemp(prefix=f"mega-{args.name}-"),
        args.kill_at_epoch,
        algos=[a.lower() for a in _parse_names(args.algos)],
        slide_every=args.slide_every,
    )
    print(report.format_table())
    _write_report(args, report)
    return 0 if report.ok else 1


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.service import LoadSpec, QueryService, run_load

    for graph in _parse_names(args.graphs):
        if graph not in DATASETS:
            return _fail_usage(
                f"unknown graph {graph!r}; choose from {sorted(DATASETS)}"
            )
    _check_algos(args)
    config = _service_config(args)
    if args.duration <= 0:
        return _fail_usage("--duration must be > 0")
    if args.rate <= 0:
        return _fail_usage("--rate must be > 0")
    _check_out(args)
    spec = LoadSpec(
        duration_s=args.duration,
        rate_qps=args.rate,
        seed=args.seed,
        graphs=tuple(_parse_names(args.graphs)),
        algos=tuple(_parse_names(args.algos)),
        ingest_every_s=args.ingest_every,
        deadline_s=args.deadline_ms / 1e3,
        max_retries=args.retries,
        trace_sample=max(0, args.trace_out),
    )
    with QueryService(config) as service:
        report = run_load(service, spec)
    print(report.format_table())
    _write_report(args, report)
    if report.degraded:
        print(
            "[degraded run: dropped/errored queries or unrecovered fault]",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    algo = _resolve_algorithm(args.algo)
    scenario = _load_scenario_checked(
        args.graph,
        args.scale,
        n_snapshots=args.snapshots,
        batch_pct=args.batch_pct,
    )
    js = JetStreamSimulator().run(scenario, algo, validate=args.validate)
    print(js.summary())
    if args.workflow == "jetstream":
        return 0
    mega = MegaSimulator(args.workflow, pipeline=args.pipeline).run(
        scenario, algo, validate=args.validate
    )
    print(mega.summary())
    print(f"speedup over JetStream (update phase): {mega.speedup_over(js):.2f}x")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mega-repro",
        description="MEGA evolving-graph accelerator reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list experiments, datasets, scales")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="regenerate a table/figure")
    p_run.add_argument(
        "experiment", choices=sorted(ALL_EXPERIMENTS) + ["all"]
    )
    p_run.add_argument("--scale", default=None, choices=sorted(SCALES))
    p_run.add_argument(
        "--format", default="table", choices=["table", "json", "csv"]
    )
    p_run.add_argument(
        "--keep-going",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="continue past failing experiments (default: on for 'all')",
    )
    p_run.add_argument(
        "--resume",
        action="store_true",
        help="skip experiments already completed in the run directory",
    )
    p_run.add_argument(
        "--run-dir",
        type=pathlib.Path,
        default=None,
        help="checkpoint directory (default: .mega-repro/runs/<exp>-<scale>"
        " for 'all')",
    )
    p_run.set_defaults(func=_cmd_run)

    p_faults = sub.add_parser(
        "faults", help="fault-injection campaign: inject, detect, recover"
    )
    p_faults.add_argument("--graph", default="PK")
    p_faults.add_argument("--algo", default="sssp")
    p_faults.add_argument("--scale", default="tiny", choices=sorted(SCALES))
    p_faults.add_argument("--snapshots", type=int, default=6)
    p_faults.add_argument("--seed", type=int, default=0)
    p_faults.add_argument(
        "--points",
        nargs="*",
        default=None,
        metavar="POINT",
        help="fault points to arm (default: all registered points)",
    )
    p_faults.set_defaults(func=_cmd_faults)

    p_report = sub.add_parser(
        "report", help="run every experiment into one markdown report"
    )
    p_report.add_argument("--out", default="reproduction_report.md")
    p_report.add_argument("--scale", default=None, choices=sorted(SCALES))
    p_report.set_defaults(func=_cmd_report)

    p_inspect = sub.add_parser(
        "inspect", help="describe a dataset's evolving-graph scenario"
    )
    p_inspect.add_argument("--graph", default="PK")
    p_inspect.add_argument("--scale", default="tiny", choices=sorted(SCALES))
    p_inspect.add_argument("--snapshots", type=int, default=16)
    p_inspect.set_defaults(func=_cmd_inspect)

    p_track = sub.add_parser(
        "track", help="track a query property across the window"
    )
    p_track.add_argument("--graph", default="PK")
    p_track.add_argument("--algo", default="sssp")
    p_track.add_argument("--scale", default="tiny", choices=sorted(SCALES))
    p_track.add_argument("--snapshots", type=int, default=16)
    p_track.set_defaults(func=_cmd_track)

    def add_log_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--wal-dir", default=None,
                       help="write-ahead log directory: ingest becomes "
                       "durable and the service recovers from it on start")
        p.add_argument("--slide-every", type=int, default=0, metavar="N",
                       help="checkpoint every N ingests: compact the "
                       "WAL into a snapshot and republish the shm "
                       "scenario (0 = never; every ingest slides the "
                       "window either way)")

    def add_run_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--algos", default="sssp",
                       help="comma-separated algorithm names to query")
        p.add_argument("--out", default="BENCH_service.json",
                       help="write the JSON report here")
        p.add_argument("--no-out", action="store_true",
                       help="skip writing the JSON report")

    def add_service_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scale", default="tiny", choices=sorted(SCALES))
        p.add_argument("--snapshots", type=int, default=8)
        p.add_argument("--workers", type=int, default=2)
        add_log_options(p)
        p.add_argument(
            "--batching",
            action=argparse.BooleanOptionalAction,
            default=True,
            help="coalesce compatible queries into shared BOE plans",
        )
        p.add_argument("--max-batch", type=int, default=8,
                       help="max distinct sources per coalesced plan")
        p.add_argument("--cache-size", type=int, default=512,
                       help="result-cache entries (1 ~= disabled)")
        p.add_argument("--wal-fsync", default="always",
                       choices=["always", "batch", "never"],
                       help="fsync policy for WAL appends")
        p.add_argument(
            "--inject-fault",
            nargs="*",
            default=None,
            metavar="POINT",
            help="arm these fault points on the first executed plan "
            "(resilience drill)",
        )
        p.add_argument(
            "--profile-rounds", type=int, default=0, metavar="N",
            help="sample engine kernel timings every N rounds inside "
            "workers (0 = off); aggregates land in the bench report",
        )
        p.add_argument("--ack-mode", default="local",
                       help="ingest ack durability: 'local' (fsync here) "
                       "or 'quorum:k' (hold the ack until k followers "
                       "report the epoch durable; times out into a "
                       "degraded ack, never silent loss)")
        p.add_argument("--quorum-timeout", type=float, default=5.0,
                       metavar="S",
                       help="seconds to hold a quorum ack before "
                       "degrading it to local durability")

    p_serve = sub.add_parser(
        "serve", help="JSON-lines query service on stdin/stdout"
    )
    add_service_options(p_serve)
    p_serve.add_argument("--follow", default=None, metavar="WAL_DIR",
                         help="run as a read replica: tail this primary "
                         "WAL directory, serve reads, refuse ingest with "
                         "a not_primary redirect; the promote op fails "
                         "over")
    p_serve.add_argument("--cluster", type=int, default=0, metavar="N",
                         help="join an N-node self-healing replication "
                         "group on the WAL directory: heartbeats, failure "
                         "detection, automatic leader election (0 = off)")
    p_serve.add_argument("--node-id", default=None,
                         help="this member's name: its replication cursor "
                         "under <wal_dir>/followers/, beacon and fence "
                         "claims (default replica-1 for a follower, "
                         "node-0 for a cluster primary)")
    p_serve.add_argument("--heartbeat-interval", type=float, default=0.5,
                         metavar="S",
                         help="cluster heartbeat beacon cadence in seconds")
    p_serve.set_defaults(func=_cmd_serve)

    p_bench = sub.add_parser(
        "serve-bench", help="open-loop load harness for the query service"
    )
    add_service_options(p_bench)
    add_run_options(p_bench)
    p_bench.add_argument("--graphs", default="PK",
                         help="comma-separated Table 2 short names")
    p_bench.add_argument("--duration", type=float, default=5.0,
                         help="open-loop arrival window in seconds")
    p_bench.add_argument("--rate", type=float, default=50.0,
                         help="offered load in queries/second")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--ingest-every", type=float, default=0.0,
                         help="ingest a synthesized delta every N seconds")
    p_bench.add_argument("--deadline-ms", type=float, default=0.0,
                         help="per-query execution deadline in milliseconds "
                         "(0 = none); expired queries are shed")
    p_bench.add_argument("--retries", type=int, default=0,
                         help="client-side retries of shed/rejected queries "
                         "(backoff + jitter, honours retry_after)")
    p_bench.add_argument("--trace-out", type=int, default=0, metavar="N",
                         help="embed up to N per-query span timelines in "
                         "the JSON report (0 = none)")
    p_bench.set_defaults(func=_cmd_serve_bench)

    p_drill = sub.add_parser(
        "drill", help="SIGKILL drill: crash (restart from the WAL), "
        "failover (promote a follower, fence the zombie) or chaos "
        "(unattended election in a three-node group); each asserts zero "
        "acknowledged-epoch loss plus query parity"
    )
    p_drill.add_argument("name", metavar="NAME", help="|".join(DRILLS))
    add_log_options(p_drill)
    add_run_options(p_drill)
    p_drill.add_argument("--kill-at-epoch", type=int, default=2,
                         metavar="N",
                         help="kill after N acknowledged ingests")
    p_drill.set_defaults(func=_cmd_drill)

    p_sim = sub.add_parser("simulate", help="run one simulation")
    p_sim.add_argument("--graph", default="PK")
    p_sim.add_argument("--algo", default="sssp")
    p_sim.add_argument(
        "--workflow",
        default="boe",
        choices=["jetstream", "direct-hop", "work-sharing", "boe"],
    )
    p_sim.add_argument("--pipeline", action="store_true")
    p_sim.add_argument("--scale", default="tiny", choices=sorted(SCALES))
    p_sim.add_argument("--snapshots", type=int, default=16)
    p_sim.add_argument("--batch-pct", type=float, default=0.01)
    p_sim.add_argument("--validate", action="store_true")
    p_sim.set_defaults(func=_cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        # argparse exits 2 on a malformed command line, after its error line
        args = build_parser().parse_args(argv)
        from repro.perf.backend import VALID_NAMES

        tier = os.environ.get("MEGA_KERNEL_BACKEND", "")
        if tier and tier.strip().lower() not in VALID_NAMES:
            return _fail_usage(
                f"invalid MEGA_KERNEL_BACKEND {tier!r}: expected "
                + "|".join(VALID_NAMES)
            )
        return args.func(args)
    except SystemExit as exc:  # input-validation helpers exit with code 2
        return exc.code if isinstance(exc.code, int) else 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
