"""The public API surface stays importable and coherent."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.accel",
    "repro.algorithms",
    "repro.analysis",
    "repro.baselines",
    "repro.core",
    "repro.engines",
    "repro.evolving",
    "repro.experiments",
    "repro.graph",
    "repro.metrics",
    "repro.resilience",
    "repro.schedule",
    "repro.workloads",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_all_resolves(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), name
    for symbol in module.__all__:
        assert hasattr(module, symbol), f"{name}.{symbol}"


@pytest.mark.parametrize("name", PACKAGES)
def test_package_has_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__ and module.__doc__.strip(), name


def test_every_module_has_docstring():
    import pathlib

    root = pathlib.Path(__file__).parent.parent / "src" / "repro"
    for path in sorted(root.rglob("*.py")):
        text = path.read_text()
        if not text.strip():
            continue
        assert text.lstrip().startswith('"""'), path


def test_version_exposed():
    import repro

    assert repro.__version__ == "1.0.0"


def test_no_circular_import_surprises():
    # importing the deepest consumers first must work in a fresh process
    import subprocess
    import sys

    code = (
        "import repro.resilience, repro.experiments, repro.core, "
        "repro.accel; print('ok')"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


# -- the serving option surface ---------------------------------------------

#: the options ``serve`` and ``serve-bench`` share: the argv that sets
#: each to a value other than its default, and the ServiceConfig field
#: (``config.``) that value reaches
SERVICE_OPTIONS = {
    "--scale": (["--scale", "small"], "config.scale"),
    "--snapshots": (["--snapshots", "4"], "config.n_snapshots"),
    "--workers": (["--workers", "1"], "config.workers"),
    "--batching": (["--no-batching"], "config.batching"),
    "--max-batch": (["--max-batch", "4"], "config.max_batch"),
    "--cache-size": (["--cache-size", "64"], "config.cache_size"),
    "--wal-dir": (["--wal-dir", "v"], "config.wal_dir"),
    "--wal-fsync": (["--wal-fsync", "batch"], "config.wal_fsync"),
    "--inject-fault": (
        ["--inject-fault", "service.worker-fault"], "config.inject_fault"
    ),
    "--profile-rounds": (["--profile-rounds", "2"], "config.profile_rounds"),
    "--ack-mode": (["--ack-mode", "quorum:1"], "config.ack_mode"),
    "--quorum-timeout": (
        ["--quorum-timeout", "2"], "config.quorum_timeout_s"
    ),
    "--slide-every": (["--slide-every", "2"], "config.window_slide_every"),
}

#: every option of ``serve``, as above; ``replica.`` and ``node.`` name a
#: ReplicaServer or ClusterNode argument
SERVE_OPTIONS = {
    **SERVICE_OPTIONS,
    "--follow": (["--follow", "f"], "replica.primary_wal_dir"),
    "--cluster": (["--cluster", "3"], "node.cluster_size"),
    "--node-id": (["--node-id", "node-7"], "node.node_id"),
    "--heartbeat-interval": (
        ["--heartbeat-interval", "0.1"], "node.heartbeat_interval_s"
    ),
}

#: every option of ``serve-bench``, as above; ``spec.`` names a LoadSpec
#: field and ``report`` the report files written
BENCH_OPTIONS = {
    **SERVICE_OPTIONS,
    "--graphs": (["--graphs", "LJ"], "spec.graphs"),
    "--algos": (["--algos", "bfs"], "spec.algos"),
    "--duration": (["--duration", "2"], "spec.duration_s"),
    "--rate": (["--rate", "20"], "spec.rate_qps"),
    "--seed": (["--seed", "3"], "spec.seed"),
    "--ingest-every": (["--ingest-every", "0.5"], "spec.ingest_every_s"),
    "--deadline-ms": (["--deadline-ms", "50"], "spec.deadline_s"),
    "--retries": (["--retries", "2"], "spec.max_retries"),
    "--trace-out": (["--trace-out", "3"], "spec.trace_sample"),
    "--out": (["--out", "other.json"], "report"),
    "--no-out": (["--no-out"], "report"),
}

#: every option of ``drill``, as above; ``drill.`` names a
#: ``run_*_drill`` argument
DRILL_OPTIONS = {
    "--algos": (["--algos", "bfs,sssp"], "drill.algos"),
    "--wal-dir": (["--wal-dir", "w"], "drill.wal_dir"),
    "--slide-every": (["--slide-every", "2"], "drill.slide_every"),
    "--kill-at-epoch": (["--kill-at-epoch", "5"], "drill.kill_at_epoch"),
    "--out": (["--out", "other.json"], "report"),
    "--no-out": (["--no-out"], "report"),
}

#: each command with the argv every table row extends: ``serve`` as a
#: cluster primary so that the cluster options are read, ``serve-bench``
#: with a WAL directory so that ``--ack-mode quorum:1`` is accepted
COMMANDS = {
    "serve": (["serve", "--cluster", "2", "--wal-dir", "w"], SERVE_OPTIONS),
    "serve-bench": (["serve-bench", "--wal-dir", "w"], BENCH_OPTIONS),
    "drill": (["drill", "chaos"], DRILL_OPTIONS),
}


def _options(command: str) -> set[str]:
    """The long name of every option ``command``'s parser accepts."""
    import argparse

    from repro.cli import build_parser

    sub = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return {
        a.option_strings[0] for a in sub.choices[command]._actions
        if a.option_strings and a.dest != "help"
    }


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_serving_option_has_a_reader(command):
    assert _options(command) == set(COMMANDS[command][1])


class _Report:
    ok = True
    degraded = False

    def format_table(self) -> str:
        return "report"

    def to_json(self) -> str:
        return "{}"


def _built(argv: list[str], monkeypatch, run_dir) -> dict:
    """What ``main(argv)`` builds for the service, its replica and
    cluster node, the load and the drills, with each stubbed out so
    nothing runs, plus the report files it writes in ``run_dir``."""
    import dataclasses
    import tempfile

    import repro.service
    from repro.cli import main

    seen: dict = {}

    def note_config(config):
        seen.update(
            (f"config.{k}", v) for k, v in dataclasses.asdict(config).items()
        )

    class Service:
        def __init__(self, config):
            note_config(config)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

    class Replica:
        service = None

        def __init__(self, primary_wal_dir, config, follower_id):
            note_config(config)
            seen["replica.primary_wal_dir"] = primary_wal_dir
            seen["replica.follower_id"] = follower_id

    class Node:
        role = "primary"
        service = None

        def __init__(self, wal_dir, node_id, *, service=None, replica=None,
                     cluster_size, heartbeat_interval_s):
            seen.update({
                "node.wal_dir": wal_dir,
                "node.node_id": node_id,
                "node.cluster_size": cluster_size,
                "node.heartbeat_interval_s": heartbeat_interval_s,
            })

    def run_load(service, spec):
        seen.update(
            (f"spec.{k}", v) for k, v in dataclasses.asdict(spec).items()
        )
        return _Report()

    def drill(name):
        def run(wal_dir, kill_at_epoch, **kwargs):
            seen["drill"] = name
            seen["drill.wal_dir"] = wal_dir
            seen["drill.kill_at_epoch"] = kill_at_epoch
            seen.update((f"drill.{k}", v) for k, v in kwargs.items())
            return _Report()
        return run

    monkeypatch.setattr(repro.service, "QueryService", Service)
    monkeypatch.setattr(repro.service, "ReplicaServer", Replica)
    monkeypatch.setattr(repro.service, "ClusterNode", Node)
    monkeypatch.setattr(repro.service, "serve_stdio", lambda *a, **k: 0)
    monkeypatch.setattr(repro.service, "run_load", run_load)
    for name in ("crash", "failover", "chaos_kill"):
        monkeypatch.setattr(
            repro.service, f"run_{name}_drill", drill(name)
        )
    monkeypatch.setattr(tempfile, "mkdtemp", lambda prefix: prefix)
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    assert main(argv) == 0
    seen["report"] = sorted(p.name for p in run_dir.iterdir())
    return seen


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_serving_option_changes_what_is_built(
    command, monkeypatch, tmp_path
):
    """Each option, set to a value other than its default, reaches the
    field its table names."""
    base, table = COMMANDS[command]
    default = _built(base, monkeypatch, tmp_path / "default")
    for i, (option, (argv, field)) in enumerate(sorted(table.items())):
        built = _built(base + argv, monkeypatch, tmp_path / str(i))
        assert built[field] != default.get(field), option
