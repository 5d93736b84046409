"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "table4" in out
    assert "Wen" in out
    assert "tiny" in out


def test_run_single_experiment(capsys):
    assert main(["run", "table5"]) == 0
    out = capsys.readouterr().out
    assert "Table 5" in out
    assert "Queue" in out


def test_run_fig3_tiny(capsys):
    assert main(["run", "fig3", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 3" in out
    assert "dh/stream" in out


def test_simulate_jetstream_only(capsys):
    rc = main(
        [
            "simulate",
            "--graph",
            "PK",
            "--algo",
            "bfs",
            "--workflow",
            "jetstream",
            "--snapshots",
            "4",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "jetstream/streaming" in out
    assert "speedup" not in out


def test_simulate_boe_with_validation(capsys):
    rc = main(
        [
            "simulate",
            "--graph",
            "PK",
            "--algo",
            "sssp",
            "--workflow",
            "boe",
            "--pipeline",
            "--snapshots",
            "4",
            "--validate",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "boe+bp" in out
    assert "speedup over JetStream" in out


def test_parser_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "fig99"])


def test_parser_rejects_unknown_workflow():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["simulate", "--workflow", "bogus"])


def test_retired_simulate_serving_mode_is_an_unknown_option():
    assert main(["serve", "--mode", "simulate"]) == 2


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_track_command(capsys):
    rc = main(["track", "--graph", "PK", "--algo", "bfs", "--snapshots", "6"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "reach" in out and "churn" in out


def test_run_json_format(capsys):
    assert main(["run", "table5", "--format", "json"]) == 0
    import json

    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "Table 5"
    assert payload["rows"]


def test_run_csv_format(capsys):
    assert main(["run", "fig3", "--scale", "tiny", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("graph,")


def test_inspect_command(capsys):
    rc = main(["inspect", "--graph", "LJ", "--snapshots", "6"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "common graph" in out
    assert "livejournal" in out
    assert "snapshot sizes" in out


def test_report_command(tmp_path, capsys):
    import os

    out = tmp_path / "report.md"
    os.environ["REPRO_SCALE"] = "tiny"
    try:
        rc = main(["report", "--out", str(out), "--scale", "tiny"])
    finally:
        os.environ.pop("REPRO_SCALE", None)
    assert rc == 0
    text = out.read_text()
    assert "# MEGA reproduction report" in text
    assert "## Summary" in text
    assert "## Table 4" in text
    assert "## Ext. energy" in text
