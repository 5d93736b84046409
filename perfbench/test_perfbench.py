"""The benchmark's own tests: span arithmetic, estimators, determinism.

Run from the repository root:  python3 -m pytest perfbench -q
(about a minute; the workloads run at reduced size).
"""

from __future__ import annotations

import pytest

import run

run.prepare()

import harness  # noqa: E402
import paper  # noqa: E402
import serving  # noqa: E402


def _stage_sum(spans: dict) -> float:
    return sum(spans[name] for name, __, __ in harness.LEAF_SPANS)


def test_leaf_spans_partition_total_on_synthetic_marks():
    marks = {
        "admit": 10.0, "queue_drain": 10.001, "coalesce": 10.002,
        "plan_submit": 10.004, "worker_start": 10.010,
        "worker_end": 10.030, "resolve": 10.0305,
    }
    spans = harness.leaf_spans(marks)
    assert spans["pool.return"] == pytest.approx(0.5)
    assert _stage_sum(spans) == pytest.approx(spans["total"], abs=1e-9)
    # a cache hit never reaches the pool: no leaf spans at all
    assert harness.leaf_spans({"admit": 1.0, "resolve": 1.00002}) is None


def test_leaf_spans_partition_total_on_served_queries():
    inst = serving.Instance(churn=False, tag="test-spans")
    try:
        out = serving.drive(
            inst.svc, serving.make_waves(3, 4, churn=False), harness.Yardstick()
        )
    finally:
        inst.stop()
    spans = [harness.leaf_spans(q[3]) for q in out["queries"]]
    spans = [s for s in spans if s is not None]
    assert spans, "no query reached the pool"
    for s in spans:
        assert min(s.values()) >= 0.0
        assert _stage_sum(s) == pytest.approx(s["total"], abs=1e-6)


def test_percentile_estimator():
    assert harness.percentile(list(range(1, 301)), 90) == pytest.approx(270.5)
    assert harness.median([2.0] * 50) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        harness.percentile(list(range(99)), 90)  # 9.9 samples beyond p90


def test_normalise_scales_times_and_rates_only():
    # a host running at half the reference speed (factor 2)
    assert run.normalise(10.0, "ms", 2.0) == pytest.approx(5.0)
    assert run.normalise(3.0, "s", 2.0) == pytest.approx(1.5)
    assert run.normalise(100.0, "1/s", 2.0) == pytest.approx(200.0)
    for unit in ("MB", "count", "ratio", "%"):
        assert run.normalise(7.0, unit, 2.0) == 7.0


def test_yardstick_scales_each_time_at_its_own_position():
    ys = harness.Yardstick()
    ref = harness.YARDSTICK_REF_S
    window = ys.WINDOW
    # the host runs at half speed for the first window, then at full speed
    ys.samples = [2 * ref] * window + [ref] * window
    assert ys.factor_at(0) == pytest.approx(2.0)
    assert ys.factor_at(2 * window) == pytest.approx(1.0)
    assert ys.scaled([10.0, 10.0], [0, 2 * window]) == pytest.approx([5.0, 10.0])
    ys.sample(3)
    assert len(ys.samples) == 2 * window + 3 and min(ys.samples[-3:]) > 0.0
    with pytest.raises(ValueError):
        harness.Yardstick().factor_at(0)


def test_waves_have_distinct_keys_in_key_order():
    for churn in (False, True):
        waves = serving.make_waves(5, 50, churn)
        assert waves == serving.make_waves(5, 50, churn)
        for wave in waves:
            keys = wave[:-1] if churn else wave
            assert len(keys) == len(set(keys))
            assert keys == sorted(
                keys, key=lambda k: (k[0], k[1] or (-1, -1), k[2])
            )
            assert (wave[-1][0] == "ingest") == churn


def test_table4_counters_repeat(monkeypatch):
    monkeypatch.setattr(paper, "GRAPHS", ("PK", "LJ"))
    ys = harness.Yardstick()
    first = paper.measure([paper.load(4)], 4, traced=False, ys=ys)
    second = paper.measure([paper.load(4)], 4, traced=True, ys=ys)
    assert first["failed"] == second["failed"] == 0
    assert first["counters"] == second["counters"]


@pytest.mark.parametrize("churn", [False, True])
def test_serve_counters_repeat(churn, monkeypatch):
    monkeypatch.setattr(serving, "READ_INGESTS", 10)
    waves = serving.make_waves(6, 30, churn)
    counters = []
    for attempt in range(2):
        inst = serving.Instance(churn, f"test-repeat-{attempt}")
        try:
            out = serving.run_loop(inst, waves, churn, 6, harness.Yardstick())
        finally:
            inst.stop()
        ok, refused = serving.served(
            [(q[0], q[1]) for q in out["queries"]] + out["probes"]
        )
        assert refused == 0 and not out["ingest_errors"]
        assert serving.check(serving.sample(ok, 6), out["deltas"]) == 0
        counters.append(out["counters"])
    assert counters[0] == counters[1]
    if churn:
        assert counters[0]["core.slides"] == 30 // serving.SLIDE_EVERY
        assert counters[0]["wal.records"] == 30 + 30 // serving.SLIDE_EVERY
