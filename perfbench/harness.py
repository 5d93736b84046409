"""Shared plumbing for the benchmark: paths, spans, percentiles, memory,
host speed.

Everything here is measurement machinery that lives outside the program
under test.  Per-layer attribution wraps the program's public entry
points (:class:`SpanRecorder`) instead of instrumenting ``src/``, and
the stage spans of a served query are derived from the raw
``QueryTrace`` marks (:func:`leaf_spans`).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
import threading
import time
from pathlib import Path

import numpy as np

#: the checkout the benchmark runs in (this file lives in <root>/perfbench)
ROOT = Path(__file__).resolve().parent.parent
#: build outputs and scratch state (compiled kernels, WAL directories)
BUILD_DIR = ROOT / ".bench_build"

#: leaf stages of a served query, in order; consecutive marks, so their
#: durations add up to ``total`` (admit -> resolve) exactly
LEAF_SPANS = (
    ("batcher.wait", "admit", "plan_submit"),
    ("pool.queue", "plan_submit", "worker_start"),
    ("pool.worker", "worker_start", "worker_end"),
    ("pool.return", "worker_end", "resolve"),
)


def leaf_spans(marks: dict[str, float]) -> dict[str, float] | None:
    """Leaf stage durations (ms) plus ``total`` from raw trace marks.

    Returns None for a query that did not cross every mark (cache hits
    resolve inside ``submit`` and never reach the pool).  Spans are not
    clamped: a negative span means the marks are out of order, and the
    caller should see it rather than have it hidden.
    """
    names = ("admit", "plan_submit", "worker_start", "worker_end", "resolve")
    if any(n not in marks for n in names):
        return None
    out = {
        name: (marks[hi] - marks[lo]) * 1e3 for name, lo, hi in LEAF_SPANS
    }
    out["total"] = (marks["resolve"] - marks["admit"]) * 1e3
    return out


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile (0..100).

    The estimate weights every order statistic by a beta density centred
    on rank ``q``, so it does not jump when two neighbouring samples swap
    places -- which the plain order statistic does on a sparse tail such
    as the 150 heterogeneous simulations of a Table-4 pass.

    Refuses a percentile with fewer than ten samples beyond it: such a
    figure is set by one or two outliers and reads differently each run.
    """
    n = len(values)
    p = q / 100.0
    if n == 0 or (p > 0.5 and n * (1.0 - p) < 10.0):
        raise ValueError(
            f"p{q:g} needs at least ten samples beyond it; have {n} samples"
        )
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    steps = 32  # integration points per rank
    grid = np.linspace(0.0, 1.0, n * steps + 1)
    with np.errstate(divide="ignore"):
        log_pdf = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf[np.isfinite(log_pdf)].max())
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0)))
    weights = np.diff(cdf[::steps])
    return float(weights @ ordered / weights.sum())


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


class SpanRecorder:
    """Times calls to wrapped functions, with self time per layer.

    ``wrap(owner, attr, name)`` replaces ``owner.attr`` with a timing
    wrapper; nested wrapped calls on the same thread form a span tree,
    so a layer's *self* time excludes the wrapped layers it calls.
    ``restore()`` puts every original back.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        #: name -> [calls, total_s, self_s]
        self.totals: dict[str, list] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, fn, name: str):
        """``fn`` wrapped so every call is recorded as a span ``name``."""
        recorder = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = recorder._stack()
            frame = [0.0]  # time covered by wrapped children
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                recorder._add(name, elapsed, elapsed - frame[0])

        return timed

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by its timed wrapper until ``restore``."""
        self.patch(owner, attr, self.timed(getattr(owner, attr), name))

    def patch(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until ``restore``."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _add(self, name: str, elapsed: float, self_s: float) -> None:
        with self._lock:
            acc = self.totals.setdefault(name, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += elapsed
            acc[2] += self_s

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def total_ms(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[1] * 1e3

    def self_ms(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2] * 1e3

    def mean_ms(self, name: str) -> float:
        calls = self.calls(name)
        return self.total_ms(name) / calls if calls else 0.0

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


#: the yardstick's mean pass time (s) at reference speed; normalised
#: figures are what a host running at that speed would measure
YARDSTICK_REF_S = 2.0e-3


class Yardstick:
    """Tracks host speed by timing a fixed computation between ops.

    A shared host's speed drifts by tens of percent within seconds and
    between minutes: its cores slow down, and at times the host takes
    them from this VM altogether (steal time), so neither wall time nor
    CPU time is steady.  The yardstick is the benchmark's own code --
    interpreter arithmetic plus numpy sorting on cache-resident arrays,
    a mix like the program's -- so no change to the program can move
    it.  It is timed in wall time, like the ops, so it sees stolen time
    as they do; callers sample it between ops, while the program has no
    work in flight, so the program does not slow it either.

    A timed op notes ``position()`` after the pass that precedes it;
    ``factor_at(position)`` is the mean of the ``WINDOW`` passes around
    it over the reference time.  An op's time divided by that factor, or
    a rate multiplied by it, reads as on a host at reference speed, the
    speed of the moment the op ran.  The mean, not the median: when the
    host steals the VM's cores in bursts, the ops pay for every burst,
    and so does the mean pass time, while the median skips the passes a
    burst hit.
    """

    PASS_INT_OPS = 10_000
    #: passes whose mean gives the host speed around one op
    WINDOW = 61

    def __init__(self) -> None:
        self._array = np.random.default_rng(0).random(1 << 15)
        #: seconds per pass, in the order they were timed
        self.samples: list[float] = []

    def sample(self, passes: int = 1) -> float:
        """Time ``passes`` passes; returns the wall seconds they took."""
        wall0 = time.perf_counter()
        for __ in range(passes):
            t0 = time.perf_counter()
            acc = 0
            for i in range(self.PASS_INT_OPS):
                acc += i * i
            np.cumsum(np.sort(self._array))
            self._array[np.argsort(self._array)]
            self.samples.append(time.perf_counter() - t0)
        return time.perf_counter() - wall0

    def position(self) -> int:
        """Where the next op stands among the passes timed so far."""
        return len(self.samples)

    def factor_at(self, position: int) -> float:
        """Host-speed factor around ``position`` (the WINDOW nearest passes)."""
        if not self.samples:
            raise ValueError("no yardstick passes timed")
        lo = min(max(0, position - self.WINDOW // 2),
                 max(0, len(self.samples) - self.WINDOW))
        window = self.samples[lo:lo + self.WINDOW]
        return float(np.mean(window)) / YARDSTICK_REF_S

    def factor(self) -> float:
        """Host-speed factor over the whole run."""
        return float(np.mean(self.samples)) / YARDSTICK_REF_S

    def scaled(self, values: list[float], positions: list[int]) -> list[float]:
        """Times at reference speed, each scaled at its own position."""
        return [v / self.factor_at(p) for v, p in zip(values, positions)]

    def summary(self) -> dict:
        factors = [self.factor_at(p) for p in range(len(self.samples))]
        return {
            "passes": len(self.samples),
            "factor": self.factor(),
            "factor_min": min(factors),
            "factor_max": max(factors),
        }


def _vm_hwm_kb(pid: int | str) -> int:
    """Peak resident set size of one process (kB), from /proc."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(pids=()) -> float:
    """Sum of the peak resident sizes of this process and ``pids``."""
    total = _vm_hwm_kb("self") + sum(_vm_hwm_kb(p) for p in pids)
    return total / 1024.0


def digest(values) -> str:
    """Short SHA-256 of a JSON-able sequence (cycle and counter digests)."""
    blob = json.dumps(list(values), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def provenance(seed: int, kernel_tiers: dict, load_start: tuple) -> dict:
    """Where and with what a run was measured."""
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_tiers": kernel_tiers,
        "loadavg_start": [round(x, 2) for x in load_start],
        "loadavg_end": [round(x, 2) for x in os.getloadavg()],
    }
