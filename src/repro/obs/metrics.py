"""Thread-safe metrics registry with a Prometheus-text renderer.

Three instrument kinds, matching the Prometheus data model:

* :class:`Counter` — monotonically increasing (``submitted``, ``plans``);
* :class:`Gauge` — settable value, plus a *locked* EWMA update for
  smoothed load signals (the plan-latency EWMA feeding ``retry_after``
  was previously an unlocked read-modify-write on the service object —
  folding it into the gauge is the fix);
* :class:`Histogram` — cumulative buckets + sum + count (latencies).

Gauges can also be *callbacks*: ``registry.gauge_fn("queue_depth", fn)``
samples ``fn()`` at render time, so wiring live state (queue depth, WAL
lag, shm segment count) costs nothing between scrapes.

Every instrument owns one lock; reads and writes are serialized per
instrument, never globally, so hot counters on different paths do not
contend.  ``render()`` emits the Prometheus text exposition format
(`# HELP` / `# TYPE` / samples) and ``snapshot()`` a plain dict for JSON
surfaces and tests.
"""

from __future__ import annotations

import math
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LabeledGauge",
    "MetricsRegistry",
]

#: default latency buckets (seconds): 1 ms .. ~16 s, powers of two
DEFAULT_BUCKETS = tuple(0.001 * 2**i for i in range(15))


def _fmt(value: float) -> str:
    """Prometheus sample formatting: integers render bare, floats as-is."""
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class Counter:
    """Monotonic counter."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease (n={n})")
        with self._lock:
            self._value += n

    def get(self) -> float:
        with self._lock:
            return self._value

    def samples(self) -> list[tuple[str, float]]:
        return [(self.name, self.get())]


class Gauge:
    """Settable value with an atomic EWMA update.

    ``ewma()`` performs the read-modify-write under the instrument lock,
    so concurrent completion callbacks fold their samples in serialized
    order — no update is lost and the value always equals *some*
    interleaving of the samples.
    """

    kind = "gauge"

    def __init__(self, name: str, help: str = "", initial: float = 0.0) -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = float(initial)

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, n: float) -> None:
        with self._lock:
            self._value += n

    def ewma(self, sample: float, alpha: float = 0.2) -> float:
        """Locked exponentially-weighted update; returns the new value."""
        with self._lock:
            self._value = (1.0 - alpha) * self._value + alpha * float(sample)
            return self._value

    def get(self) -> float:
        with self._lock:
            return self._value

    def samples(self) -> list[tuple[str, float]]:
        return [(self.name, self.get())]


class _CallbackGauge:
    """Gauge whose value is sampled from a callable at read time."""

    kind = "gauge"

    def __init__(self, name: str, fn, help: str = "") -> None:
        self.name = name
        self.help = help
        self._fn = fn

    def get(self) -> float:
        try:
            return float(self._fn())
        except Exception:  # noqa: BLE001 - a scrape must never raise
            return float("nan")

    def samples(self) -> list[tuple[str, float]]:
        return [(self.name, self.get())]


class _LabeledFamily:
    """One metric name fanned out over the values of its label(s).

    Labeled series such as
    ``mega_replication_follower_lag_epochs{follower="r1"}`` share the one
    registry: a family registers
    under its bare name exactly like any other instrument, and
    ``labels(value)`` lazily materializes one child per label value.
    ``label`` may also be a tuple of names (e.g. ``("worker", "backend")``
    for ``mega_kernel_backend``); then ``labels()`` takes one value per
    name, and ``get()`` keys children by the comma-joined values.
    ``samples()`` flattens every child under the family's single
    ``# HELP`` / ``# TYPE`` header, which is precisely the Prometheus
    exposition shape for labeled series.
    """

    _child_cls: type

    def __init__(self, name: str, help: str, label) -> None:
        self.name = name
        self.help = help
        self.label = label
        self._label_names = (
            (label,) if isinstance(label, str) else tuple(label)
        )
        self._lock = threading.Lock()
        self._children: dict[tuple, object] = {}

    def _key(self, values: tuple) -> tuple:
        if len(values) != len(self._label_names):
            raise ValueError(
                f"{self.name} expects {len(self._label_names)} label "
                f"value(s) {self._label_names}, got {len(values)}"
            )
        return tuple(str(v) for v in values)

    def labels(self, *values) -> object:
        key = self._key(values)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                rendered = ",".join(
                    f'{name}="{value}"'
                    for name, value in zip(self._label_names, key)
                )
                child = self._child_cls(f"{self.name}{{{rendered}}}")
                self._children[key] = child
            return child

    def get(self) -> dict:
        """``{label value(s): child value}`` for JSON surfaces and tests."""
        with self._lock:
            children = dict(self._children)
        return {",".join(key): child.get() for key, child in children.items()}

    def discard(self, *values) -> None:
        """Drop one child series (a departed follower must stop
        exporting, not freeze at its last value forever)."""
        with self._lock:
            self._children.pop(self._key(values), None)

    def samples(self) -> list[tuple[str, float]]:
        with self._lock:
            children = sorted(self._children.items())
        return [(child.name, child.get()) for __, child in children]


class LabeledGauge(_LabeledFamily):
    """Gauge family over one or more label dimensions."""

    kind = "gauge"
    _child_cls = Gauge


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.help = help
        self.bounds = tuple(sorted(float(b) for b in buckets))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self._lock = threading.Lock()
        self._counts = [0] * len(self.bounds)
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        with self._lock:
            self._count += 1
            self._sum += value
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    self._counts[i] += 1

    def get(self) -> dict:
        with self._lock:
            return {
                "count": self._count,
                "sum": self._sum,
                "buckets": dict(zip(self.bounds, self._counts)),
            }

    def approx_quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (Prometheus semantics).

        Returns the upper bound of the first cumulative bucket covering
        the ``q``-th observation (0.0 with no observations) — the same
        answer ``histogram_quantile`` gives a scraper, usable locally by
        health snapshots without a second latency store.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self._count == 0:
                return 0.0
            rank = q * self._count
            for bound, count in zip(self.bounds, self._counts):
                if count >= rank:
                    return bound
            return self.bounds[-1]

    def samples(self) -> list[tuple[str, float]]:
        snap = self.get()
        out = [
            (f'{self.name}_bucket{{le="{_fmt(bound)}"}}', count)
            for bound, count in snap["buckets"].items()
        ]
        out.append((f'{self.name}_bucket{{le="+Inf"}}', snap["count"]))
        out.append((f"{self.name}_sum", snap["sum"]))
        out.append((f"{self.name}_count", snap["count"]))
        return out


class MetricsRegistry:
    """Named instruments, one namespace, one render call.

    Instrument creation is idempotent: asking for an existing name
    returns the existing instrument (and raises if the kind differs), so
    subsystems can register "their" metrics without coordinating.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, object] = {}

    def _register(self, name: str, factory, kind: str):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if existing.kind != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {kind}"
                    )
                return existing
            instrument = factory()
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(name, lambda: Counter(name, help), "counter")

    def gauge(self, name: str, help: str = "", initial: float = 0.0) -> Gauge:
        return self._register(
            name, lambda: Gauge(name, help, initial), "gauge"
        )

    def labeled_gauge(self, name: str, help: str, label) -> LabeledGauge:
        return self._register(
            name, lambda: LabeledGauge(name, help, label), "gauge"
        )

    def gauge_fn(self, name: str, fn, help: str = "") -> None:
        """Register (or replace) a callback gauge sampled at render time."""
        with self._lock:
            self._instruments[name] = _CallbackGauge(name, fn, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(
            name, lambda: Histogram(name, help, buckets), "histogram"
        )

    def get(self, name: str):
        with self._lock:
            return self._instruments.get(name)

    def snapshot(self) -> dict:
        """Plain ``{name: value}`` dict (histograms nest their buckets)."""
        with self._lock:
            instruments = list(self._instruments.values())
        return {inst.name: inst.get() for inst in instruments}

    def render(self) -> str:
        """Prometheus text exposition format, instruments sorted by name."""
        with self._lock:
            instruments = sorted(
                self._instruments.values(), key=lambda i: i.name
            )
        lines: list[str] = []
        for inst in instruments:
            if inst.help:
                lines.append(f"# HELP {inst.name} {inst.help}")
            lines.append(f"# TYPE {inst.name} {inst.kind}")
            for sample_name, value in inst.samples():
                lines.append(f"{sample_name} {_fmt(value)}")
        return "\n".join(lines) + "\n"
