"""Experiment harness shared by all table/figure drivers.

Each experiment module exposes ``run(scale=...) -> ExperimentResult``; the
result carries paper-style rows and can render itself as a fixed-width
table.  ``REPRO_SCALE`` (tiny/small/medium) selects the proxy-graph scale
for the whole harness.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.accel import JetStreamSimulator, MegaSimulator
from repro.accel.stats import SimReport
from repro.algorithms import get_algorithm
from repro.evolving.snapshots import EvolvingScenario
from repro.workloads import load_scenario

__all__ = [
    "ExperimentResult",
    "LRUCache",
    "default_scale",
    "GRAPHS",
    "ALGOS",
    "simulate_all_workflows",
    "scenario_cache",
    "clear_caches",
]

#: paper order (Table 4 lists PK, LJ, DL, OR, UK, Wen)
GRAPHS = ("PK", "LJ", "OR", "DL", "UK", "Wen")
ALGOS = ("BFS", "SSSP", "SSWP", "SSNP", "Viterbi")


class LRUCache:
    """A size-bounded mapping with least-recently-used eviction.

    The module-level caches below used to grow without bound, which is
    fine for one ``mega-repro run`` invocation but leaks in a long-lived
    process sweeping many scenarios; the bound plus :meth:`clear` makes
    them safe to keep warm indefinitely.
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self.maxsize = int(maxsize)
        self._data: OrderedDict = OrderedDict()

    def __contains__(self, key) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, key):
        value = self._data[key]
        self._data.move_to_end(key)
        return value

    def __setitem__(self, key, value) -> None:
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def keys(self) -> list:
        """Current keys, least-recently-used first."""
        return list(self._data)

    def pop(self, key, default=None):
        return self._data.pop(key, default)

    def clear(self) -> None:
        self._data.clear()


#: scenario construction is the expensive part of an experiment; a few
#: dozen cover a full sweep at one scale
_scenarios: LRUCache = LRUCache(48)
_reports: LRUCache = LRUCache(96)


def clear_caches() -> None:
    """Drop every cached scenario and simulation report.

    The caches are **process-local** module state; see
    :func:`scenario_cache` for the fork / spawn semantics.
    """
    _scenarios.clear()
    _reports.clear()


def default_scale() -> str:
    """Proxy scale for experiments: ``REPRO_SCALE`` env var or ``small``."""
    return os.environ.get("REPRO_SCALE", "small")


def scenario_cache(name: str, scale: str, **kwargs) -> EvolvingScenario:
    """Scenario construction cached across experiments in one process.

    **Process semantics** (the cache is plain module state, not shared
    memory): a *forked* worker inherits a copy-on-write snapshot of
    whatever the parent had cached at fork time — warm, but updates never
    propagate in either direction; a *spawned* worker starts empty and
    fills its own copy on first use.  Either way each process pays for and
    owns its entries independently, so callers must never mutate a cached
    scenario in place (the service ingest path derives *new* scenarios via
    :func:`repro.evolving.window.slide_window` for exactly this reason).
    Long-lived workers bound their footprint with the LRU limits plus
    :func:`clear_caches`.
    """
    key = (name, scale, tuple(sorted(kwargs.items())))
    if key not in _scenarios:
        _scenarios[key] = load_scenario(name, scale, **kwargs)
    return _scenarios[key]


def simulate_all_workflows(
    scenario: EvolvingScenario, algo_name: str
) -> dict[str, SimReport]:
    """JetStream + the four MEGA variants on one scenario (cached)."""
    key = (
        scenario.name,
        scenario.n_snapshots,
        scenario.metadata.get("seed"),
        scenario.metadata.get("batch_pct"),
        scenario.metadata.get("imbalance"),
        algo_name,
    )
    if key in _reports:
        return _reports[key]
    algo = get_algorithm(algo_name)
    out = {"jetstream": JetStreamSimulator().run(scenario, algo)}
    for wf, bp in [
        ("direct-hop", False),
        ("work-sharing", False),
        ("boe", False),
        ("boe", True),
    ]:
        label = wf + ("+bp" if bp else "")
        out[label] = MegaSimulator(wf, pipeline=bp).run(scenario, algo)
    _reports[key] = out
    return out


@dataclass
class ExperimentResult:
    """One reproduced table/figure: headers + rows + provenance notes."""

    name: str
    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, *row) -> None:
        self.rows.append(list(row))

    def column(self, header: str) -> list:
        i = self.headers.index(header)
        return [r[i] for r in self.rows]

    def format_table(self) -> str:
        def fmt(x) -> str:
            if isinstance(x, float):
                return f"{x:.3f}" if abs(x) < 100 else f"{x:.1f}"
            return str(x)

        table = [self.headers] + [[fmt(x) for x in r] for r in self.rows]
        widths = [max(len(r[i]) for r in table) for i in range(len(self.headers))]
        lines = [f"== {self.name}: {self.title} =="]
        lines.append("  ".join(h.ljust(w) for h, w in zip(table[0], widths)))
        lines.append("  ".join("-" * w for w in widths))
        for r in table[1:]:
            lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_records(self) -> list[dict]:
        """Rows as dictionaries keyed by header."""
        return [dict(zip(self.headers, row)) for row in self.rows]

    def to_json(self) -> str:
        """Machine-readable form: name, title, rows, notes."""
        import json

        return json.dumps(
            {
                "name": self.name,
                "title": self.title,
                "headers": self.headers,
                "rows": self.rows,
                "notes": self.notes,
            },
            indent=2,
            default=lambda x: x.item() if hasattr(x, "item") else str(x),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        """Inverse of :meth:`to_json` (checkpoint/resume round-trip)."""
        import json

        payload = json.loads(text)
        return cls(
            name=payload["name"],
            title=payload["title"],
            headers=list(payload["headers"]),
            rows=[list(r) for r in payload["rows"]],
            notes=list(payload.get("notes", [])),
        )

    def to_csv(self) -> str:
        """The rows as CSV (header line first)."""
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.headers)
        writer.writerows(self.rows)
        return buf.getvalue()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.format_table()
