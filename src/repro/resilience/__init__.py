"""Resilience layer: fault injection, budgets, checkpoint/resume, recovery.

The subsystem has four pieces (docs/RESILIENCE.md):

* :mod:`repro.resilience.faults` — a registry of named fault points in the
  datapath plus the seeded :class:`FaultPlan` that arms them;
* :mod:`repro.resilience.budget` — execution budgets and watchdogs
  (:class:`BudgetExceeded` instead of a hang) and the
  :class:`TransientError`/:class:`FatalError` retry taxonomy;
* :mod:`repro.resilience.checkpoint` — durable per-experiment results for
  ``mega-repro run all --resume``;
* :mod:`repro.resilience.recovery` / :mod:`repro.resilience.campaign` —
  the detect-and-recover path (recompute from ``G_c``) and the fault
  campaign that proves it (``mega-repro faults``).

Only the leaf modules (``budget``, ``faults``, ``checkpoint``) are
imported eagerly — the instrumented sites in ``engines``/``accel`` import
this package, so the heavier modules resolve lazily to keep the import
graph acyclic.
"""

from repro.resilience.budget import (
    Budget,
    BudgetClock,
    BudgetExceeded,
    FatalError,
    TransientError,
    retry_with_backoff,
)
from repro.resilience.checkpoint import RunCheckpoint
from repro.resilience.faults import (
    FAULT_POINTS,
    FaultPlan,
    FaultPoint,
    inject,
    maybe_fire,
    register_fault_point,
)

__all__ = [
    "Budget",
    "BudgetClock",
    "BudgetExceeded",
    "CampaignResult",
    "FAULT_POINTS",
    "FatalError",
    "FaultPlan",
    "FaultPoint",
    "RecoveryReport",
    "RunCheckpoint",
    "TransientError",
    "TrialOutcome",
    "detect_and_recover",
    "eventlevel_recompute_from_common",
    "inject",
    "maybe_fire",
    "rebuild_version_table",
    "recompute_snapshot_from_common",
    "record_version_table",
    "register_fault_point",
    "retry_with_backoff",
    "run_campaign",
    "run_trial",
    "verify_version_table",
]

#: symbols resolved on first access (their modules import the engines and
#: accelerator packages, which themselves import this package)
_LAZY = {
    "CampaignResult": "campaign",
    "TrialOutcome": "campaign",
    "run_campaign": "campaign",
    "run_trial": "campaign",
    "RecoveryReport": "recovery",
    "detect_and_recover": "recovery",
    "eventlevel_recompute_from_common": "recovery",
    "rebuild_version_table": "recovery",
    "recompute_snapshot_from_common": "recovery",
    "record_version_table": "recovery",
    "verify_version_table": "recovery",
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        module = importlib.import_module(f"repro.resilience.{_LAZY[name]}")
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
