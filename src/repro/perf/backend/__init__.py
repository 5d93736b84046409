"""Kernel backend registry: compiled hot kernels behind the numpy API.

Four kernels run compiled (a tiny C library compiled on first use and
loaded via ctypes): ``daic_round``, the DAIC engine's loop over a step
table (every propagate, apply and deletion repair of a plan segment);
``worklist_eval``, a value-only plan — its from-scratch evaluations,
its batch applies and its per-snapshot summaries — in one call;
``replay``, a simulation's timing replay; and ``window_merge``, every
window slide.  Each keeps a pure Python/numpy reference forever as its
parity baseline, following the ``_presence_of_dense`` precedent: the
engine's own round body for ``daic_round``, the round loop itself
(``PlanExecutor.run``, ``MultiVersionEngine.evaluate_full``) plus
``repro.core.multi_query.summarize`` for ``worklist_eval``,
``WaveScheduler.replay_reference`` for ``replay``, and the numpy bodies
of ``slide_window`` and ``extract_window`` for ``window_merge``.  A
kernel that no workload calls on the compiled tier has no C twin:
``group_argbest``, the numpy round body's parent pick, is the reference
on every tier (the compiled tier picks parents inside ``daic_round``
and calls it only for an algorithm with no ``kernel_op``).

Selection follows ``MEGA_KERNEL_BACKEND`` (resolved once per process):

* ``auto`` (default) — the C tier when it builds, numpy otherwise;
* ``numpy`` — pin the reference implementations (CI keeps one leg here);
* ``compiled`` / ``cext`` — require the C tier; raise if it cannot build.

Callers never import a tier directly: :func:`get_backend` returns a
:class:`KernelBackend` whose compiled members (``daic_round``,
``worklist_eval``, ``replay``, ``window_merge``) are ``None`` on the
numpy tier, which tells the engine,
:class:`~repro.accel.scheduler.WaveScheduler` and
:mod:`repro.evolving.window` to keep their reference paths.

``MEGA_KERNEL_BACKEND`` is the one way to choose the tier: the service's
pool workers inherit it through the environment, resolve it during
warm-up and report the resolved tier back, so a mixed-pool
misconfiguration is visible in ``health`` and in the
``mega_kernel_backend`` metric rather than silent.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from repro.perf.backend import reference

__all__ = [
    "VALID_NAMES",
    "KernelBackend",
    "RepairInputs",
    "available_backends",
    "get_backend",
    "resolve_backend",
    "reset_backend",
]

#: Algorithm.kernel_op name -> opcode of the C tier's candidate function
OPS = {"plus_wt": 0, "plus_one": 1, "min_wt": 2, "max_wt": 3, "div_wt": 4}

#: the loop kernel's step table (STEP_* in _kernels.c): int64 columns per
#: step — kind, start and end of its rows in the row list, start and end
#: of its seed edges in the concatenated seeds — and the step kinds
STEP_COLS = 5
STEP_COPY, STEP_APPLY, STEP_SEED, STEP_PROPAGATE = 0, 1, 2, 3
STEP_TAG, STEP_PULL, STEP_GROUND = 4, 5, 6
#: int64 outputs per repair (REPAIR_STATS in _kernels.c): tagged
#: vertices, tag events, cascade passes
REPAIR_STATS = 3
#: window_merge's refusals (SLIDE_* in _kernels.c): a deletion's vertex
#: out of range, edge not live, or edge added inside the window; an
#: addition's vertex out of range, pair repeated, edge live, or edge
#: deleted inside the window
SLIDE_BAD_VERTEX, SLIDE_NOT_LIVE, SLIDE_ADDED_INSIDE = 1, 2, 3
SLIDE_BAD_ADDITION, SLIDE_DUP_ADDITION = 4, 5
SLIDE_LIVE_DUPLICATE, SLIDE_READDED = 6, 7
#: worklist_eval's returns (WORKLIST_* in _kernels.c): the plan ran to
#: its end, the call's pop cap paused it, a candidate was NaN, or a pass
#: ran past its pop ceiling; and the int64 words of its state
WORKLIST_DONE, WORKLIST_PAUSED, WORKLIST_NAN, WORKLIST_CEILING = 0, 1, 2, 3
WORKLIST_STATE = 8


def worklist_work(n: int, n_steps: int) -> int:
    """int64 words of worklist_eval's ``work`` block: the ring, the
    vertices' row masks, the per-step row masks and the summaries'
    compaction buffer (``_kernels.c``)."""
    return 3 * n + n_steps + 2


class RepairInputs(NamedTuple):
    """What a step table's repair steps read and write (``daic_repair``
    in ``_kernels.c``).  ``tagged`` ``(R, n)`` bool and ``stats`` ``(R,
    REPAIR_STATS)`` int64, zeroed, receive the table's R repairs."""

    #: the union transpose: offsets, each transpose edge's in-neighbour
    #: and its forward edge.  None in a call that records no trace: its
    #: pulls read the forward edges instead
    rev_indptr: np.ndarray | None
    rev_src: np.ndarray | None
    rev_origin: np.ndarray | None
    #: block-id offset of the transpose's own memory region
    rev_block_offset: int
    source: int
    identity: float
    source_value: float
    tagged: np.ndarray
    stats: np.ndarray


@dataclass(frozen=True)
class KernelBackend:
    """One resolved kernel tier.  Compiled members are None on numpy."""

    name: str
    #: the numpy reference on every tier (daic.group_argbest calls it
    #: through here, so a wrapped backend times it)
    group_argbest: Callable
    daic_round: Callable | None = None
    worklist_eval: Callable | None = None
    #: always None: no tier has a presence gather (perfbench reads it)
    presence_gather: None = None
    replay: Callable | None = None
    window_merge: Callable | None = None

    @property
    def compiled(self) -> bool:
        return self.daic_round is not None


def _numpy_backend() -> KernelBackend:
    return KernelBackend(name="numpy",
                         group_argbest=reference.group_argbest)


def _cext_backend() -> KernelBackend | None:
    from repro.perf.backend import cext

    if cext.load_library() is None:
        return None
    return KernelBackend(
        name="cext",
        group_argbest=reference.group_argbest,
        daic_round=cext.daic_round,
        worklist_eval=cext.worklist_eval,
        replay=cext.replay,
        window_merge=cext.window_merge,
    )


#: every name MEGA_KERNEL_BACKEND accepts
VALID_NAMES = ("auto", "numpy", "compiled", "cext")

_active: KernelBackend | None = None


def _resolve(request: str) -> KernelBackend:
    request = (request or "auto").strip().lower()
    if request not in VALID_NAMES:
        raise ValueError(
            f"invalid kernel backend {request!r}: expected one of "
            + "|".join(VALID_NAMES)
        )
    if request == "numpy":
        return _numpy_backend()
    backend = _cext_backend()
    if backend is not None:
        return backend
    if request == "auto":
        return _numpy_backend()
    from repro.perf.backend import cext

    raise RuntimeError(
        f"kernel backend {request!r} requested but the C tier is "
        f"unavailable ({cext.build_error() or 'no compiler'})"
    )


def resolve_backend(request: str | None = None) -> KernelBackend:
    """Resolve and return the active backend.

    An argument-free call resolves ``MEGA_KERNEL_BACKEND`` (default
    ``auto``) once per process and keeps returning that tier; an
    explicit ``request`` always re-resolves (tests switch tiers this
    way).
    """
    global _active
    if request is None:
        if _active is not None:
            return _active
        request = os.environ.get("MEGA_KERNEL_BACKEND", "auto")
    _active = _resolve(request)
    return _active


def get_backend() -> KernelBackend:
    """The process-wide active backend (resolving on first use)."""
    return resolve_backend()


def requested_tier() -> str:
    """The tier ``MEGA_KERNEL_BACKEND`` requests (``auto`` when unset),
    without resolving anything: what health and the bench report name
    as requested next to each worker's resolved tier."""
    return os.environ.get("MEGA_KERNEL_BACKEND", "") or "auto"


def reset_backend() -> None:
    """Forget the resolved tier (tests re-resolving under monkeypatch)."""
    global _active
    _active = None


def available_backends() -> list[str]:
    """Names of every tier that would resolve on this machine."""
    names = ["numpy"]
    if _cext_backend() is not None:
        names.append("cext")
    return names
