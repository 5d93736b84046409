"""Kernel backend registry: compiled hot kernels behind the numpy API.

The engine's cycles go to three kernels — ``group_argbest``, the DAIC
propagation loop, and the bit-plane presence gather — a simulation's
timing replay to a fourth, ``replay``, and every window slide (each
epoch of the service) to a fifth, ``window_merge``.  Each has a compiled
single-pass implementation (a tiny C library compiled on first use and
loaded via ctypes) and a pure Python/numpy reference that is kept
forever as the parity baseline, following the ``_presence_of_dense``
precedent (the replay's is ``WaveScheduler.replay_reference``, the
merge's the numpy bodies of ``slide_window`` and ``extract_window``).
A sixth, ``worklist_eval``, is a compiled shortcut with no numpy twin:
a value-only from-scratch evaluation whose reference is the round loop
itself (``MultiVersionEngine.evaluate_values``).

Selection follows ``MEGA_KERNEL_BACKEND`` (resolved once per process):

* ``auto`` (default) — the C tier when it builds, numpy otherwise;
* ``numpy`` — pin the reference implementations (CI keeps one leg here);
* ``compiled`` / ``cext`` — require the C tier; raise if it cannot build.

Callers never import a tier directly: :func:`get_backend` returns a
:class:`KernelBackend` whose optional members (``daic_round``,
``worklist_eval``, ``presence_gather``, ``replay``, ``window_merge``)
are ``None`` on the numpy tier, which tells the engine,
:class:`~repro.evolving.unified_csr.UnifiedCSR`,
:class:`~repro.accel.scheduler.WaveScheduler` and
:mod:`repro.evolving.window` to keep their reference paths.
``group_argbest`` is always present.

The service's pool workers resolve the backend during warm-up (the ping
control op carries the configured name) and report the resolved tier
back, so a mixed-pool misconfiguration is visible in ``health`` and in
the ``mega_kernel_backend`` metric rather than silent.
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
    "backend_info",
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
#: worklist_eval's returns (WORKLIST_* in _kernels.c): the worklist
#: emptied, the call's pop cap paused it, or a candidate was NaN
WORKLIST_DONE, WORKLIST_PAUSED, WORKLIST_NAN = 0, 1, 2


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


#: group_argbest falls back to the reference lexsort when the dense
#: per-key scratch would dwarf the item count (keys are flat (version,
#: vertex) cells in practice, so this is a safety valve, not a hot path)
_DENSE_DOMAIN_SLACK = 8


@dataclass(frozen=True)
class KernelBackend:
    """One resolved kernel tier.  Optional members are None on numpy."""

    name: str
    group_argbest: Callable
    daic_round: Callable | None = None
    worklist_eval: Callable | None = None
    presence_gather: Callable | None = None
    replay: Callable | None = None
    window_merge: Callable | None = None

    @property
    def compiled(self) -> bool:
        return self.daic_round is not None


def _dense_ok(keys: np.ndarray) -> bool:
    """Is the single-pass dense-domain strategy applicable/profitable?"""
    if keys.shape[0] == 0:
        return False
    lo = int(keys.min())
    if lo < 0:
        return False
    hi = int(keys.max())
    return hi < _DENSE_DOMAIN_SLACK * max(keys.shape[0], 1 << 14)

def _guarded_argbest(fast: Callable) -> Callable:
    def group_argbest(keys, candidates, minimize):
        if not _dense_ok(keys):
            return reference.group_argbest(keys, candidates, minimize)
        return fast(keys, candidates, minimize)

    return group_argbest


def _numpy_backend() -> KernelBackend:
    return KernelBackend(name="numpy",
                         group_argbest=reference.group_argbest)


def _cext_backend() -> KernelBackend | None:
    from repro.perf.backend import cext

    if cext.load_library() is None:
        return None
    return KernelBackend(
        name="cext",
        group_argbest=_guarded_argbest(cext.group_argbest),
        daic_round=cext.daic_round,
        worklist_eval=cext.worklist_eval,
        presence_gather=cext.presence_gather,
        replay=cext.replay,
        window_merge=cext.window_merge,
    )


_TIERS = {
    "numpy": _numpy_backend,
    "cext": _cext_backend,
}

#: every name MEGA_KERNEL_BACKEND / --kernel-backend accepts
VALID_NAMES = ("auto", "numpy", "compiled", "cext")

_active: KernelBackend | None = None
_requested: str | None = None


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
    """Resolve (once per process) and return the active backend.

    ``request`` overrides the environment; precedence is explicit
    argument > ``MEGA_KERNEL_BACKEND`` > ``auto``.  A second call with a
    *different* explicit request re-resolves (the service passes its
    configured backend through the worker ping), while argument-free
    calls keep returning the cached tier.
    """
    global _active, _requested
    if request is None:
        if _active is not None:
            return _active
        request = os.environ.get("MEGA_KERNEL_BACKEND", "auto")
    elif _active is not None and request == _requested:
        return _active
    _active = _resolve(request)
    _requested = request
    return _active


def get_backend() -> KernelBackend:
    """The process-wide active backend (resolving on first use)."""
    return resolve_backend()


def requested_tier(explicit: str = "") -> str:
    """The tier a surface should *report* as requested.

    Mirrors :func:`resolve_backend` precedence (explicit argument >
    ``MEGA_KERNEL_BACKEND`` > ``auto``) without resolving anything, so
    health/bench provenance blocks stay honest when the choice came
    from the environment rather than a config field.
    """
    return explicit or os.environ.get("MEGA_KERNEL_BACKEND", "") or "auto"


def reset_backend() -> None:
    """Forget the resolved tier (tests re-resolving under monkeypatch)."""
    global _active, _requested
    _active = None
    _requested = None


def available_backends() -> list[str]:
    """Names of every tier that would resolve on this machine."""
    names = ["numpy"]
    if _cext_backend() is not None:
        names.append("cext")
    return names


def backend_info() -> dict:
    """Provenance block for benchmarks and health surfaces."""
    from repro.perf.backend import cext

    active = get_backend()
    return {
        "active": active.name,
        "compiled": active.compiled,
        "requested": _requested or "auto",
        "available": available_backends(),
        "cext_error": cext.build_error(),
    }
