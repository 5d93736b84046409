"""ctypes C tier of the kernel backend: compile once, dlopen forever.

``_kernels.c`` is plain C99 with no Python.h dependency, so the build is
one ``cc -O2 -ffp-contract=off -shared -fPIC`` invocation and the
artifact is cached under ``~/.cache/mega-repro/`` keyed by the SHA-256 of
the source and the compiler flags — concurrent
processes (the service's pool workers all resolve the backend on warm-up)
compile into unique temp names and ``os.replace`` atomically, so the
worst case is a redundant compile, never a torn library.

Everything marshalled across the boundary is a raw pointer into a
C-contiguous numpy array, passed as a plain ``c_void_p`` address (the
loop kernel's record-mode buffers travel together in one ``_Record``
struct, its repair inputs and outputs in one ``_Repair``): the wrappers
check dtype, contiguity and shape explicitly (``ValueError`` on a bad
array) instead of paying ``np.ctypeslib.ndpointer``'s per-array
``from_param``, and the loop kernel's step table is checked in C, so
the callers (engine, wave scheduler, window slides) stay oblivious to
the tier in use and a near-empty call costs the marshalling of its
pointers.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import pathlib
import subprocess
import tempfile
import threading
import weakref
from typing import Callable, NamedTuple

import numpy as np

from repro.perf.backend import (
    REPAIR_STATS,
    STEP_COLS,
    STEP_PROPAGATE,
    STEP_SEED,
    STEP_TAG,
    WORKLIST_STATE,
    RepairInputs,
    worklist_work,
)

__all__ = [
    "LoopCounts", "ReplayOut", "WindowMerge", "load_library", "build_error",
]

_SRC = pathlib.Path(__file__).with_name("_kernels.c")
#: every build's compiler flags.  The replay's double arithmetic must not
#: be contracted into fused multiply-adds (gcc's default on aarch64), or
#: its cycles could differ from the Python reference.
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

_lib: ctypes.CDLL | None = None
_build_error: str | None = None

_P = ctypes.c_void_p
_I64 = ctypes.c_int64
_char_at = ctypes.c_char.from_buffer
_INT = ctypes.c_int
_F64 = ctypes.c_double

_I64_T = np.dtype(np.int64)
_I32_T = np.dtype(np.int32)
_F64_T = np.dtype(np.float64)

#: per-thread preallocated out-parameter block of mega_daic_round
_tls = threading.local()

#: int64 fields per recorded pass (DAIC_ROW in _kernels.c)
_ROW = 8
#: mega_daic_round's counters block (layout in _kernels.c)
_COUNTERS = 11
#: int64 per-step outputs of the loop kernel (STEP_OUT in _kernels.c)
STEP_OUT = 5


class _Record(ctypes.Structure):
    """``daic_record`` in _kernels.c: the record-mode buffers."""

    _fields_ = [
        ("rows", _P),
        ("row_cap", _I64),
        ("blocks", _P),
        ("block_cap", _I64),
        ("edges_per_block", _I64),
        ("dst_stamp", _P),
        ("stamp_base", _I64),
        ("edge_masks", _P),
    ]


class _Repair(ctypes.Structure):
    """``daic_repair`` in _kernels.c: the repair steps' inputs and
    outputs."""

    _fields_ = [
        ("rev_indptr", _P),
        ("rev_src", _P),
        ("rev_origin", _P),
        ("rev_block_offset", _I64),
        ("source", _I64),
        ("identity", ctypes.c_double),
        ("source_value", ctypes.c_double),
        ("tagged", _P),
        ("stats", _P),
    ]

#: initial record capacity of a thread's first call, in pass rows and in
#: edge-block ids; a call that outgrows its capacity doubles the buffers
#: and resumes, and the thread's later calls start from the grown size
_RECORD_ROWS = 256
_RECORD_BLOCKS = 1 << 14

#: id(graph array) -> (weak reference, checked address); see _graph_ptr
_graph_ptrs: dict[int, tuple[weakref.ref, int]] = {}


def _cache_dir() -> pathlib.Path:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return pathlib.Path(root) / "mega-repro"


def _compiler() -> str | None:
    import shutil

    for cc in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cc and shutil.which(cc):
            return cc
    return None


def library_name(source: bytes, flags: tuple[str, ...]) -> str:
    """The cached library's file name: a digest of the source and of the
    compiler flags, so a changed flag never reuses a stale build."""
    digest = hashlib.sha256(source)
    digest.update("\0".join(flags).encode())
    return f"mega_kernels_{digest.hexdigest()[:16]}.so"


def _compile(src: pathlib.Path, out: pathlib.Path) -> None:
    cc = _compiler()
    if cc is None:
        raise RuntimeError("no C compiler on PATH (tried $CC, cc, gcc, clang)")
    out.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(out.parent), prefix=out.stem + ".", suffix=".so.tmp"
    )
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *_CFLAGS, "-o", tmp, str(src)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{cc} failed ({proc.returncode}): {proc.stderr.strip()[:500]}"
            )
        os.replace(tmp, out)  # atomic: racing builders converge on one .so
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    lib.mega_daic_round.restype = None
    lib.mega_daic_round.argtypes = [
        _P, _P, _P, _P,              # indptr, src_of_edge, dst_all, wt_all
        _P, _I64, _P,                # steps, n_steps, step_rows
        _P, _I64, _INT,              # seed_edges (nullable), first, resume
        _P, _P, _P,                  # frontier, presence, values
        _I64, _I64,                  # n, M
        _INT, _INT,                  # op, minimize
        _P, _P,                      # parent_edge, parent_rows (nullable)
        _P,                          # work (scratch block)
        _I64, _I64,                  # max_rounds, max_events
        _P, _P,                      # step_out, counters
        _P,                          # record (nullable daic_record)
        _P,                          # repair (nullable daic_repair)
    ]
    lib.mega_daic_check.restype = _I64
    lib.mega_daic_check.argtypes = [
        _P, _I64, _P, _I64, _I64,    # steps, n_steps, step_rows, len, rows
        _P, _I64, _I64,              # seed_edges, n_seed, n_edges
        _P, _I64, _INT, _P,          # parent_rows, n_parents, repair, out
    ]
    lib.mega_replay.restype = _INT
    lib.mega_replay.argtypes = [
        _I64, _P, _P, _P,            # n_waves, wave_parts, cross, execs
        _I64, _P, _P, _P,            # n_execs, rounds, touched, phase
        _I64, _P, _P,                # n_rounds, rows, round_phase
        _P, _I64,                    # blocks, n_blocks
        _P, _I64,                    # phase_kind, n_phases
        _P, _P,                      # ints, doubles
        _P, _I64, _P, _P,            # stamp, n_stamp, open_rows, state
        _INT, _I64, _P,              # pipeline, threshold, work
        _P, _P, _P, _P, _P,          # counts, sums, phase cycles/seq, marks
    ]
    lib.mega_worklist_eval.restype = _INT
    lib.mega_worklist_eval.argtypes = [
        _P, _P, _P, _P, _P,          # indptr, src_of_edge, dst_all, wt_all,
                                     # edge_tag
        _I64, _I64, _P, _I64,        # n, M, evals, n_evals
        _P, _I64, _P, _I64,          # steps, n_steps, step_rows, its length
        _P, _I64,                    # seed_edges, n_seed
        _P, _I64, _P,                # values, n_rows, applied
        _INT, _INT, _F64, _F64,      # op, minimize, identity, source_value
        _P, _I64, _P, _P,            # marks, n_marks, reached, checksum
        _P, _P, _I64, _INT,          # work, state, max_pops, mode
    ]
    lib.mega_window_merge.restype = _INT
    lib.mega_window_merge.argtypes = [
        _I64, _I64, _P, _P,          # n_vertices, n_edges, indptr, src
        _P, _P, _P, _P, _P, _I64,    # dst, wt, add/del_step, planes, K
        _I64, _I64, _I64,            # lo, count, n_out
        _P, _P, _P, _I64,            # add_src, add_dst, add_wt, n_add
        _P, _I64, _P,                # dels, n_del, work
        _P, _P, _P, _P,              # out indptr, src, dst, wt
        _P, _P, _P,                  # out add/del_step, planes
        _P, _P, _P,                  # del_slots, add_slots, out
    ]
    return lib


def load_library() -> ctypes.CDLL | None:
    """Compile (if needed) and load the kernel library; None on failure.

    The first failure is remembered so a broken toolchain costs one
    attempt per process, not one per call.
    """
    global _lib, _build_error
    if _lib is not None:
        return _lib
    if _build_error is not None:
        return None
    try:
        so = _cache_dir() / library_name(_SRC.read_bytes(), _CFLAGS)
        if not so.exists():
            _compile(_SRC, so)
        _lib = _declare(ctypes.CDLL(str(so)))
        return _lib
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
        _build_error = str(exc)
        return None


def build_error() -> str | None:
    """Why the C tier is unavailable (None while untried or loaded)."""
    return _build_error


def _addr(arr: np.ndarray) -> int:
    """Address of a C-contiguous array's data.  Through the buffer
    protocol for a writable, non-empty array — a fraction of the cost of
    ``arr.ctypes.data``, which the others take."""
    try:
        return ctypes.addressof(_char_at(arr))
    except (TypeError, ValueError):
        return arr.ctypes.data


def _ptr(arr: np.ndarray, dtype: np.dtype | None, name: str) -> int:
    """Address of a C-contiguous array of ``dtype`` (None: any 1-byte
    dtype, i.e. bool or uint8); ValueError otherwise."""
    if dtype is None:
        ok = arr.dtype.itemsize == 1
    else:
        ok = arr.dtype is dtype or arr.dtype == dtype
    if not ok:
        raise ValueError(f"{name}: expected {dtype or 'bool'}, got {arr.dtype}")
    if not arr.flags.c_contiguous:
        raise ValueError(f"{name}: array must be C-contiguous")
    return _addr(arr)


def _shape(arr: np.ndarray, shape: tuple, name: str) -> None:
    if arr.shape != shape:
        raise ValueError(f"{name}: expected shape {shape}, got {arr.shape}")


class LoopCounts(NamedTuple):
    """What one :func:`daic_round` call did (see ``_kernels.c``)."""

    #: propagation rounds run (seed, tag and pull passes are not rounds)
    rounds: int
    #: events popped over those rounds — what the budget is charged
    events: int
    #: events in the live frontier left behind (0 unless ``mid``)
    pending: int
    #: the step the call stopped at (the table's length: every step ran)
    stop: int
    #: it stopped between two rounds of step ``stop``, whose live
    #: frontier the ``frontier`` argument now holds
    mid: bool
    #: seed passes run
    seeds: int
    #: per step of the table, ``STEP_OUT`` int64: rounds, events popped,
    #: trace rows, edge-block ids, vertices first stamped (record mode)
    steps: np.ndarray
    #: record mode: one row per pass run, in the ``DAIC_ROW`` layout
    #: documented in ``_kernels.c`` (None otherwise)
    rows: np.ndarray | None = None
    #: record mode: the passes' edge-block ids, concatenated; row field
    #: 7 holds each pass's count
    blocks: np.ndarray | None = None
    #: a GROUND step (step ``stop``) found values that are not a fixpoint
    unsupported: bool = False


def _work_bytes(k: int, n: int, span: int, track: bool) -> int:
    """Size of mega_daic_round's scratch block (layout in _kernels.c):
    two n-vertex lists and K x max(n, seeds) snapshot doubles, the (K, n)
    round parents when tracking, then the (K, n) next frontier and the
    n-byte vertex marks."""
    words = 2 * n + k * max(n, span) + (k * n if track else 0)
    return 8 * words + k * n + n


def _graph_ptr(arr: np.ndarray, dtype: np.dtype | None, name: str) -> int:
    """:func:`_ptr` memoised per live array object.

    The graph arrays are the same objects on every call of an engine, so
    their checks and address lookup run once; the weak reference drops
    the entry when the array dies, before its id can be reused.
    """
    key = id(arr)
    hit = _graph_ptrs.get(key)
    if hit is not None and hit[0]() is arr:
        return hit[1]
    addr = _ptr(arr, dtype, name)
    _graph_ptrs[key] = (
        weakref.ref(arr, lambda __, key=key: _graph_ptrs.pop(key, None)),
        addr,
    )
    return addr


def _state_ptr(arr: np.ndarray, dtype: np.dtype | None, name: str) -> int:
    """A run's state arrays — value and presence matrices, parent rows,
    stamps, the engine's frontier buffer — are the same objects call
    after call: :func:`_graph_ptr` for an array that owns its data,
    :func:`_ptr` for a view, which is usually made for one call."""
    if arr.base is None:
        return _graph_ptr(arr, dtype, name)
    return _ptr(arr, dtype, name)


#: mega_daic_check's failure codes, other than a malformed step
_CHECK_BAD = {
    -1: "step_rows must index rows of values",
    -2: "seed_edges must index union edges",
    -3: "parent_edge must hold every parent_rows row",
}


def _check_table(*args) -> tuple[int, int]:
    """Refuse a call the kernel would misread: ``mega_daic_check``'s
    arguments but the out block, which holds the rules and range checks.
    Returns the most rows of any non-copy step and the longest seed
    list."""
    bad = load_library().mega_daic_check(*args, _tls.check_ptr)
    if bad > 0:
        raise ValueError(f"steps: malformed step {bad - 1}")
    if bad < 0:
        raise ValueError(_CHECK_BAD[bad])
    max_k, span = _tls.check_out.tolist()
    return max_k, span


def _repair_struct(
    repair: RepairInputs, n: int, m: int, n_tags: int, recording: bool
):
    """The checked ``daic_repair`` of ``repair``: the transpose arrays
    are graph arrays (memoised like the forward CSR's), and only a
    recording call needs them; the outputs hold one row per TAG step."""
    if not 0 <= repair.source < n:
        raise ValueError("repair: source must be a vertex")
    _shape(repair.tagged, (n_tags, n), "tagged")
    _shape(repair.stats, (n_tags, REPAIR_STATS), "repair stats")
    struct = _Repair(
        rev_block_offset=repair.rev_block_offset,
        source=repair.source,
        identity=repair.identity,
        source_value=repair.source_value,
        tagged=_ptr(repair.tagged, None, "tagged"),
        stats=_ptr(repair.stats, _I64_T, "repair stats"),
    )
    if repair.rev_indptr is None:
        if recording:
            raise ValueError("repair: a recorded pull needs the transpose")
        return struct
    _shape(repair.rev_indptr, (n + 1,), "rev_indptr")
    _shape(repair.rev_src, (m,), "rev_src")
    _shape(repair.rev_origin, (m,), "rev_origin")
    struct.rev_indptr = _graph_ptr(repair.rev_indptr, _I64_T, "rev_indptr")
    struct.rev_src = _graph_ptr(repair.rev_src, _I64_T, "rev_src")
    struct.rev_origin = _graph_ptr(repair.rev_origin, _I64_T, "rev_origin")
    return struct


def _thread_blocks() -> None:
    """This thread's preallocated out-parameter blocks."""
    _tls.counters = np.zeros(_COUNTERS, dtype=np.int64)
    _tls.counters_ptr = _tls.counters.ctypes.data
    _tls.check_out = np.zeros(2, dtype=np.int64)
    _tls.check_ptr = _tls.check_out.ctypes.data
    _tls.record_cap = (_RECORD_ROWS, _RECORD_BLOCKS)


def daic_round(
    indptr: np.ndarray,
    src_of_edge: np.ndarray,
    dst_all: np.ndarray,
    wt_all: np.ndarray,
    frontier: np.ndarray,
    presence: np.ndarray,
    values: np.ndarray,
    op: int,
    minimize: bool,
    scratch: Callable[[str, type, tuple], np.ndarray],
    seed_edges: np.ndarray | None = None,
    parent_edge: np.ndarray | None = None,
    parent_rows: np.ndarray | None = None,
    max_rounds: int = -1,
    max_events: int = -1,
    edges_per_block: int | None = None,
    dst_stamp: np.ndarray | None = None,
    stamp_base: int = 0,
    edge_masks: np.ndarray | None = None,
    steps: np.ndarray | None = None,
    step_rows: np.ndarray | None = None,
    first_step: int = 0,
    resume: bool = False,
    repair: RepairInputs | None = None,
) -> LoopCounts:
    """Run DAIC steps in C until the table is done or a cap is hit.

    Without ``steps`` the call is one step over all of ``values``' rows:
    a propagate from ``frontier`` ``(K, n)``, or with ``seed_edges`` the
    batch reader's seed pass first (the frontier's input content is then
    ignored).  With ``steps`` (``(S, STEP_COLS)`` int64, layout in
    ``_kernels.c``) the call runs that table from ``first_step``:
    ``step_rows`` names each step's rows of ``values`` ``(R, n)`` and
    ``presence`` ``(R, M)``, both updated in place, and ``seed_edges``
    holds every step's seeds concatenated; ``frontier`` is the
    ``(max K, n)`` frontier buffer, all-zero between steps.  ``resume``
    continues ``first_step`` from the live frontier a stop left.

    ``parent_edge``/``parent_rows`` (both or neither; ``parent_rows``
    aligned with the step rows) track each changed cell's winning edge.
    A table's repair steps (TAG, PULL, GROUND) need them and ``repair``,
    whose ``tagged`` and ``stats`` receive one row per TAG.
    ``max_rounds``/``max_events`` (negative: unbounded) cap the rounds
    run and the events they pop; ``scratch(name, dtype, shape)`` supplies
    the reusable work and record blocks.  Bit-identical to the engine's
    numpy rounds and to the numpy repair.

    ``edges_per_block`` turns on record mode: every pass's trace row and
    edge-block ids come back in :attr:`LoopCounts.rows`/``blocks``
    (copies, not scratch); ``dst_stamp`` ``(n,)`` int64, when given, is
    set to ``stamp_base + s`` at every destination execution ``s``
    gathers, and row ``s`` of ``edge_masks`` ``(S, M)`` at every gathered
    edge.  A kernel call that runs out of record space stops before a
    pass; this wrapper doubles the buffers and calls again, so one
    ``daic_round`` covers every step a cap lets run.
    """
    lib = load_library()
    n = indptr.shape[0] - 1
    m = dst_all.shape[0]
    if getattr(_tls, "counters", None) is None:
        _thread_blocks()
    n_seed, seed_ptr = 0, None
    if seed_edges is not None:
        n_seed = seed_edges.shape[0]
        seed_ptr = _ptr(seed_edges, _I64_T, "seed_edges")
    if steps is None:
        # one step over every row of values
        steps = np.array(
            [[STEP_PROPAGATE if seed_edges is None else STEP_SEED, 0,
              values.shape[0], 0, n_seed]],
            dtype=np.int64,
        )
        step_rows = np.arange(values.shape[0], dtype=np.int64)
    elif steps.ndim != 2 or steps.shape[1] != STEP_COLS or not len(steps):
        raise ValueError(f"steps: expected a non-empty (S, {STEP_COLS}) table")
    steps_ptr = _ptr(steps, _I64_T, "steps")
    rows_ptr = _ptr(step_rows, _I64_T, "step_rows")
    if step_rows.ndim != 1:
        raise ValueError("step_rows: expected one dimension")
    n_steps = len(steps)
    pe_ptr = prow_ptr = None
    if parent_edge is not None:
        _shape(parent_rows, step_rows.shape, "parent_rows")
        if parent_edge.shape[1:] != (n,):
            raise ValueError("parent_edge must hold every parent_rows row")
        pe_ptr = _state_ptr(parent_edge, _I64_T, "parent_edge")
        prow_ptr = (
            rows_ptr if parent_rows is step_rows
            else _ptr(parent_rows, _I64_T, "parent_rows")
        )
    max_k, span = _check_table(
        steps_ptr, n_steps, rows_ptr, step_rows.shape[0], values.shape[0],
        seed_ptr, n_seed, m, prow_ptr,
        0 if parent_edge is None else parent_edge.shape[0],
        int(repair is not None),
    )
    rep_ptr = None
    if repair is not None:
        n_tags = int(np.count_nonzero(steps[:, 0] == STEP_TAG))
        rep = _repair_struct(
            repair, n, m, n_tags, edges_per_block is not None
        )
        rep_ptr = ctypes.addressof(rep)
    _shape(values, (values.shape[0], n), "values")
    _shape(presence, (values.shape[0], m), "presence")
    if frontier.ndim != 2 or frontier.shape[0] < max_k:
        raise ValueError(f"frontier: expected ({max_k}, {n}) or more rows")
    _shape(frontier, (frontier.shape[0], n), "frontier")
    record = rec_ptr = None
    if edges_per_block is not None:
        if edges_per_block < 1:
            raise ValueError("edges_per_block must be positive")
        record = _Record(edges_per_block=edges_per_block,
                         stamp_base=stamp_base)
        if dst_stamp is not None:
            _shape(dst_stamp, (n,), "dst_stamp")
            record.dst_stamp = _state_ptr(dst_stamp, _I64_T, "dst_stamp")
        if edge_masks is not None:
            _shape(edge_masks, (n_steps, m), "edge_masks")
            record.edge_masks = _ptr(edge_masks, None, "edge_masks")
        rec_ptr = ctypes.addressof(record)
        row_cap, block_cap = _tls.record_cap
        block_cap = max(block_cap, span)
        rows_out: list[np.ndarray] = []
        blocks_out: list[np.ndarray] = []
    work = scratch(
        "daic_work", np.uint8,
        (_work_bytes(max_k, n, span, parent_edge is not None),),
    )
    step_out = np.zeros((n_steps, STEP_OUT), dtype=np.int64)
    counters = _tls.counters
    rounds = events = seeds = 0
    while True:
        if record is not None:
            rec_rows = scratch("daic_rows", np.int64, (row_cap, _ROW))
            rec_blocks = scratch("daic_blocks", np.int64, (block_cap,))
            record.rows, record.row_cap = _addr(rec_rows), row_cap
            record.blocks, record.block_cap = _addr(rec_blocks), block_cap
        lib.mega_daic_round(
            _graph_ptr(indptr, _I64_T, "indptr"),
            _graph_ptr(src_of_edge, _I64_T, "src_of_edge"),
            _graph_ptr(dst_all, _I64_T, "dst_all"),
            _graph_ptr(wt_all, _F64_T, "wt_all"),
            steps_ptr, n_steps, rows_ptr,
            seed_ptr, first_step, int(resume),
            _state_ptr(frontier, None, "frontier"),
            _state_ptr(presence, None, "presence"),
            _state_ptr(values, _F64_T, "values"),
            n, m, op, minimize,
            pe_ptr, prow_ptr,
            _addr(work),
            max_rounds - rounds if max_rounds >= 0 else -1,
            max_events - events if max_events >= 0 else -1,
            _addr(step_out),
            _tls.counters_ptr,
            rec_ptr,
            rep_ptr,
        )
        stop, mid, ran, popped, pending, seeded, n_rows, n_blocks, full, \
            need, unsupported = counters.tolist()
        rounds += ran
        events += popped
        seeds += seeded
        if record is None:
            break
        rows_out.append(rec_rows[:n_rows].copy())
        blocks_out.append(rec_blocks[:n_blocks].copy())
        if not full:
            break
        row_cap, block_cap = 2 * row_cap, max(2 * block_cap, need)
        _tls.record_cap = (row_cap, block_cap)
        first_step, resume = stop, bool(mid)
    if record is None:
        return LoopCounts(rounds, events, pending, stop, bool(mid), seeds,
                          step_out, unsupported=bool(unsupported))
    return LoopCounts(
        rounds, events, pending, stop, bool(mid), seeds, step_out,
        rows_out[0] if len(rows_out) == 1 else np.concatenate(rows_out),
        blocks_out[0] if len(blocks_out) == 1 else np.concatenate(blocks_out),
        bool(unsupported),
    )


#: mega_worklist_eval's modes (WL_START, WL_RESUME)
_WL_START, _WL_RESUME = 0, 1
#: mega_worklist_eval's refusals of a malformed call (WORKLIST_BAD_*)
_WORKLIST_BAD = {
    -1: "evals: rows must index values and sources be vertices",
    -2: "steps: only COPY and APPLY steps over rows of values and "
        "union-edge seeds",
    -3: "edge_tag: tags must lie in [-2, n_steps)",
    -4: "marks must index rows of values",
}


def worklist_eval(
    indptr: np.ndarray,
    src_of_edge: np.ndarray,
    dst_all: np.ndarray,
    wt_all: np.ndarray,
    edge_tag: np.ndarray,
    evals: np.ndarray,
    steps: np.ndarray,
    step_rows: np.ndarray,
    seed_edges: np.ndarray,
    values: np.ndarray,
    applied: np.ndarray,
    op: int,
    minimize: bool,
    identity: float,
    source_value: float,
    work: np.ndarray,
    state: np.ndarray,
    marks: np.ndarray | None = None,
    reached: np.ndarray | None = None,
    checksum: np.ndarray | None = None,
    max_pops: int = -1,
    resume: bool = False,
) -> int:
    """Run a value-only plan on version-masked worklists (layouts and
    rules in ``_kernels.c``); returns the ``WORKLIST_*`` status.

    ``evals`` ``(E, 2)`` names each evaluation's row and source; the
    step table (``StepTable.columns()``) holds COPY and APPLY steps only;
    ``edge_tag`` ``(M,)`` int32 says which rows hold each union edge.
    ``values`` ``(S, n)`` and ``applied`` ``(S, max(n_steps, 1))`` bytes
    hold the rows, ``work`` :func:`worklist_work` int64 words of scratch
    and ``state`` ``(WORKLIST_STATE,)`` int64 a paused plan, which a
    call with ``resume`` carries on.  With ``marks``, the finished plan
    writes each marked row's reached count and finite-value checksum
    into ``reached`` and ``checksum``.  A malformed call raises
    ``ValueError``; its rows are then untouched.
    """
    n = indptr.shape[0] - 1
    m = dst_all.shape[0]
    n_rows = values.shape[0]
    n_steps = steps.shape[0]
    _shape(edge_tag, (m,), "edge_tag")
    _shape(values, (n_rows, n), "values")
    _shape(applied, (n_rows, max(n_steps, 1)), "applied")
    _shape(evals, (evals.shape[0], 2), "evals")
    _shape(steps, (n_steps, STEP_COLS), "steps")
    _shape(work, (worklist_work(n, n_steps),), "work")
    _shape(state, (WORKLIST_STATE,), "state")
    n_marks = 0
    marks_ptr = reached_ptr = checksum_ptr = None
    if marks is not None:
        n_marks = marks.shape[0]
        _shape(reached, (n_marks,), "reached")
        _shape(checksum, (n_marks,), "checksum")
        marks_ptr = _ptr(marks, _I64_T, "marks")
        reached_ptr = _ptr(reached, _I64_T, "reached")
        checksum_ptr = _ptr(checksum, _F64_T, "checksum")
    status = load_library().mega_worklist_eval(
        _graph_ptr(indptr, _I64_T, "indptr"),
        _graph_ptr(src_of_edge, _I64_T, "src_of_edge"),
        _graph_ptr(dst_all, _I64_T, "dst_all"),
        _graph_ptr(wt_all, _F64_T, "wt_all"),
        _state_ptr(edge_tag, _I32_T, "edge_tag"),
        n, m,
        _ptr(evals, _I64_T, "evals"), evals.shape[0],
        _state_ptr(steps, _I64_T, "steps"), n_steps,
        _state_ptr(step_rows, _I64_T, "step_rows"), step_rows.shape[0],
        _state_ptr(seed_edges, _I64_T, "seed_edges"), seed_edges.shape[0],
        _ptr(values, _F64_T, "values"), n_rows,
        _state_ptr(applied, None, "applied"),
        op, minimize, identity, source_value,
        marks_ptr, n_marks, reached_ptr, checksum_ptr,
        _state_ptr(work, _I64_T, "work"),
        _ptr(state, _I64_T, "state"),
        max_pops, _WL_RESUME if resume else _WL_START,
    )
    if status < 0:
        raise ValueError(_WORKLIST_BAD[status])
    return status


#: mega_replay's scalar and output layouts (RI_COUNT, RD_COUNT,
#: REPLAY_COUNTS, REPLAY_SUMS in _kernels.c)
_RI_COUNT, _RD_COUNT, _REPLAY_COUNTS, _REPLAY_SUMS = 16, 6, 10, 4
_RI_DETAILED, _RI_N_BANKS = 12, 14
#: mega_replay's REPLAY_BAD_* return codes
_REPLAY_BAD = {
    1: "wave_execs/exec_rounds: offsets must rise from 0 to the lengths",
    2: "phase ids must index phase_kind, and kinds lie in [0, 3)",
    3: "rows: edge-block counts must be non-negative and sum to blocks",
    4: "blocks must index the cache's stamp array",
    5: "ints: a divisor or bank count is not positive",
}


class ReplayOut(NamedTuple):
    """What one :func:`replay` call computed (layouts in ``_kernels.c``)."""

    #: events popped, events generated, edges fetched, edge-block hits,
    #: misses, vertex reads, vertex writes, rounds, round groups, waves
    #: injected early
    counts: np.ndarray
    #: cycles, DRAM bytes, spill bytes, partition switch bytes
    sums: np.ndarray
    #: per phase id: cycles charged, and the order it was first charged
    #: (-1: never)
    phase_cycles: np.ndarray
    phase_seq: np.ndarray
    #: per wave: the cycles at its activation
    wave_marks: np.ndarray


def _vector(arr: np.ndarray, dtype: np.dtype, n: int, name: str) -> int:
    _shape(arr, (n,), name)
    return _ptr(arr, dtype, name)


def replay(
    wave_parts: np.ndarray,
    wave_cross: np.ndarray,
    wave_execs: np.ndarray,
    exec_rounds: np.ndarray,
    exec_touched: np.ndarray,
    exec_phase: np.ndarray,
    rows: np.ndarray,
    round_phase: np.ndarray,
    blocks: np.ndarray,
    phase_kind: np.ndarray,
    ints: np.ndarray,
    doubles: np.ndarray,
    stamp: np.ndarray,
    open_rows: np.ndarray | None,
    state: np.ndarray,
    pipeline: bool,
    threshold: int,
) -> ReplayOut:
    """A workflow's whole timing replay in C (``mega_replay``).

    The arguments are :class:`~repro.accel.scheduler.FlatWaves`' arrays,
    each phase id's round kind, the timing model's scalars
    (:meth:`~repro.accel.timing.TimingModel.kernel_config`), the edge
    cache's stamps, the row-buffer model's open rows (None without
    ``detailed_dram``) and ``state`` ``(3,)`` int64 — the cache's
    distinct-access counter and the row buffer's hits and misses — all
    three updated in place.  Dtypes, contiguity and shapes are checked
    here and every offset, id and block count by the kernel before it
    reads through them; either way a malformed input is a ValueError.
    """
    lib = load_library()
    n_waves = wave_parts.shape[0]
    wave_ptr = _vector(wave_parts, _I64_T, n_waves, "wave_parts")
    cross_ptr = _vector(wave_cross, _F64_T, n_waves, "wave_cross")
    execs_ptr = _vector(wave_execs, _I64_T, n_waves + 1, "wave_execs")
    n_execs = int(wave_execs[-1])
    if n_execs < 0:
        raise ValueError(_REPLAY_BAD[1])
    rounds_ptr = _vector(exec_rounds, _I64_T, n_execs + 1, "exec_rounds")
    n_rounds = int(exec_rounds[-1])
    if n_rounds < 0:
        raise ValueError(_REPLAY_BAD[1])
    _shape(rows, (n_rounds, _ROW), "rows")
    most = int(rows[:, _ROW - 1].max()) if n_rounds else 0
    if most > blocks.shape[0]:
        raise ValueError(_REPLAY_BAD[3])
    if stamp.ndim != 1:
        raise ValueError("stamp: expected one dimension")
    open_ptr = None
    if ints.shape == (_RI_COUNT,) and ints[_RI_DETAILED]:
        if open_rows is None:
            raise ValueError("open_rows: required with the row-buffer model")
        open_ptr = _vector(
            open_rows, _I64_T, int(ints[_RI_N_BANKS]), "open_rows"
        )
    work = np.empty(4 * n_execs + most, dtype=np.int64)
    out = ReplayOut(
        np.empty(_REPLAY_COUNTS, dtype=np.int64),
        np.empty(_REPLAY_SUMS, dtype=np.float64),
        np.empty(phase_kind.shape[0], dtype=np.float64),
        np.empty(phase_kind.shape[0], dtype=np.int64),
        np.empty(n_waves, dtype=np.float64),
    )
    bad = lib.mega_replay(
        n_waves, wave_ptr, cross_ptr, execs_ptr, n_execs, rounds_ptr,
        _vector(exec_touched, _I64_T, n_execs, "exec_touched"),
        _vector(exec_phase, _I64_T, n_execs, "exec_phase"),
        n_rounds, _ptr(rows, _I64_T, "rows"),
        _vector(round_phase, _I64_T, n_rounds, "round_phase"),
        _ptr(blocks, _I64_T, "blocks"), blocks.shape[0],
        _vector(phase_kind, _I64_T, phase_kind.shape[0], "phase_kind"),
        phase_kind.shape[0],
        _vector(ints, _I64_T, _RI_COUNT, "ints"),
        _vector(doubles, _F64_T, _RD_COUNT, "doubles"),
        _ptr(stamp, _I64_T, "stamp"), stamp.shape[0], open_ptr,
        _vector(state, _I64_T, 3, "state"),
        int(bool(pipeline)), int(threshold), work.ctypes.data,
        out.counts.ctypes.data, out.sums.ctypes.data,
        out.phase_cycles.ctypes.data, out.phase_seq.ctypes.data,
        out.wave_marks.ctypes.data,
    )
    if bad:
        raise ValueError(_REPLAY_BAD[bad])
    return out


class WindowMerge(NamedTuple):
    """What one :func:`window_merge` call returned (see ``_kernels.c``)."""

    #: 0, or the SLIDE_* code of the CommonGraph check that refused
    refusal: int
    #: a refusal's offending deletion or addition row
    index: int
    #: the new union's CSR columns, tags and planes (None on a refusal)
    indptr: np.ndarray | None = None
    src_of_edge: np.ndarray | None = None
    dst: np.ndarray | None = None
    wt: np.ndarray | None = None
    add_step: np.ndarray | None = None
    del_step: np.ndarray | None = None
    planes: np.ndarray | None = None
    #: each deletion's old slot and each addition's new slot
    del_slots: np.ndarray | None = None
    add_slots: np.ndarray | None = None


_NO_IDS = np.empty(0, dtype=np.int64)
_NO_WTS = np.empty(0, dtype=np.float64)
_NO_PAIRS = np.empty((0, 2), dtype=np.int64)


def window_merge(
    indptr: np.ndarray,
    src_of_edge: np.ndarray,
    dst: np.ndarray,
    wt: np.ndarray,
    add_step: np.ndarray,
    del_step: np.ndarray,
    planes: np.ndarray,
    n_snapshots: int,
    lo: int,
    count: int,
    n_out: int,
    add_src: np.ndarray = _NO_IDS,
    add_dst: np.ndarray = _NO_IDS,
    add_wt: np.ndarray = _NO_WTS,
    dels: np.ndarray = _NO_PAIRS,
) -> WindowMerge:
    """A union's window moved in C (``mega_window_merge``): old
    snapshots ``lo .. lo + count - 1`` become the first ``count`` of
    ``n_out``.  ``n_out == count + 1`` is a slide by the transition
    ``add_*`` (any order) and ``dels`` ``(k, 2)``; otherwise there is no
    transition.  The new arrays are views of buffers sized for the old
    union plus the additions."""
    lib = load_library()
    n_vertices = indptr.shape[0] - 1
    m = dst.shape[0]
    add_src, add_dst, dels = (
        np.ascontiguousarray(a, dtype=np.int64) for a in (add_src, add_dst, dels)
    )
    add_wt = np.ascontiguousarray(add_wt, dtype=np.float64)
    n_add, n_del = add_src.shape[0], dels.shape[0]
    if not (0 <= lo and 1 <= lo + count <= n_snapshots and n_out >= 1):
        raise ValueError("window: snapshots out of range")
    if n_out != count + 1 and (n_out != count or n_add or n_del):
        raise ValueError("window: only a slide takes a transition")
    for arr, name in ((src_of_edge, "src_of_edge"), (dst, "dst"),
                      (wt, "wt"), (add_step, "add_step"),
                      (del_step, "del_step")):
        _shape(arr, (m,), name)
    _shape(add_dst, (n_add,), "add_dst")
    _shape(add_wt, (n_add,), "add_wt")
    _shape(planes, ((n_snapshots + 7) // 8, m), "planes")
    _shape(dels, (n_del, 2), "dels")
    cap = m + n_add
    n_planes = (n_out + 7) // 8
    out = np.empty(2, dtype=np.int64)
    new = WindowMerge(
        0, 0,
        np.empty(n_vertices + 1, dtype=np.int64),
        np.empty(cap, dtype=np.int64),
        np.empty(cap, dtype=np.int64),
        np.empty(cap, dtype=np.float64),
        np.empty(cap, dtype=np.int32),
        np.empty(cap, dtype=np.int32),
        np.empty(n_planes * cap, dtype=np.uint8),
        np.empty(n_del, dtype=np.int64),
        np.empty(n_add, dtype=np.int64),
    )
    work = np.empty(4 * n_add + n_del, dtype=np.int64)
    refusal = lib.mega_window_merge(
        n_vertices, m, _ptr(indptr, _I64_T, "indptr"),
        _ptr(src_of_edge, _I64_T, "src_of_edge"), _ptr(dst, _I64_T, "dst"),
        _ptr(wt, _F64_T, "wt"), _ptr(add_step, _I32_T, "add_step"),
        _ptr(del_step, _I32_T, "del_step"),
        _ptr(planes, None, "planes"), n_snapshots, lo, count, n_out,
        _ptr(add_src, _I64_T, "add_src"), _ptr(add_dst, _I64_T, "add_dst"),
        _ptr(add_wt, _F64_T, "add_wt"), n_add, _ptr(dels, _I64_T, "dels"),
        n_del, _addr(work), *(_addr(arr) for arr in new[2:]), _addr(out),
    )
    if refusal:
        return WindowMerge(refusal, int(out[0]))
    n_new = int(out[1])
    return new._replace(
        src_of_edge=new.src_of_edge[:n_new],
        dst=new.dst[:n_new],
        wt=new.wt[:n_new],
        add_step=new.add_step[:n_new],
        del_step=new.del_step[:n_new],
        planes=new.planes[: n_planes * n_new].reshape(n_planes, n_new),
    )
