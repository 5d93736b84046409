"""Zero-copy shared-memory scenario plane.

The coordinator materializes each live scenario once and **publishes** its
immutable arrays — the union CSR (``indptr``/``dst``/``wt``), the snapshot
tags (``add_step``/``del_step``), and the bit-packed presence planes — into
one ``multiprocessing.shared_memory`` segment.  Workers **attach** to the
segment and wrap the raw buffers in read-only numpy views, so a plan's
scenario costs one ``mmap``.  Attaching is the only way a worker gets a
scenario: the coordinator is the one writer, the workers only read.  This
is the software analogue of MEGA's on-chip sharing: one copy of the
evolving graph serves every execution lane.

Lifecycle
---------

* Segments are keyed by ``(graph, scale, n_snapshots)`` and stamped with
  their *lineage* (which history of the log), *epoch* and a monotonically
  increasing *generation*; a plan attaches one of its own lineage and epoch.
* :meth:`ScenarioPlane.acquire` hands out a manifest and bumps a refcount;
  the coordinator acquires at plan submit and releases when the plan's
  future resolves.  An epoch advance publishes a new generation and
  *retires* the old segment — it is unlinked once its refcount drains
  (POSIX keeps the mapping valid for already-attached workers even after
  the unlink).
* A straggler — a plan admitted under an older ``(lineage, epoch)`` than
  the current generation's — gets a *private* generation: published
  retired, never current, unlinked when its plan releases it.  A new
  lineage displaces the current generation whatever its epoch.
* A segment that cannot be written or attached raises
  :class:`PlaneError`.  A failed attach retires the generation when its
  plan is released (``release(..., retire=True)``), so the retried
  queries attach a freshly published one.
* Segment names embed the creating PID (``megashm-<pid>-<plane>-<seq>``,
  where ``<plane>`` disambiguates multiple planes in one process — a
  primary and a follower replica, say) so a
  restarted service can :func:`sweep_orphan_segments` left behind by a
  crashed predecessor — the kill-and-recover drill asserts this sweep
  leaves ``/dev/shm`` clean.
* Both sides unregister the segment from ``multiprocessing``'s
  ``resource_tracker``: cleanup is owned *explicitly* by the plane
  (``close_all`` + the startup sweep), never by an attaching worker's
  exit — without the unregister, the first worker to die would unlink
  segments the coordinator still serves from.
"""

from __future__ import annotations

import atexit
import itertools
import logging
import os
import threading
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.evolving.snapshots import EvolvingScenario
from repro.evolving.unified_csr import UnifiedCSR
from repro.graph.csr import CSRGraph
from repro.resilience import FatalError

__all__ = [
    "ArraySpec",
    "PlaneError",
    "ScenarioManifest",
    "ScenarioPlane",
    "attach_scenario",
    "list_orphan_segments",
    "sweep_orphan_segments",
]

log = logging.getLogger(__name__)

#: where POSIX shared memory lives on Linux (scanned by the orphan sweep)
SHM_DIR = "/dev/shm"
#: every plane segment name starts with this (PID and sequence follow)
SEGMENT_PREFIX = "megashm-"
#: array offsets inside a segment are aligned to this many bytes
_ALIGN = 64


class PlaneError(FatalError):
    """A scenario generation could not be published or attached.

    Deterministic for the plan that hit it (a segment that is gone does
    not come back), so a worker does not retry it in-process; the
    coordinator retries the plan's queries against a fresh generation.
    """


@dataclass(frozen=True)
class ArraySpec:
    """Placement of one numpy array inside a published segment."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class ScenarioManifest:
    """Everything a worker needs to attach a published scenario.

    Travels inside :class:`~repro.service.pool.PlanPayload`; the arrays
    themselves never cross the pickle boundary.
    """

    segment: str
    generation: int
    graph: str
    scale: str
    epoch: int
    #: which history of the graph's log (``_LiveGraph.lineage``)
    lineage: int
    n_snapshots: int
    n_vertices: int
    source: int
    scenario_name: str
    nbytes: int
    arrays: tuple[ArraySpec, ...]
    metadata: dict = field(default_factory=dict)


#: serializes the register-suppression monkeypatch (coordinator threads)
_TRACK_LOCK = threading.Lock()

#: per-process plane instance counter: a primary and a follower (or a
#: drill harness) can each own a plane in one process, and their segment
#: names must not collide — the name embeds this id after the PID
_PLANE_IDS = itertools.count(1)


class _suppress_tracking:
    """Keep ``multiprocessing.resource_tracker`` out of segment lifecycle.

    Python 3.12 grew ``SharedMemory(track=False)``; on earlier versions
    every create/attach registers the segment with the (fork-shared)
    tracker, whose refcount-free set semantics mis-handle one segment
    touched by several processes — the first exit unlinks it for
    everyone, and balanced register/unregister pairs still race into
    KeyError noise.  The plane owns cleanup explicitly (``close_all`` +
    the startup sweep), so segments are simply never registered: this
    context manager no-ops ``register`` while a ``SharedMemory`` object
    is constructed, and unlinking goes through the filesystem instead of
    ``SharedMemory.unlink()`` (which would send a spurious unregister).
    """

    def __enter__(self) -> None:
        _TRACK_LOCK.acquire()
        self._orig = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None

    def __exit__(self, *exc) -> None:
        resource_tracker.register = self._orig
        _TRACK_LOCK.release()


def _unlink_segment(name: str) -> None:
    """Remove a segment from the filesystem (idempotent)."""
    try:
        os.unlink(os.path.join(SHM_DIR, name))
    except FileNotFoundError:
        pass


def _scenario_arrays(scenario: EvolvingScenario) -> list[tuple[str, np.ndarray]]:
    """The immutable arrays a published scenario consists of."""
    u = scenario.unified
    return [
        ("indptr", u.graph.indptr),
        ("dst", u.graph.dst),
        ("wt", u.graph.wt),
        ("add_step", u.add_step),
        ("del_step", u.del_step),
        ("planes", u.presence_planes()),
    ]


def _write_segment(
    name: str, arrays: list[tuple[str, np.ndarray]]
) -> tuple[shared_memory.SharedMemory, tuple[ArraySpec, ...], int]:
    """Create ``name`` and copy ``arrays`` into it back to back."""
    specs = []
    offset = 0
    for arr_name, arr in arrays:
        offset = (offset + _ALIGN - 1) & ~(_ALIGN - 1)
        specs.append(
            ArraySpec(arr_name, np.dtype(arr.dtype).str, arr.shape, offset)
        )
        offset += arr.nbytes
    total = max(offset, 1)
    with _suppress_tracking():
        shm = shared_memory.SharedMemory(name=name, create=True, size=total)
    for spec, (_, arr) in zip(specs, arrays):
        view = np.ndarray(
            spec.shape, dtype=np.dtype(spec.dtype),
            buffer=shm.buf, offset=spec.offset,
        )
        view[...] = arr
    return shm, tuple(specs), total


def attach_scenario(
    manifest: ScenarioManifest,
) -> tuple[shared_memory.SharedMemory, EvolvingScenario]:
    """Attach to a published segment and rebuild the scenario zero-copy.

    Every array is a read-only view directly over the shared buffer:
    :class:`CSRGraph` adopts canonical dtypes without copying (its
    documented no-copy contract) and :class:`UnifiedCSR` takes the
    packed presence planes verbatim, so no plane is rebuilt in the
    worker either.  Raises ``FileNotFoundError`` if the segment is gone.
    """
    with _suppress_tracking():
        shm = shared_memory.SharedMemory(name=manifest.segment)
    views: dict[str, np.ndarray] = {}
    for spec in manifest.arrays:
        arr = np.ndarray(
            spec.shape, dtype=np.dtype(spec.dtype),
            buffer=shm.buf, offset=spec.offset,
        )
        arr.flags.writeable = False
        views[spec.name] = arr
    graph = CSRGraph(
        manifest.n_vertices, views["indptr"], views["dst"], views["wt"]
    )
    unified = UnifiedCSR(
        graph,
        views["add_step"],
        views["del_step"],
        manifest.n_snapshots,
        presence_planes=views["planes"],
    )
    scenario = EvolvingScenario(
        unified,
        source=manifest.source,
        name=manifest.scenario_name,
        metadata=dict(manifest.metadata),
    )
    return shm, scenario


# ---------------------------------------------------------------------------
# coordinator side
# ---------------------------------------------------------------------------


class _Segment:
    """One published segment plus its refcount/retirement state."""

    __slots__ = ("shm", "manifest", "refs", "retired")

    def __init__(
        self, shm: shared_memory.SharedMemory, manifest: ScenarioManifest
    ) -> None:
        self.shm = shm
        self.manifest = manifest
        self.refs = 0
        self.retired = False

    def destroy(self) -> None:
        try:
            self.shm.close()
        except OSError:  # pragma: no cover - buffer already torn down
            pass
        _unlink_segment(self.manifest.segment)


class ScenarioPlane:
    """Coordinator-owned registry of published scenario segments."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: (graph, scale, n_snapshots) -> the segment serving that key now
        self._current: dict[tuple, _Segment] = {}
        #: segment name -> segment, including retired ones draining refs
        self._by_name: dict[str, _Segment] = {}
        self._seq = 0
        self._pid = os.getpid()
        self._plane_id = next(_PLANE_IDS)
        self.published = 0
        self.retired = 0
        # last-resort cleanup if the owner forgets to stop the service;
        # pool workers exit via os._exit and never run this
        atexit.register(self.close_all)

    # -- publish / lookup --------------------------------------------------

    def publish(
        self,
        scenario: EvolvingScenario,
        graph: str,
        scale: str,
        epoch: int,
        lineage: int = 0,
        hold: bool = False,
    ) -> ScenarioManifest:
        """Publish ``scenario`` at ``(lineage, epoch)`` as a new generation.

        The new generation becomes current and retires the previous one,
        which is unlinked as soon as its refcount drains (immediately if
        idle).  A scenario below the current generation's ``(lineage,
        epoch)`` (a straggler's) never displaces it: its generation is
        private, retired at once and unlinked when its last reference is
        released.
        ``hold`` takes one reference in the same critical section (pair
        it with one :meth:`release`).  Raises :class:`PlaneError` if the
        segment cannot be written.
        """
        key = (graph, scale, scenario.n_snapshots)
        arrays = _scenario_arrays(scenario)
        with self._lock:
            self._seq += 1
            name = f"{SEGMENT_PREFIX}{self._pid}-{self._plane_id}-{self._seq}"
            generation = self._seq
        try:
            shm, specs, total = _write_segment(name, arrays)
        except (OSError, ValueError) as exc:
            _unlink_segment(name)
            raise PlaneError(
                f"cannot publish {graph}@{epoch} as {name}: {exc}"
            ) from None
        manifest = ScenarioManifest(
            segment=name,
            generation=generation,
            graph=graph,
            scale=scale,
            epoch=int(epoch),
            lineage=int(lineage),
            n_snapshots=scenario.n_snapshots,
            n_vertices=scenario.n_vertices,
            source=scenario.source,
            scenario_name=scenario.name,
            nbytes=total,
            arrays=specs,
            metadata=dict(scenario.metadata),
        )
        segment = _Segment(shm, manifest)
        segment.refs = int(hold)
        with self._lock:
            self._by_name[name] = segment
            self.published += 1
            current = self._current.get(key)
            m = current.manifest if current is not None else manifest
            if (m.lineage, m.epoch) > (manifest.lineage, manifest.epoch):
                retiring = segment
            else:
                self._current[key] = segment
                retiring = current
            if retiring is not None:
                self._retire_locked(retiring)
        log.debug(
            "shm plane: published %s (gen %d, lineage %d, epoch %d, "
            "%d bytes)", name, generation, lineage, epoch, total,
        )
        return manifest

    def acquire(
        self,
        graph: str,
        scale: str,
        n_snapshots: int,
        epoch: int,
        lineage: int = 0,
    ) -> ScenarioManifest | None:
        """Refcounted lookup of the current segment for a plan's
        ``(lineage, epoch)``.

        Returns ``None`` when nothing is published for the key or at that
        lineage and epoch — the caller then publishes.
        Every non-``None`` return must be paired with one
        :meth:`release`.
        """
        key = (graph, scale, int(n_snapshots))
        with self._lock:
            segment = self._current.get(key)
            m = segment.manifest if segment is not None else None
            if m is None or (m.lineage, m.epoch) != (lineage, int(epoch)):
                return None
            segment.refs += 1
            return segment.manifest

    def release(self, manifest: ScenarioManifest, retire: bool = False) -> None:
        """Drop one reference; unlink retired segments at zero.

        ``retire`` first retires the generation (a worker could not
        attach it), so the next plan for its key publishes a fresh one.
        """
        with self._lock:
            segment = self._by_name.get(manifest.segment)
            if segment is None:
                return
            segment.refs -= 1
            if retire and not segment.retired:
                self._retire_locked(segment)
            elif segment.retired and segment.refs <= 0:
                self._drop_locked(segment)

    def _retire_locked(self, segment: _Segment) -> None:
        m = segment.manifest
        key = (m.graph, m.scale, m.n_snapshots)
        if self._current.get(key) is segment:
            del self._current[key]
        segment.retired = True
        self.retired += 1
        if segment.refs <= 0:
            self._drop_locked(segment)

    def _drop_locked(self, segment: _Segment) -> None:
        self._by_name.pop(segment.manifest.segment, None)
        segment.destroy()

    # -- lifecycle ---------------------------------------------------------

    def close_all(self) -> None:
        """Unlink every segment this plane created (idempotent).

        No-op in forked children: only the creating process owns the
        segments' lifecycle.
        """
        if os.getpid() != self._pid:
            return
        with self._lock:
            segments = list(self._by_name.values())
            self._by_name.clear()
            self._current.clear()
        for segment in segments:
            segment.destroy()

    def stats(self) -> dict:
        with self._lock:
            return {
                "segments": len(self._by_name),
                "bytes": sum(
                    s.manifest.nbytes for s in self._by_name.values()
                ),
                "published": self.published,
                "retired": self.retired,
                # retired generations still mapped by in-flight plans;
                # anything left here after a drain is an orphaned segment
                "retired_pending": sum(
                    1 for s in self._by_name.values() if s.retired
                ),
                "generation": self._seq,
            }


# ---------------------------------------------------------------------------
# orphan management (crash recovery)
# ---------------------------------------------------------------------------


def _segment_pid(name: str) -> int | None:
    if not name.startswith(SEGMENT_PREFIX):
        return None
    try:
        return int(name[len(SEGMENT_PREFIX):].split("-", 1)[0])
    except ValueError:
        return None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - alive, not ours
        return True
    return True


def list_orphan_segments(shm_dir: str = SHM_DIR) -> list[str]:
    """Plane segments whose creating process is dead (crash leftovers)."""
    try:
        entries = os.listdir(shm_dir)
    except OSError:  # pragma: no cover - non-Linux / exotic mounts
        return []
    orphans = []
    for entry in entries:
        pid = _segment_pid(entry)
        if pid is not None and not _pid_alive(pid):
            orphans.append(entry)
    return sorted(orphans)


def sweep_orphan_segments(shm_dir: str = SHM_DIR) -> list[str]:
    """Unlink every orphaned plane segment; returns what was removed.

    Run at service start: a SIGKILLed coordinator cannot unlink its own
    segments, so its successor reclaims them by PID liveness.
    """
    swept = []
    for entry in list_orphan_segments(shm_dir):
        try:
            os.unlink(os.path.join(shm_dir, entry))
        except FileNotFoundError:
            continue  # raced with another sweeper
        except OSError as exc:  # pragma: no cover - permissions etc.
            log.warning("shm plane: could not sweep %s: %s", entry, exc)
            continue
        swept.append(entry)
    if swept:
        log.info("shm plane: swept %d orphaned segment(s)", len(swept))
    return swept
