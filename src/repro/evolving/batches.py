"""Edge batches — the unit of change between consecutive snapshots.

Moving from snapshot ``G_j`` to ``G_{j+1}`` applies an addition batch
``Δ+_j`` and a deletion batch ``Δ-_j`` (paper §2.1).  A batch is an index
set into a scenario's union edge arrays plus its kind and step.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = ["BatchKind", "EdgeBatch", "BatchId"]


class BatchKind(enum.Enum):
    """Whether a batch adds edges going forward or removes them.

    Under the CommonGraph transformation *both* kinds are applied as edge
    additions: a ``DELETION`` batch at step ``j`` re-adds its edges to the
    snapshots ``0..j`` that still contain them.
    """

    ADDITION = "add"
    DELETION = "del"


@dataclass(frozen=True)
class BatchId:
    """Identity of a batch within a scenario: kind + step index ``j``."""

    kind: BatchKind
    step: int

    def __hash__(self) -> int:
        # one frame instead of the generated tuple hash and the enum's own
        # __hash__: version tables hash batch ids several times per batch
        return 2 * self.step + (self.kind is BatchKind.DELETION)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        sign = "+" if self.kind is BatchKind.ADDITION else "-"
        return f"Δ{sign}_{self.step}"


@dataclass
class EdgeBatch:
    """A batch of edges, referenced by index into a scenario's union arrays."""

    batch_id: BatchId
    edge_idx: np.ndarray  # indices into the scenario union edge arrays

    @property
    def kind(self) -> BatchKind:
        return self.batch_id.kind

    @property
    def step(self) -> int:
        return self.batch_id.step

    def __len__(self) -> int:
        return int(self.edge_idx.shape[0])

    def target_snapshots(self, n_snapshots: int) -> range:
        """Snapshots that contain this batch's edges (CommonGraph view).

        * ``Δ+_j`` edges exist in snapshots ``j+1 .. N-1``;
        * ``Δ-_j`` edges exist in snapshots ``0 .. j``.
        """
        if self.kind is BatchKind.ADDITION:
            return range(self.step + 1, n_snapshots)
        return range(0, self.step + 1)
