"""Pure-numpy reference kernels — the permanent parity baseline.

Like ``UnifiedCSR._presence_of_dense``, these implementations are never
removed: every compiled tier must reproduce them bit-for-bit (values,
parent tracking, and tie-break order), and the differential tests in
``tests/test_kernel_backends.py`` hold them to it.  ``group_argbest``
here is the original lexsort-based engine reduction; the engine's own
vectorized multi-sweep round body, driven step by step by
``MultiVersionEngine.run_segment``, is the
reference for the compiled ``daic_round`` step-table loop (the numpy
backend exposes no ``daic_round``, so the engine keeps using that path),
``UnifiedCSR.presence_multi``'s unpackbits path is the reference for
``presence_gather``, and the numpy bodies of ``slide_window`` and
``extract_window`` are the reference for ``window_merge``
(``tests/test_window_merge.py``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["group_argbest"]


def group_argbest(
    keys: np.ndarray, candidates: np.ndarray, minimize: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Per-group best candidate: returns ``(unique_keys, argbest_index)``.

    ``argbest_index`` indexes the *input* arrays; ties break toward the
    lowest input index, which keeps parent tracking deterministic.
    """
    if keys.shape[0] == 0:
        return keys, np.empty(0, dtype=np.int64)
    order_val = candidates if minimize else -candidates
    order = np.lexsort((np.arange(keys.shape[0]), order_val, keys))
    sorted_keys = keys[order]
    first = np.empty(sorted_keys.shape[0], dtype=bool)
    first[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return sorted_keys[first], order[first]
