"""Pure-numpy reference kernels — the permanent parity baseline.

Like ``UnifiedCSR._presence_of_dense``, the references are never
removed: every compiled kernel must reproduce its reference
bit-for-bit (values, parent tracking, and tie-break order), and the
differential tests in ``tests/test_kernel_backends.py`` hold them to
it.  The references of the compiled kernels live beside the code they
replace: the engine's own vectorized round body, driven step by step
by ``MultiVersionEngine.run_segment``, for ``daic_round`` (the numpy
backend exposes no ``daic_round``, so the engine keeps using that
path), and the numpy bodies of ``slide_window`` and ``extract_window``
for ``window_merge`` (``tests/test_window_merge.py``).

``group_argbest`` here, the lexsort-based engine reduction, is the one
parent pick of every tier and has no compiled twin: the numpy round
body calls it, while the compiled tier picks parents inside the
``daic_round`` step table and calls it only for an algorithm with no
``kernel_op`` that tracks parents.
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
