"""The float-side numeric rank shared by the numeric modules."""

from __future__ import annotations

import numpy as np

RANK_RTOL = 1e-9  # singular values below this share of the largest count as zero


def numeric_rank(a: np.ndarray) -> int:
    """Rank by singular values, thresholded relative to the largest one."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0
    sv = np.linalg.svd(a, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > RANK_RTOL * sv[0]))

