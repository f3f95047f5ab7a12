"""Average (tied) ranks for numerical data."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def ranks(values: Sequence[float]) -> list[float]:
    """Rank values ascending with 1-based positions, averaging over ties.

    Equal values (exact float equality) occupy a run of consecutive sorted
    positions and all receive the arithmetic mean of that run. The result
    follows the input order, so rank i belongs to values[i].
    """
    vals = np.array([float(v) for v in values], dtype=np.float64)
    if not vals.size:
        raise ValueError("ranks() needs at least one value")
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise ValueError(f"ranks() requires finite values, got {float(vals[bad[0]])!r}")
    order = np.argsort(vals, kind="stable")
    ordered = vals[order]
    # a run of equal values starts where the sorted values change; comparing
    # neighbours instead of subtracting them cannot overflow
    start = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    end = np.r_[start[1:], vals.size] - 1
    # positions are 1-based, the mean of start+1 .. end+1
    out = np.empty(vals.size)
    out[order] = np.repeat((start + end + 2) / 2, end - start + 1)
    return out.tolist()
