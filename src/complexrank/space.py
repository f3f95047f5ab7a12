"""Inner product, norm, and metric over complex coordinate vectors.

The inner product is the standard Hermitian one, sum(x_i * conj(y_i)),
linear in the first argument and conjugate-symmetric. The induced norm
sqrt((x, x)) is real because (x, x) is a sum of squared moduli, and the
metric ||y - x|| coincides with the Euclidean distance between the real
vectors obtained by interleaving real and imaginary parts. That bridge is
what lets standard k-means run on complex-coded data unchanged.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

ComplexVector = Sequence[complex]


def _as_vector(x: ComplexVector) -> np.ndarray:
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim != 1:
        raise ValueError(f"expected a vector, got shape {a.shape}")
    return a


def inner_product(x: ComplexVector, y: ComplexVector) -> complex:
    """Hermitian inner product sum(x_i * conj(y_i))."""
    xa, ya = _as_vector(x), _as_vector(y)
    if xa.shape != ya.shape:
        raise ValueError(f"length mismatch: {xa.shape[0]} vs {ya.shape[0]}")
    return complex(np.sum(xa * np.conj(ya)))


def norm(x: ComplexVector) -> float:
    """Length induced by the inner product; always real and non-negative."""
    xa = _as_vector(x)
    return math.sqrt(float(np.sum(xa.real**2 + xa.imag**2)))


def distance(x: ComplexVector, y: ComplexVector) -> float:
    """Metric induced by the norm: ||y - x||."""
    xa, ya = _as_vector(x), _as_vector(y)
    if xa.shape != ya.shape:
        raise ValueError(f"length mismatch: {xa.shape[0]} vs {ya.shape[0]}")
    return norm(ya - xa)


def real_expansion(x: np.ndarray | ComplexVector) -> np.ndarray:
    """Interleave real and imaginary parts along the last axis.

    A length-D complex vector becomes the length-2D real vector
    (re_0, im_0, re_1, im_1, ...) with the same Euclidean geometry.
    """
    a = np.ascontiguousarray(np.asarray(x, dtype=np.complex128))
    return a.view(np.float64)
