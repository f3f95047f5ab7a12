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
from dataclasses import replace
from typing import Sequence

import numpy as np

from .coding import CodedMatrix, ColumnScaling, mean_and_sigma
from .dataset import DataError

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


def standardize(matrix: CodedMatrix) -> CodedMatrix:
    """Center and scale every coded column to zero mean and unit dispersion.

    Each column is shifted by its complex mean and divided by the real
    population scatter sqrt(sum(|x - mean|^2) / N), one sigma for both
    channels.

    Columns whose values are all identical have no scale at all, and
    columns whose scatter overflows float64 have no finite one; both are
    rejected by name.
    """
    data = matrix.data
    n = data.shape[0]
    if n < 2:
        raise DataError("standardization needs at least 2 rows")
    out = np.empty_like(data)
    scalings = []
    # an overflow only ever yields a non-finite sigma, which is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for c, col_info in enumerate(matrix.columns):
            col = data[:, c]
            mean, sigma = mean_and_sigma(col)
            # sigma underflows to 0 not only for constant columns but also
            # when the spread is subnormal; both have no usable scale
            if sigma == 0.0:
                raise DataError(f"column {col_info.name!r} has zero dispersion")
            if not math.isfinite(sigma):
                raise DataError(f"column {col_info.name!r} is too spread out: its scatter overflows")
            out[:, c] = (col - mean) / sigma
            scalings.append(ColumnScaling(col_info.name, mean, sigma))
    return replace(matrix, data=out, scaling=tuple(scalings))
