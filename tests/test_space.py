import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from complexrank import (
    DataError,
    EncodeMode,
    distance,
    encode_dataset,
    inner_product,
    norm,
    real_expansion,
    standardize,
)
from .oracles import brute_force_inner, per_column_standardize, two_pass_standardize

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
complexes = st.builds(complex, finite, finite)


def vectors(dim):
    return st.lists(complexes, min_size=dim, max_size=dim)


dims = st.integers(1, 8)


class TestInnerProduct:
    def test_real_example(self):
        v = [1 + 1j, 2 + 0j]
        # <v, v> = |1+i|^2 + |2|^2 = 2 + 4
        assert inner_product(v, v) == 6 + 0j

    def test_order_conjugates(self):
        assert inner_product([1j], [1]) == 1j
        assert inner_product([1], [1j]) == -1j

    def test_car_rows_nominal_part(self, cars):
        m = encode_dataset(cars, EncodeMode.NOMINAL)
        x, y = m.data[2], m.data[3]  # Ferrari rows differing only in Color
        got = inner_product(x, y)
        assert got == pytest.approx(brute_force_inner(x, y), abs=1e-12)
        assert got == pytest.approx(16.5 + 0j, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            inner_product([1, 2], [1])

    @given(dims.flatmap(lambda d: st.tuples(vectors(d), vectors(d))))
    def test_conjugate_symmetry(self, xy):
        x, y = xy
        a, b = inner_product(x, y), inner_product(y, x)
        scale = max(1.0, abs(a))
        assert abs(a - b.conjugate()) <= 1e-12 * scale

    @given(
        dims.flatmap(lambda d: st.tuples(vectors(d), vectors(d), vectors(d))),
        complexes,
        complexes,
    )
    def test_linear_in_first_argument(self, xyz, alpha, beta):
        x, y, z = xyz
        combo = [alpha * a + beta * b for a, b in zip(x, y)]
        lhs = inner_product(combo, z)
        rhs = alpha * inner_product(x, z) + beta * inner_product(y, z)
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-10 * scale

    @given(dims.flatmap(vectors))
    def test_positive_semidefinite(self, x):
        q = inner_product(x, x)
        assert abs(q.imag) <= 1e-12 * max(1.0, abs(q))
        assert q.real >= 0

    @given(dims.flatmap(lambda d: st.tuples(vectors(d), vectors(d))))
    def test_matches_loop_oracle(self, xy):
        x, y = xy
        got = inner_product(x, y)
        want = brute_force_inner(x, y)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


class TestNormAndDistance:
    def test_norm_example(self):
        assert norm([1 + 1j, 2 + 0j]) == pytest.approx(math.sqrt(6), abs=1e-15)
        assert norm([1 + 1j, 2 + 0j]) == pytest.approx(2.449489742783178, abs=1e-15)

    def test_norm_zero(self):
        assert norm([0j, 0j]) == 0.0

    def test_distance_between_opposite_reals(self):
        # codes that landed on opposite sides of the real axis
        assert distance([2 + 0j], [-2 + 0j]) == 4.0

    def test_distance_between_third_roots(self):
        # 2*e^{0i} vs 2*e^{2pi i/3}: chord of the radius-2 circle, 2*2*sin(pi/3)
        a = [2 * complex(math.cos(0), math.sin(0))]
        b = [2 * complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))]
        assert distance(a, b) == pytest.approx(2 * math.sqrt(3), abs=1e-12)
        assert distance(a, b) == pytest.approx(3.4641016151377544, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            distance([1], [1, 2])

    @given(dims.flatmap(lambda d: st.tuples(vectors(d), vectors(d))))
    def test_symmetry(self, xy):
        x, y = xy
        d1, d2 = distance(x, y), distance(y, x)
        assert abs(d1 - d2) <= 1e-12 * max(1.0, d1)

    @given(dims.flatmap(lambda d: st.tuples(vectors(d), vectors(d), vectors(d))))
    def test_triangle_inequality(self, xyz):
        x, y, z = xyz
        lhs = distance(x, z)
        rhs = distance(x, y) + distance(y, z)
        assert lhs <= rhs + 1e-10 * max(1.0, rhs)

    @given(dims.flatmap(vectors))
    def test_identity(self, x):
        assert distance(x, x) == 0.0

    @given(dims.flatmap(lambda d: st.tuples(vectors(d), vectors(d))))
    def test_norm_consistent_with_inner_product(self, xy):
        x, _ = xy
        n = norm(x)
        q = inner_product(x, x).real
        assert abs(n * n - q) <= 1e-9 * max(1.0, q)


class TestRealExpansion:
    def test_interleaves_re_im(self):
        out = real_expansion([1 + 2j, 3 - 4j])
        assert out.tolist() == [1.0, 2.0, 3.0, -4.0]
        assert out.dtype == np.float64

    @given(dims.flatmap(lambda d: st.tuples(vectors(d), vectors(d))))
    def test_distance_survives_expansion(self, xy):
        # the complex metric and the Euclidean metric on interleaved
        # re/im coordinates are the same function
        x, y = xy
        d_complex = distance(x, y)
        d_real = float(np.linalg.norm(real_expansion(x) - real_expansion(y)))
        assert abs(d_complex - d_real) <= 1e-12 * max(1.0, d_complex)

    @given(dims.flatmap(vectors))
    def test_norm_survives_expansion(self, x):
        n_complex = norm(x)
        n_real = float(np.linalg.norm(real_expansion(x)))
        assert abs(n_complex - n_real) <= 1e-12 * max(1.0, n_complex)


def _matrix_from_columns(*cols):
    """Build a CodedMatrix by encoding nothing: wrap raw columns directly."""
    return _matrix_from_array(np.array(cols, dtype=np.complex128).T)


def _matrix_from_array(data):
    from complexrank.coding import CodedColumn, CodedMatrix, ColumnSource

    columns = tuple(
        CodedColumn(f"c{i}", ColumnSource.NUMERIC) for i in range(data.shape[1])
    )
    return CodedMatrix(columns=columns, data=data)


# coded values as encode_dataset gives them: ranks on the real axis and on roots of unity
CODES = np.array([2, -2, 2.5, 1.5j, -1.5, complex(-1.25, 2.1650635094610964), 3.5, 1])


@st.composite
def coded_blocks(draw):
    """A complex (rows, columns) block, C or Fortran order.

    The row counts sit on both sides of numpy's pairwise-sum block (128
    values) and of its buffer (8192). Columns are random spread with an
    offset, repeated coded values or 0/1 indicators, each at its own scale
    from 1e-150 to 1e150 and with some cells -0.0. Up to two columns are
    then replaced by a constant column, a column whose scatter overflows,
    or random spread at 1e-300 or 1e300.
    """
    n = draw(st.one_of(st.integers(2, 7), st.integers(127, 129), st.integers(1000, 1100), st.integers(8191, 8193)))
    c = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["spread", "coded", "zero-one"]), min_size=c, max_size=c))
    for _ in range(draw(st.integers(0, 2))):
        kinds[draw(st.integers(0, c - 1))] = draw(st.sampled_from(["constant", "overflow", "tiny", "huge"]))
    columns = []
    for kind in kinds:
        scale = 10.0 ** draw(st.integers(-150, 150))
        if kind in ("spread", "tiny", "huge"):
            scale = {"tiny": 1e-300, "huge": 1e300}.get(kind, scale)
            col = (rng.standard_normal(n) + 1j * rng.standard_normal(n) + 10 * rng.standard_normal()) * scale
        elif kind == "coded":
            col = CODES[rng.integers(0, len(CODES), n)] * scale
        elif kind == "zero-one":
            col = rng.integers(0, 2, n).astype(np.complex128)
        elif kind == "constant":
            col = np.full(n, CODES[5] * scale)
        else:
            col = np.where(np.arange(n) % 2, -1e300, 1e300).astype(np.complex128)
        if kind in ("spread", "coded", "zero-one"):
            col[rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = complex(-0.0, -0.0)
        columns.append(col)
    data = np.column_stack(columns)
    return np.asfortranarray(data) if draw(st.booleans()) else data


class TestStandardize:
    def test_simple_real_column(self):
        m = _matrix_from_columns([1, 2, 3])
        out = standardize(m)
        col = out.data[:, 0]
        root = 1.224744871391589  # sqrt(3/2)
        assert col[0] == pytest.approx(-root, abs=1e-15)
        assert col[1] == 0
        assert col[2] == pytest.approx(root, abs=1e-15)
        s = out.scaling[0]
        assert s.mean == 2 + 0j
        assert s.sigma == pytest.approx(math.sqrt(2 / 3), abs=1e-15)

    def test_coded_color_column_matches_two_pass_oracle(self, cars):
        m = encode_dataset(cars, EncodeMode.COMBINED)
        out = standardize(m)
        raw = [complex(v) for v in m.column("Color")]
        mean, sigma, want = two_pass_standardize(raw)
        assert mean == 1 + 0j
        assert sigma == 1.9748417658131499
        got = out.column("Color")
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-15)
        # the three distinct codes map to three standardized values
        got_by_code = {raw[i]: got[i] for i in range(len(raw))}
        assert got_by_code[2 + 0j].real == pytest.approx(0.5063696835418333, abs=1e-15)
        assert got_by_code[-2 + 0j].real == pytest.approx(-1.5191090506255, abs=1e-12)
        assert got_by_code[2.5 + 0j].real == pytest.approx(0.75955452531275, abs=1e-13)

    def test_columns_become_zero_mean_unit_rms(self, cars):
        m = standardize(encode_dataset(cars, EncodeMode.COMBINED))
        n = m.n_rows
        for name in m.column_names:
            col = m.column(name)
            assert abs(col.mean()) < 1e-12
            rms = math.sqrt(float(np.sum(col.real**2 + col.imag**2)) / n)
            assert rms == pytest.approx(1.0, abs=1e-12)

    def test_zero_dispersion_column_is_reported_by_name(self):
        m = _matrix_from_columns([1, 2, 3], [5, 5, 5])
        with pytest.raises(DataError, match="c1"):
            standardize(m)

    def test_needs_two_rows(self):
        m = _matrix_from_columns([1.0])
        with pytest.raises(DataError):
            standardize(m)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_scatter_is_reported_by_name(self):
        m = _matrix_from_columns([1, 2, 3], [1e300, -1e300, 1e300])
        with pytest.raises(DataError, match="'c1'.*overflows"):
            standardize(m)

    def test_large_finite_scatter_is_kept(self):
        m = _matrix_from_columns([1e150, -1e150])
        out = standardize(m)
        assert out.scaling[0].sigma == 1e150
        assert out.data[:, 0].tolist() == [1, -1]

    def test_joint_sigma_mixes_channels(self):
        m = _matrix_from_columns([1 + 10j, 2 + 20j, 3 + 30j])
        out = standardize(m)
        # sigma^2 = (sum of squared deviations over both channels) / n
        want = math.sqrt((2 / 3) * (1 + 100))
        assert out.scaling[0].sigma == pytest.approx(want, abs=1e-12)

    @given(
        st.lists(
            st.builds(complex, st.floats(-100, 100), st.floats(-100, 100)),
            min_size=2,
            max_size=24,
        ).filter(lambda c: max(abs(z - c[0]) for z in c) > 1e-6)
    )
    def test_property_zero_mean_unit_rms(self, col):
        m = _matrix_from_columns(col)
        out = standardize(m)
        got = out.data[:, 0]
        n = len(col)
        assert abs(got.mean()) <= 1e-9
        rms = math.sqrt(float(np.sum(got.real**2 + got.imag**2)) / n)
        assert rms == pytest.approx(1.0, rel=1e-9)

    @given(
        st.lists(st.floats(-100, 100), min_size=2, max_size=24).filter(
            lambda c: max(c) - min(c) > 1e-6
        )
    )
    def test_property_matches_two_pass_oracle(self, col):
        m = _matrix_from_columns(col)
        out = standardize(m)
        mean, sigma, want = two_pass_standardize([complex(v) for v in col])
        got = out.data[:, 0]
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-9 * max(1.0, abs(w))
        assert out.scaling[0].mean == pytest.approx(mean, abs=1e-9)

    def test_a_standardized_matrix_is_refused(self, cars):
        # a second scaling would describe the first one's cells, not the coded
        # values, and the reader would refuse the document it gives
        m = standardize(encode_dataset(cars, EncodeMode.COMBINED))
        with pytest.raises(ValueError, match="already standardized"):
            standardize(m)

    @given(coded_blocks())
    def test_property_matches_the_per_column_code_byte_for_byte(self, data):
        m = _matrix_from_array(data)
        try:
            want, means, sigmas = per_column_standardize(m)
        except DataError as exc:
            with pytest.raises(DataError, match=f"^{re.escape(str(exc))}$"):
                standardize(m)
            return
        got = standardize(m)
        assert got.data.tobytes() == want.tobytes()
        assert np.array([s.mean for s in got.scaling]).tobytes() == np.array(means).tobytes()
        assert np.array([s.sigma for s in got.scaling]).tobytes() == np.array(sigmas).tobytes()
