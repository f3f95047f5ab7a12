import math

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
from .oracles import brute_force_inner, two_pass_standardize

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
    from complexrank.coding import CodedColumn, CodedMatrix, ColumnSource

    data = np.array(cols, dtype=np.complex128).T
    columns = tuple(
        CodedColumn(f"c{i}", ColumnSource.NUMERIC) for i in range(data.shape[1])
    )
    return CodedMatrix(columns=columns, data=data)


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
