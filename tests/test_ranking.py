import math

import pytest
import scipy.stats
from hypothesis import given, strategies as st

from complexrank import ranks

from .oracles import loop_ranks

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


def test_distinct_values_get_their_sorted_positions():
    values = [21, 28, 33, 44, 45, 54, 55, 60, 63, 76]
    assert ranks(values) == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]


def test_tied_runs_share_the_average_position():
    values = [21, 28, 44, 44, 44, 54, 55, 55, 55, 55]
    assert ranks(values) == [1, 2, 4, 4, 4, 6, 8.5, 8.5, 8.5, 8.5]


def test_all_equal():
    assert ranks([7.0, 7.0, 7.0]) == [2.0, 2.0, 2.0]


def test_singleton():
    assert ranks([42.0]) == [1.0]


def test_result_follows_input_order():
    assert ranks([30, 10, 20]) == [3.0, 1.0, 2.0]


def test_empty_rejected():
    with pytest.raises(ValueError, match="at least one"):
        ranks([])


def test_non_finite_rejected():
    with pytest.raises(ValueError, match="finite values, got nan$"):
        ranks([1.0, math.nan])
    with pytest.raises(ValueError, match="finite values, got inf$"):
        ranks([1.0, math.inf])
    with pytest.raises(ValueError, match="finite values, got -inf$"):
        ranks([-math.inf, 2.0, math.nan])


@given(st.lists(finite_floats, min_size=1, max_size=50))
def test_ranks_sum_to_position_total(values):
    n = len(values)
    assert sum(ranks(values)) == n * (n + 1) / 2


@given(st.lists(finite_floats, min_size=1, max_size=30))
def test_ranks_preserve_order(values):
    r = ranks(values)
    for i in range(len(values)):
        for j in range(len(values)):
            if values[i] < values[j]:
                assert r[i] < r[j]
            elif values[i] == values[j]:
                assert r[i] == r[j]


@given(st.lists(finite_floats, min_size=1, max_size=30, unique=True))
def test_distinct_values_yield_a_permutation(values):
    assert sorted(ranks(values)) == [float(i) for i in range(1, len(values) + 1)]


# few distinct values, so runs of ties are the rule; -0.0 and 0.0 tie
tie_heavy_floats = st.sampled_from([-1.0, -0.0, 0.0, 2.5])


@given(st.lists(finite_floats, min_size=1, max_size=50)
       | st.lists(tie_heavy_floats, min_size=1, max_size=50))
def test_matches_library_rankdata(values):
    expected = scipy.stats.rankdata(values, method="average")
    assert ranks(values) == list(expected)
    assert ranks(values) == loop_ranks(values)


def test_extreme_magnitudes_rank_without_overflow(recwarn):
    assert ranks([1.7e308, -1.7e308, 1.7e308, 5e-324, 0.0]) == [4.5, 1.0, 4.5, 3.0, 2.0]
    assert not recwarn.list
