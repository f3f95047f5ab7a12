import contextlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from complexrank import (
    DataError,
    EncodeMode,
    bucket_accuracies,
    derive_run_seed,
    distance,
    encode_dataset,
    kmeans,
    purity_accuracy,
    real_expansion,
    run_experiment,
    splitmix64,
    standardize,
)
from complexrank import cluster, coding
from complexrank.cluster import (
    BUCKET_KEYS,
    DEFAULT_CONDITIONS,
    ConditionResult,
    ExperimentReport,
)
from complexrank.dataset import AttributeSchema, Dataset
from .oracles import (
    broadcast_kmeans,
    brute_force_purity,
    exhaustive_kmeans_inertia,
    naive_kmeans_inertia,
    numpy_choice,
    reference_bucket_accuracies,
    reference_max_matching,
    reference_report_json,
)


def random_points(seed, n, d, complex_valued=True):
    rng = np.random.default_rng(seed)
    if complex_valued:
        return rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    return rng.normal(size=(n, d))


class TestKmeansBasics:
    def test_two_obvious_pairs_any_seed(self):
        data = np.array([[0.0], [0.1], [10.0], [10.1]])
        for seed in range(10):
            result = kmeans(data, 2, seed=seed)
            a = result.assignments
            assert a[0] == a[1] and a[2] == a[3] and a[0] != a[2]
            assert result.inertia == pytest.approx(0.01, abs=1e-12)

    def test_duplicated_points_reach_zero_inertia(self):
        # two copies of each third root of unity, scaled by 2
        roots = [2 * complex(math.cos(2 * math.pi * j / 3), math.sin(2 * math.pi * j / 3))
                 for j in range(3)]
        data = np.array([[z] for z in roots + roots])
        best = min(kmeans(data, 3, seed=s).inertia for s in range(20))
        assert best == 0.0

    def test_deterministic_in_seed(self):
        data = random_points(7, 12, 3)
        r1, r2 = kmeans(data, 3, seed=42), kmeans(data, 3, seed=42)
        assert np.array_equal(r1.assignments, r2.assignments)
        assert np.array_equal(r1.centroids, r2.centroids)
        assert r1.inertia == r2.inertia
        assert r1.iterations == r2.iterations

    def test_accepts_coded_matrix(self, cars):
        m = standardize(encode_dataset(cars, EncodeMode.COMBINED))
        result = kmeans(m, 3, seed=0)
        assert result.assignments.shape == (10,)
        assert result.centroids.shape == (3, 6)

    def test_result_arrays_are_frozen(self):
        result = kmeans(random_points(0, 6, 2), 2, seed=0)
        with pytest.raises(ValueError):
            result.assignments[0] = 5
        with pytest.raises(ValueError):
            result.centroids[0, 0] = 0

    def test_distance_ties_go_to_the_lowest_cluster_index(self):
        data = np.array([[1.0], [3.0]])
        init = np.array([[0.0], [2.0]])
        result = kmeans(data, 2, initial_centroids=init)
        # the first point sits exactly between both starting centroids
        assert result.assignments.tolist() == [0, 1]

    def test_emptied_cluster_restarts_on_a_farthest_point(self):
        data = np.array([[0.0], [1.0], [2.0], [3.0]])
        init = np.array([[100.0], [0.0]])  # nothing is nearest to 100
        result = kmeans(data, 2, initial_centroids=init)
        a = result.assignments
        assert a[0] == a[1] and a[2] == a[3] and a[0] != a[2]
        assert result.inertia == pytest.approx(1.0, abs=1e-12)
        assert result.reseeds >= 1

    def test_a_capped_run_is_not_converged(self):
        data = random_points(3, 20, 2)
        assert kmeans(data, 4, seed=1, max_iterations=1).converged is False
        result = kmeans(data, 4, seed=1)
        assert result.converged is True and result.iterations < 100
        assert result.reseeds == 0

    def test_centroids_are_cluster_means(self):
        data = random_points(3, 20, 2)
        result = kmeans(data, 4, seed=1)
        for c in range(4):
            members = data[result.assignments == c]
            assert members.size > 0
            assert np.allclose(result.centroids[c], members.mean(axis=0), atol=1e-12)

    def test_inertia_matches_distance_sums(self, cars):
        m = standardize(encode_dataset(cars, EncodeMode.COMBINED))
        result = kmeans(m, 3, seed=5)
        total = sum(
            distance(m.data[i], result.centroids[result.assignments[i]]) ** 2
            for i in range(m.n_rows)
        )
        assert result.inertia == pytest.approx(total, rel=1e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.nan)])
    def test_non_finite_raw_array_rejected(self, bad):
        data = random_points(3, 10, 2)
        start = data[:2].copy()
        start[1, 0] = bad
        with pytest.raises(DataError, match="initial_centroids has NaN or infinite cells"):
            kmeans(data, 2, initial_centroids=start)
        data[4, 1] = bad
        with pytest.raises(DataError, match="finite"):
            kmeans(data, 2, seed=0)

    @pytest.mark.parametrize("data, k", [
        ([[1e308, 0.0], [1e308, 1.0], [1e308, 2.0]], 1),  # a cluster sum overflows
        ([[1.7e308], [-1.7e308], [1.0], [2.0]], 2),  # a distance overflows
    ])
    def test_overflow_on_finite_data_rejected(self, data, k):
        # pyproject turns a RuntimeWarning into an error, so this also
        # checks that the overflow is refused without one; seeds 1 to 3
        # start the second case where a subtraction overflows
        for seed in range(4):
            with pytest.raises(DataError, match="k-means overflowed"):
                kmeans(np.array(data), k, seed=seed)

    def test_inertia_never_increases(self, cars):
        # checked from outside: a run cut after t passes has no more
        # inertia than one cut after t - 1
        cases = [(random_points(seed, 30, 2), 4, seed) for seed in range(10)]
        for mode in EncodeMode:
            m = standardize(encode_dataset(cars, mode))
            cases += [(m, 3, seed) for seed in range(20)]
        for data, k, seed in cases:
            previous = math.inf
            for t in range(1, kmeans(data, k, seed=seed).iterations + 1):
                inertia = kmeans(data, k, seed=seed, max_iterations=t).inertia
                assert inertia <= previous * (1 + 1e-12) + 1e-12, (seed, t, previous, inertia)
                previous = inertia

    def test_converged_result_is_a_fixed_point(self):
        data = random_points(11, 25, 3)
        result = kmeans(data, 4, seed=9)
        again = kmeans(data, 4, initial_centroids=result.centroids)
        assert np.array_equal(again.assignments, result.assignments)
        assert again.inertia == pytest.approx(result.inertia, rel=1e-12)
        assert again.iterations <= 2

    def test_row_permutation_only_permutes_assignments(self):
        data = random_points(2, 15, 2)
        init = data[:4].copy()
        perm = np.random.default_rng(0).permutation(15)
        base = kmeans(data, 4, initial_centroids=init)
        shuffled = kmeans(data[perm], 4, initial_centroids=init)
        assert np.array_equal(shuffled.assignments, base.assignments[perm])
        assert shuffled.inertia == pytest.approx(base.inertia, rel=1e-12)

    def test_k_equal_n_puts_every_point_alone(self):
        data = np.array([[0.0], [1.0], [5.0]])
        result = kmeans(data, 3, seed=0)
        assert sorted(result.assignments.tolist()) == [0, 1, 2]
        assert result.inertia == 0.0

    @pytest.mark.parametrize("seed", [True, np.int64(3), np.uint64(2**64 - 1), 2**64, 2**130, 2**200])
    def test_accepted_seeds_start_as_the_oracle(self, seed):
        assert_matches_broadcast_oracle(random_points(0, 12, 2), 3, seed=seed)

    @pytest.mark.parametrize(
        "seed, error", [(-1, ValueError), (np.int64(-2), ValueError), (1.5, TypeError), ("3", TypeError)]
    )
    def test_rejected_seeds(self, seed, error):
        with pytest.raises(error):
            kmeans(random_points(0, 5, 2), 2, seed=seed)

    def test_parameter_validation(self):
        data = random_points(0, 5, 2)
        with pytest.raises(ValueError):
            kmeans(data, 0)
        with pytest.raises(ValueError):
            kmeans(data, 6)
        with pytest.raises(ValueError):
            kmeans(data, 2.0)
        with pytest.raises(ValueError):
            kmeans(data, 2, max_iterations=0)
        for k, cap in [(True, 1), (2, 2.5), (2, True), (2, np.float64(3))]:
            with pytest.raises(ValueError, match="must be an integer"):
                kmeans(data, k, max_iterations=cap)
        with pytest.raises(ValueError):
            kmeans(data, 2, initial_centroids=np.zeros((3, 2)))


class TestKmeansAgainstExhaustiveOracle:
    def test_oracles_agree_with_each_other(self):
        for seed in range(5):
            pts = random_points(seed, 6, 1)
            assert exhaustive_kmeans_inertia(pts, 2) == pytest.approx(
                naive_kmeans_inertia(pts, 2), rel=1e-12
            )
            assert exhaustive_kmeans_inertia(pts, 3) == pytest.approx(
                naive_kmeans_inertia(pts, 3), rel=1e-12
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_restarted_lloyd_finds_the_global_optimum(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(4, 10))
        k = int(rng.integers(2, 4))
        d = int(rng.integers(1, 3))
        pts = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
        best = min(kmeans(pts, k, seed=s).inertia for s in range(50))
        want = exhaustive_kmeans_inertia(pts, k)
        assert best == pytest.approx(want, rel=1e-9)
        assert best >= want - 1e-9 * max(1.0, want)


def assert_matches_broadcast_oracle(data, k, **kwargs):
    got = kmeans(data, k, **kwargs)
    assignments, centroids, inertia, iterations = broadcast_kmeans(data, k, **kwargs)
    assert np.array_equal(got.assignments, assignments)
    assert got.centroids.dtype == centroids.dtype
    assert got.centroids.tobytes() == centroids.tobytes()
    assert got.inertia == inertia
    assert got.iterations == iterations


# (offset, spread) of data whose screened distances cannot decide the
# argmin alone: squared norms that overflow while differences stay small,
# squared distances in the subnormal range (at 1e-161 a few dozen subnormal
# steps apart), and ones that all underflow to 0
EXTREME_SCALES = [(1e154, 1e150), (0.0, 1e-160), (0.0, 1e-161), (0.0, 1e-300)]

# k=3 centroids of d=4 real coordinates: 96 bytes of scratch per row
FOUR_ROW_BLOCKS = 4 * 8 * 3 * 4


def assert_matches_the_oracle_in_any_blocks(data, k, **kwargs):
    """assert_matches_broadcast_oracle with the default blocks and with four-row blocks."""
    for block_bytes in (None, FOUR_ROW_BLOCKS):
        with pytest.MonkeyPatch.context() as mp:
            if block_bytes is not None:
                mp.setattr(coding, "_BLOCK_BYTES", block_bytes)
            assert_matches_broadcast_oracle(data, k, **kwargs)


def with_zero_channels(data, zero, rng):
    """data with the channels `zero` of its real view set to cells of ±0.0."""
    data = data.copy()
    real = data.view(np.float64)
    zero = np.asarray(zero, dtype=bool)
    real[:, zero] = rng.choice([0.0, -0.0], size=(len(real), int(np.count_nonzero(zero))))
    return data


class TestBlockedDistances:
    """Row-blocked, screened distances give the full broadcast's results bit for bit."""

    @pytest.fixture
    def four_row_blocks(self, monkeypatch):
        monkeypatch.setattr(coding, "_BLOCK_BYTES", FOUR_ROW_BLOCKS)

    @pytest.mark.parametrize("n", [12, 13, 3])  # a multiple, one more, under one block
    @pytest.mark.parametrize("seed", range(4))
    def test_real_rows_across_block_edges(self, four_row_blocks, n, seed):
        data = random_points(seed, n, 4, complex_valued=False)
        assert_matches_broadcast_oracle(data, 3, seed=seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_complex_input(self, four_row_blocks, seed):
        data = random_points(seed, 17, 2)  # d=4 in the interleaved real view
        assert_matches_broadcast_oracle(data, 3, seed=seed)

    def test_single_cluster(self, four_row_blocks):
        assert_matches_broadcast_oracle(random_points(5, 21, 4, complex_valued=False), 1)

    @pytest.mark.parametrize("n, d, k", [(13, 1, 3), (13, 1, 1), (9, 3, 9), (9, 1, 9)])  # d = 1, k = 1, k = n
    @pytest.mark.parametrize("seed", range(3))
    def test_edge_shapes(self, four_row_blocks, n, d, k, seed):
        assert_matches_broadcast_oracle(random_points(seed, n, d, complex_valued=False), k, seed=seed)

    @pytest.mark.parametrize("offset, spread", EXTREME_SCALES)
    @pytest.mark.parametrize("seed", range(4))
    def test_extreme_scales(self, four_row_blocks, offset, spread, seed):
        data = offset + spread * random_points(seed, 200, 3, complex_valued=False)
        assert_matches_broadcast_oracle(data, 4, seed=seed)

    @pytest.mark.parametrize("n, k", [(5, 1), (5, 2), (5, 3), (7, 7), (1, 1)])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_zero_width_rows(self, n, k, seed, dtype):
        # every distance is 0, so every row goes to cluster 0 and the others
        # reseed; a block size divided by d once raised ZeroDivisionError here
        assert_matches_the_oracle_in_any_blocks(np.zeros((n, 0), dtype=dtype), k, seed=seed)

    def test_overflowing_cross_term_is_rechecked(self):
        # squared norms of 1.69e308, 1.49e308 and 0.36e308 fit in float64,
        # but 2 x.c1 = 1.82e308 does not: the screen reads x's distance to
        # c1 as -inf, while the exact distances put x nearer c2
        x, c1, c2 = [1.3e154, 0.0], [0.7e154, 1e154], [0.6e154, 0.0]
        assert_matches_broadcast_oracle(np.array([x, c1, c2]), 2, initial_centroids=np.array([c1, c2]))

    @pytest.mark.parametrize("case", ["overflowing cross term", "exact tie"])
    def test_unsure_pairs_of_later_restarts_across_row_blocks(self, monkeypatch, case):
        # three restarts in one batch, the screen split into blocks of two
        # rows; only the second and third restarts start where the screen
        # cannot decide a row, so the pairs rechecked exactly must be taken
        # from those restarts' rows of the (restart, row) count
        if case == "overflowing cross term":
            # as in test_overflowing_cross_term_is_rechecked: the screen reads
            # x's distance to c1 as -inf, which makes err inf for the batch
            x, c1, c2 = [1.3e154, 0.0], [0.7e154, 1e154], [0.6e154, 0.0]
            data, first, later = np.array([x, c1, c2]), [c2, [0.3e154, 0.3e154]], [c1, c2]
        else:
            # the rows (0, 5) and (0, -6) lie exactly between (-1, 0) and (1, 0)
            data = np.array([[0.0, 5], [-2, 0], [2, 0], [-1, 1], [1, -1], [0, -6], [3, 3]])
            first, later = [[-2.0, 0], [3, 3]], [[-1.0, 0], [1, 0]]
        starts = np.array([first, later, later[::-1]])
        monkeypatch.setattr(coding, "_BLOCK_BYTES", 8 * 2 * 2 * 3 * 2)  # k = d = 2: two rows of 3 restarts
        rechecked, exact_d2 = [], cluster._exact_d2

        def recording(work, pts, cents, at, pair_bytes):
            rechecked.append(set(zip(at.tolist(), pts.tolist())))
            return exact_d2(work, pts, cents, at, pair_bytes)

        monkeypatch.setattr(cluster, "_exact_d2", recording)
        with np.errstate(over="ignore", invalid="ignore"):
            assignments, centroids, inertia, iterations, _, _ = lloyd(data, starts, 100)
        if case == "exact tie":
            assert rechecked[0] == {(1, 0), (1, 5), (2, 0), (2, 5)}
        else:
            assert rechecked[0] >= {(1, 0), (2, 0)}
        for r, start in enumerate(starts):
            want = broadcast_kmeans(data, 2, initial_centroids=start)
            assert np.array_equal(assignments[r], want[0])
            assert centroids[r].tobytes() == want[1].tobytes()
            assert (inertia[r], iterations[r]) == (want[2], want[3])

    @pytest.mark.parametrize("seed", range(4))
    def test_duplicated_rows_and_starts_are_rechecked(self, four_row_blocks, seed):
        # three points, each four times: random starts repeat a point, so
        # rows tie exactly between two centroids and the screen trusts none
        # of those pairs; the exact recheck sends them to the lower index
        points = np.random.default_rng(seed).integers(-3, 4, size=(3, 4)).astype(float)
        data = points[np.arange(12) % 3]
        assert_matches_broadcast_oracle(data, 3, seed=seed)
        assert_matches_broadcast_oracle(data, 3, initial_centroids=points[[0, 0, 1]])
        first = kmeans(data, 3, initial_centroids=points[[1, 1, 2]], max_iterations=1)
        assert set(first.assignments[np.arange(12) % 3 == 1].tolist()) == {0}

    @pytest.mark.parametrize("k", [256, 257, 300])
    def test_screen_counts_past_255_clusters(self, monkeypatch, k):
        # the trust test must see every centroid past the 256th: a byte
        # count of far centroids, for one, wraps from k = 257 and trusts no pair
        rechecked, exact_d2 = [], cluster._exact_d2

        def counting(work, pts, *args):
            rechecked.append(pts.size)
            return exact_d2(work, pts, *args)

        monkeypatch.setattr(cluster, "_exact_d2", counting)
        data = random_points(k, k + 40, 2, complex_valued=False)
        assert_matches_broadcast_oracle(data, k, seed=k)
        assert sum(rechecked) < len(data)  # most pairs of the first step are trusted

    def test_screen_index_sums_that_wrap_are_rechecked(self):
        # forty starts at one point: the screened index of every row sums
        # 1 + ... + 39 = 780, which wraps in the byte that holds it, and
        # every such pair is a tie, so the exact recheck overwrites it
        data = random_points(40, 60, 3, complex_valued=False)
        assert_matches_broadcast_oracle(data, 40, initial_centroids=np.repeat(data[:1], 40, axis=0))

    @given(
        st.sampled_from([2, 3, 9, 257, 300]),
        st.integers(0, 30),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 2.0**30]),
        st.integers(0, 2**64 - 1),
    )
    def test_trust_count_on_tied_rows_is_the_oracle(self, k, extra, d, data_seed, offset, seed):
        # rows repeat integer points, so starts repeat and rows tie exactly
        # between centroids, at any k (past 255 too); the offset puts the
        # screen's rounding far above the integer gaps
        rng = np.random.default_rng(data_seed)
        points = rng.integers(-3, 4, size=(int(rng.integers(1, k + extra + 1)), d)).astype(float)
        data = offset + points[rng.integers(0, len(points), size=k + extra)]
        assert_matches_broadcast_oracle(data, k, seed=seed)

    @given(
        st.lists(st.booleans(), min_size=1, max_size=8),
        st.booleans(),
        st.integers(2, 24),
        st.integers(1, 4),
        st.booleans(),
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**64 - 1),
    )
    def test_zero_channels_match_the_oracle(self, zero, complex_valued, n, k, grid, data_seed, seed):
        # channels of only ±0.0 anywhere among the others (first, last, between,
        # or all), in real data or in the interleaved view of complex data; on
        # a grid of small integers rows and starts repeat, so rows tie and
        # clusters empty
        rng = np.random.default_rng(data_seed)
        if complex_valued:  # an even number of channels, re and im of each column
            zero += zero[-1:] * (len(zero) % 2)
        shape = (n, len(zero))
        data = rng.integers(-2, 3, size=shape).astype(float) if grid else rng.normal(size=shape)
        if complex_valued:
            data = data.view(np.complex128)
        assert_matches_the_oracle_in_any_blocks(with_zero_channels(data, zero, rng), min(k, n), seed=seed)

    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_zero_channels_in_all_zero_data(self, complex_valued):
        # every row is the origin: every distance ties, and with k > 1 the
        # start's equal centroids leave clusters empty, which reseed
        data = with_zero_channels(np.zeros((9, 4)), [True] * 4, np.random.default_rng(3))
        if complex_valued:
            data = data.view(np.complex128)
        for k in (1, 2, 3):
            assert_matches_the_oracle_in_any_blocks(data, k, seed=k)

    @pytest.mark.parametrize("seed", range(3))
    def test_zero_channels_around_a_single_nonzero_channel(self, seed):
        data = np.zeros((15, 5))
        data[:, 2] = random_points(seed, 15, 1, complex_valued=False)[:, 0]
        data = with_zero_channels(data, np.arange(5) != 2, np.random.default_rng(seed))
        assert_matches_the_oracle_in_any_blocks(data, 3, seed=seed)

    @pytest.mark.parametrize("zero", [False, True])
    def test_zero_channels_with_one_channel(self, zero):
        # d = 1 keeps numpy's mean; a zero channel leaves the product nothing to read
        data = random_points(7, 11, 1, complex_valued=False)
        if zero:
            data = with_zero_channels(data, [True], np.random.default_rng(7))
        for k in (1, 3):
            assert_matches_the_oracle_in_any_blocks(data, k, seed=k)

    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_zero_channels_under_centroids_that_start_off_them(self, complex_valued):
        # the starts are nonzero in the data's zero channels (the imaginary
        # ones of complex data), which the screen reads only through |c|^2
        data = random_points(6, 20, 2, complex_valued=False)
        init = np.array([[0.5, 4.0], [-0.5, -3.0], [0.0, 1e-3]])
        if complex_valued:
            data, init = data.astype(complex), init + 1j * np.array([[2.0, 0.0], [-1.0, 0.5], [0.0, -7.0]])
        else:
            data[:, 1], init[:, 1] = 0.0, [4.0, -3.0, 1e-3]
        assert_matches_the_oracle_in_any_blocks(data, 3, initial_centroids=init)

    def test_zero_channels_in_a_reseeding_batch(self):
        # one-hot rows of two blocks (widths 3 and 4) as complex cells of im 0,
        # so half the fourteen channels are zero; the random starts repeat
        # rows, so restarts of one batch empty clusters and reseed
        rng = np.random.default_rng(0)
        n, k, seeds = 40, 5, list(range(6))
        hot = np.zeros((n, 7), dtype=complex)
        hot[np.arange(n), rng.integers(0, 3, n)] = 1
        hot[np.arange(n), 3 + rng.integers(0, 4, n)] = 1
        work = hot.view(np.float64)
        for block_bytes in (None, FOUR_ROW_BLOCKS):
            with pytest.MonkeyPatch.context() as mp:
                if block_bytes is not None:
                    mp.setattr(coding, "_BLOCK_BYTES", block_bytes)
                assignments, centroids, inertia, iterations, _, reseeds = lloyd(
                    work, work[cluster._start(n, k, seeds)], 100)
            assert reseeds.any()
            for r, seed in enumerate(seeds):
                want = broadcast_kmeans(hot, k, seed=seed)
                assert np.array_equal(assignments[r], want[0])
                assert centroids[r].tobytes() == want[1].tobytes()
                assert (inertia[r], iterations[r]) == (want[2], want[3])

    @pytest.mark.parametrize("seed", range(6))
    def test_duplicate_rows_tie_exactly(self, four_row_blocks, seed):
        base = np.random.default_rng(seed).integers(-2, 3, size=(5, 4)).astype(float)
        data = np.concatenate([base, base[::-1], base, base[:2]])
        assert_matches_broadcast_oracle(data, 3, seed=seed)

    @pytest.mark.parametrize("offset", [0.0, 2.0**30])
    def test_planted_ties_go_to_the_lowest_index(self, four_row_blocks, offset):
        # rows with x0 = 0 sit exactly between the first two centroids; the
        # offset keeps every coordinate an exact integer but puts the
        # screen's rounding (about |x|^2 * 2**-52) far above 1
        grid = np.array([[a, b, c, 0] for a in (-1, 0, 1) for b in (-1, 0, 1) for c in (0, 1)], dtype=float)
        far = np.array([[3.0, 0, 0, 8], [3.0, 1, 0, 8]])
        data = offset + np.concatenate([grid, far, grid[::-1], grid[:5]])
        init = offset + np.array([[-1.0, 0, 0, 0], [1.0, 0, 0, 0], far[0]])
        assert_matches_broadcast_oracle(data, 3, initial_centroids=init)
        first = kmeans(data, 3, initial_centroids=init, max_iterations=1).assignments
        assert set(first[data[:, 0] == offset].tolist()) == {0}

    def test_several_clusters_empty_in_one_step(self, four_row_blocks):
        data = random_points(8, 14, 4, complex_valued=False)
        init = np.array([[100.0] * 4, data[0], [-100.0] * 4])
        assert_matches_broadcast_oracle(data, 3, initial_centroids=init)

    @pytest.mark.parametrize("mode", [EncodeMode.COMBINED, EncodeMode.NOMINAL, EncodeMode.ONEHOT])
    def test_cars_matrices_with_one_row_blocks(self, monkeypatch, cars, mode):
        # standardized cars has duplicate rows and near ties; a GEMM-form
        # distance flips the argmin for some of these seeds (nominal mode)
        monkeypatch.setattr(coding, "_BLOCK_BYTES", 1)
        m = standardize(encode_dataset(cars, mode))
        for seed in range(40):
            assert_matches_broadcast_oracle(m.data, 3, seed=seed)


@st.composite
def small_tables(draw):
    """A dataset of small-integer numeric columns, perhaps one nominal column,
    and labels: duplicated rows, exact distance ties and duplicate starting
    rows (so emptied clusters) are common."""
    n = draw(st.integers(3, 10))
    cells = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(lambda c: len(set(c)) > 1)
    pairs, columns = [], []
    for j in range(draw(st.integers(1, 3))):
        pairs.append((f"x{j}", "numeric"))
        columns.append([float(v) for v in draw(cells)])
    if draw(st.booleans()):
        tokens = st.lists(st.sampled_from("pqr"), min_size=n, max_size=n).filter(lambda c: len(set(c)) > 1)
        pairs.append(("t", "nominal"))
        columns.append(draw(tokens))
    pairs.append(("y", "decision"))
    columns.append(draw(st.lists(st.sampled_from("ABC"), min_size=n, max_size=n)))
    return Dataset(AttributeSchema.from_pairs(pairs), columns)


def assert_runs_match_the_oracles(dataset, conditions, repeats, master_seed, cap):
    """Every run of run_experiment is broadcast_kmeans plus brute_force_purity
    for its derived seed."""
    report = run_experiment(dataset, conditions, repeats=repeats, master_seed=master_seed)
    labels = dataset.decision_labels()
    for ci, (mode, condition) in enumerate(zip(conditions, report.conditions)):
        data = standardize(encode_dataset(dataset, mode)).data
        runs = zip(condition.seeds, condition.accuracies, condition.inertias, condition.iterations)
        for ri, (run_seed, run_accuracy, run_inertia, run_iterations) in enumerate(runs):
            seed = derive_run_seed(master_seed, ci, ri)
            assignments, _, inertia, iterations = broadcast_kmeans(
                data, report.k, seed=seed, max_iterations=cap
            )
            assert (run_seed, run_inertia, run_iterations) == (seed, inertia, iterations), (ci, ri)
            assert run_accuracy == brute_force_purity(assignments.tolist(), labels), (ci, ri)


class TestBatchedRestarts:
    """run_experiment clusters all restarts of a condition in one Lloyd loop;
    each restart must still be the run kmeans' rules give alone."""

    def test_capped_reseeded_runs_across_batches(self, monkeypatch, cars):
        # numeric cars (d=4, k=3, n=10) with a cap of 2: some restarts
        # converge and some stop at the cap, some reseed an emptied cluster
        monkeypatch.setattr(cluster, "_MAX_ITERATIONS", 2)
        n, k, d = 10, 3, 4
        monkeypatch.setattr(coding, "_BLOCK_BYTES", 8 * k * d * n * 3)  # batches of 3 restarts
        data = standardize(encode_dataset(cars, EncodeMode.NUMERIC))
        alone = [kmeans(data, k, seed=derive_run_seed(4, 0, r), max_iterations=2) for r in range(20)]
        assert {r.converged for r in alone} == {True, False}
        assert any(r.reseeds for r in alone)
        assert_runs_match_the_oracles(cars, [EncodeMode.NUMERIC], 20, 4, cap=2)

    @settings(max_examples=60, deadline=None)
    @given(
        small_tables(),
        st.sampled_from(list(EncodeMode)),
        st.integers(1, 12),
        st.integers(0, 2**64 - 1),
        st.sampled_from([1, 2, 3, 100]),
        st.sampled_from([None, 0.5, 1, 2, 3]),
    )
    def test_each_run_is_the_oracle_run(self, dataset, mode, repeats, master_seed, cap, groups):
        # groups: restarts per batch and distance block (None: the default
        # block size; 0.5: batches of one restart over two row blocks)
        try:
            d = 2 * standardize(encode_dataset(dataset, mode)).data.shape[1]
        except DataError:  # a coded column with no spread cannot be standardized
            return
        k = len(set(dataset.decision_labels()))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cluster, "_MAX_ITERATIONS", cap)
            if groups is not None:
                mp.setattr(coding, "_BLOCK_BYTES", int(8 * k * max(d, 1) * dataset.n_rows * groups))
            assert_runs_match_the_oracles(dataset, [mode], repeats, master_seed, cap)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(3, 40),
        st.integers(1, 4),
        st.integers(1, 3),
        st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8),
        st.sampled_from([1, 2, 3, 100]),
        st.sampled_from([None, 1, 2, 3]),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.sampled_from([(0.0, 1.0), (2.0**30, 1.0)] + EXTREME_SCALES),
    )
    # every squared distance underflows to 0, so all rows tie on cluster 0
    # and each of the six restarts reseeds its other clusters
    @example(n=30, d=3, k=3, seeds=list(range(6)), cap=100, groups=None, data_seed=2, ties=False, scale=(0.0, 1e-300))
    @example(n=30, d=3, k=3, seeds=list(range(6)), cap=100, groups=1, data_seed=2, ties=False, scale=(0.0, 1e-300))
    @example(n=30, d=3, k=3, seeds=list(range(6)), cap=100, groups=3, data_seed=2, ties=False, scale=(0.0, 1e-300))
    def test_each_restart_is_the_oracle_run(self, n, d, k, seeds, cap, groups, data_seed, ties, scale):
        # the batched loop itself on real inputs, d = 1 (the mean update) and
        # d >= 2: small integers tie often; normal floats in clusters of 8 or
        # more rows sum pairwise in mean(axis=0) when d = 1. An offset of
        # 2**30 keeps integer ties exact where the screen cannot see them
        rng = np.random.default_rng(data_seed)
        data = rng.integers(-2, 3, size=(n, d)).astype(float) if ties else rng.normal(size=(n, d))
        offset, spread = scale
        assert_restarts_match_the_oracle(
            offset + spread * data, min(k, n), seeds, cap, groups, extreme=scale in EXTREME_SCALES
        )

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("groups", [None, 1, 3])
    def test_restarts_reseeding_unevenly_in_one_batch(self, d, groups):
        # ten rows, five of them repeats, in k = 7 clusters: the starts repeat
        # points, so in the first step the twelve restarts empty two to four
        # clusters each, and all of them empty more in later steps
        data = np.array([[0, 0], [0, 0], [0, 0], [1, 0], [1, 0], [5, 1], [5, 1], [9, 3], [9, 3], [2, 7]], dtype=float)
        data, seeds = data[:, :d], list(range(12))
        first = [kmeans(data, 7, seed=s, max_iterations=1).reseeds for s in seeds]
        total = [kmeans(data, 7, seed=s).reseeds for s in seeds]
        assert set(first) == {2, 3, 4}
        assert all(t > f for t, f in zip(total, first))
        assert_restarts_match_the_oracle(data, 7, seeds, 100, groups)

    @pytest.mark.parametrize("cap", [1, 2, 3])
    @pytest.mark.parametrize("groups", [None, 2])
    def test_restarts_stopping_at_different_steps_in_one_batch(self, cap, groups):
        # three blobs and four clusters: within a cap of 2 or 3 some of the
        # sixteen restarts converge, at different steps, and the others run
        # out of iterations; each is written back once, when it stops
        rng = np.random.default_rng(0)
        data = np.concatenate([rng.normal(c, 0.6, size=(8, 2)) for c in ([0, 0], [4, 0], [0, 4])])
        data, seeds = np.concatenate([data, data[:4]]), list(range(16))
        alone = [kmeans(data, 4, seed=s, max_iterations=cap) for s in seeds]
        assert {r.converged for r in alone} == ({False} if cap == 1 else {True, False})
        if cap == 3:
            assert {r.iterations for r in alone if r.converged} == {2, 3}
        assert_restarts_match_the_oracle(data, 4, seeds, cap, groups)

    @given(
        st.integers(2, 12),
        st.integers(0, 3),
        st.integers(1, 3),
        st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8),
        st.sampled_from([None, 1, 2]),
        st.integers(0, 2**32 - 1),
    )
    def test_restarts_with_k_near_n_reseed_as_alone(self, n, below, d, seeds, groups, data_seed):
        # rows repeat a few distinct points and k is n at most three below,
        # so the restarts of a batch empty clusters in different numbers
        # and at different steps
        rng = np.random.default_rng(data_seed)
        points = rng.integers(-2, 3, size=(int(rng.integers(1, n + 1)), d)).astype(float)
        data = points[rng.integers(0, len(points), size=n)]
        assert_restarts_match_the_oracle(data, max(1, n - below), seeds, 100, groups)

    @given(
        st.integers(1, 30),
        st.integers(1, 5),
        st.integers(1, 40),
        st.integers(1, 4),
        st.sampled_from([1, 3, 1 << 20]),
        st.sampled_from([1e-160, 1.0, 1e155]),
        st.integers(0, 2**32 - 1),
    )
    def test_reseed_distances_are_a_column_of_the_exact_ones(self, n, k, d, restarts, block, scale, data_seed):
        # the farthest-point reseed reads each row's distance to its own
        # centroid alone, from the (R k, 1, d) view of the centroids; from
        # eight channels on, a pairwise sum of the squares would give other
        # bytes than the broadcast's einsum
        rng = np.random.default_rng(data_seed)
        work, cents = rng.normal(size=(n, d)) * scale, rng.normal(size=(restarts, k, d)) * scale
        at, pts = np.arange(restarts).repeat(n), np.tile(np.arange(n), restarts)
        own = rng.integers(0, k, size=pts.size)
        pair_bytes = coding._BLOCK_BYTES // block  # chunks of `block` pairs
        with np.errstate(over="ignore", under="ignore"):
            want = cluster._exact_d2(work, pts, cents, at, pair_bytes)[np.arange(pts.size), own]
            got = cluster._exact_d2(work, pts, cents.reshape(restarts * k, 1, d), at * k + own, pair_bytes)[:, 0]
            assert got.tobytes() == want.tobytes()


def lloyd(work, starts, cap):
    """cluster._lloyd from the (R, k, d) starts, handed a new channel-row buffer as kmeans hands it."""
    return cluster._lloyd(work, np.empty(work.shape[::-1]), starts, cap)


def assert_restarts_match_the_oracle(data, k, seeds, cap, groups, extreme=False):
    """_lloyd from the starts of `seeds` equals broadcast_kmeans of each seed
    alone, and its converged and reseeds the R = 1 kmeans.

    groups: restarts one distance block holds (None: the default block).
    extreme: the data may overflow float64 in _lloyd, which then runs
    without overflow warnings as kmeans runs it; elsewhere a warning fails.
    """
    n, d = data.shape
    quiet = np.errstate(over="ignore", invalid="ignore") if extreme else contextlib.nullcontext()
    with pytest.MonkeyPatch.context() as mp, quiet:
        # with more live restarts than a block holds, each block takes
        # fewer rows of them all
        if groups is not None:
            mp.setattr(coding, "_BLOCK_BYTES", 8 * k * d * n * groups)
        assignments, centroids, inertia, iterations, converged, reseeds = lloyd(
            data, data[cluster._start(n, k, seeds)], cap
        )
    for r, seed in enumerate(seeds):
        want = broadcast_kmeans(data, k, seed=seed, max_iterations=cap)
        assert np.array_equal(assignments[r], want[0])
        assert centroids[r].tobytes() == want[1].tobytes()
        assert (inertia[r], iterations[r]) == (want[2], want[3])
        # converged: the assignments repeated within the cap
        assert converged[r] == (broadcast_kmeans(data, k, seed=seed, max_iterations=cap + 1)[3] <= cap)
        alone = kmeans(data, k, seed=seed, max_iterations=cap)
        assert (alone.converged, alone.reseeds) == (converged[r], reseeds[r])


def start_rows(n, k, seeds):
    """The rows _start picks for each seed."""
    return cluster._start(n, k, seeds)


# SeedSequence hashes a seed's 32-bit words: one word below 2**32, two
# below 2**64, and words past the fourth are mixed into the pool after it
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1, 2**128, 2**160, 2**200]


@st.composite
def choice_sizes(draw):
    # numpy takes Floyd's algorithm up to n = 10000; above, more than
    # n // 50 rows (201 at n = 10001) come from a tail shuffle of arange(n)
    n = draw(st.one_of(st.integers(1, 40), st.integers(10001, 10040)))
    return n, draw(st.integers(1, min(n, 300)))


# rows of np.random.default_rng(seed).choice(n, k, replace=False) in
# numpy 2.4, pinned so that report bytes cannot move with numpy; a
# tail shuffle (n > 10000, k > n // 50) is pinned by its first six
# rows and the sum of all k
PINNED_ROWS = [
    (0, 10, 3, [5, 9, 6]),
    (1, 10, 3, [4, 3, 7]),
    (2**32 - 1, 10, 3, [7, 2, 1]),
    (2**32, 10, 3, [9, 4, 8]),
    (2**64 - 1, 10, 3, [6, 4, 9]),
    (2**64, 10, 3, [7, 0, 4]),
    (2**128, 10, 3, [6, 3, 5]),
    (2**200, 10, 3, [5, 6, 7]),
    (7, 7, 7, [2, 3, 4, 6, 0, 1, 5]),
    (5, 1, 1, [0]),
    (12345, 30000, 9, [6818, 6124, 23918, 20970, 20286, 29653, 23654, 19279, 9501]),
    (3, 20000, 12, [3626, 1882, 4734, 787, 17380, 16221, 8662, 6643, 1712, 3587, 16020, 11640]),
    (99, 10001, 200, ([1433, 6189, 7234, 3859, 6570, 5480], 1001315)),
    (42, 10001, 201, ([3589, 9428, 3322, 1156, 3359, 9994], 1022823)),
]


class TestStarts:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1), st.integers(0, 2**300)),
            min_size=1, max_size=6,
        ),
        choice_sizes(),
    )
    @example(seeds=EDGE_SEEDS, sizes=(10001, 200))
    @example(seeds=EDGE_SEEDS, sizes=(10001, 201))
    @example(seeds=EDGE_SEEDS, sizes=(7, 7))
    def test_rows_are_numpys_choice(self, seeds, sizes):
        n, k = sizes
        assert np.array_equal(start_rows(n, k, seeds), numpy_choice(n, k, seeds))

    @pytest.mark.parametrize("seed, n, k, rows", PINNED_ROWS)
    def test_pinned_rows(self, seed, n, k, rows):
        got = start_rows(n, k, [seed])[0]
        if k > 100:
            rows, total = rows
            assert got.sum() == total
            got = got[:6]
        assert got.tolist() == rows

    def test_a_shared_draw_across_chunks_is_the_pinned_table(self, monkeypatch):
        # the eight seeds pinned at n = 10, k = 3, drawn three to a chunk
        pinned = [(seed, rows) for seed, n, k, rows in PINNED_ROWS if (n, k) == (10, 3)]
        monkeypatch.setattr(coding, "_BLOCK_BYTES", 8 * 3 * 3)
        assert start_rows(10, 3, [seed for seed, _ in pinned]).tolist() == [rows for _, rows in pinned]

    @given(
        st.lists(st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1)), min_size=1, max_size=7),
        choice_sizes(),
        st.integers(1, 3),
    )
    @example(seeds=EDGE_SEEDS, sizes=(10001, 201), per=3)
    def test_chunked_draws_are_numpys_choice(self, seeds, sizes, per):
        # per: seeds one chunk draws, from the rows a seed holds while drawing
        # (all n of them in a tail shuffle, else its k picks)
        n, k = sizes
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(coding, "_BLOCK_BYTES", 8 * (n if n > 10000 and k > n // 50 else k) * per)
            assert np.array_equal(start_rows(n, k, seeds), numpy_choice(n, k, seeds))

    def test_more_than_2_32_rows_are_refused_at_once(self):
        # the draws are 32-bit: past 2**32 rows a bounded draw would redo forever
        with pytest.raises(ValueError, match=r"at most 2\*\*32 rows, got 4294967306"):
            start_rows(2**32 + 10, 3, [0])

    def test_2_32_rows_are_numpys_choice(self):
        seeds = [0, 1, 2**70]
        assert np.array_equal(start_rows(2**32, 3, seeds), numpy_choice(2**32, 3, seeds))

    # seeds whose draws hit Lemire's rejection: Floyd's second draw at
    # n = 2**22 + 1 redraws for about 1 seed in 1000 (seeds 2291 and
    # 2737), the tail shuffle at n = k = 20000 for about 1 in 40 (seed 63)
    @pytest.mark.parametrize("n, k, seeds", [(2**22 + 1, 2, [2290, 2291, 2292, 2737]), (20000, 20000, [63])])
    def test_lemire_redraws(self, monkeypatch, n, k, seeds):
        words = []  # next_uint32 calls of each bounded draw
        bounded, next32 = cluster._PCG64.bounded, cluster._PCG64._next32

        def counting_bounded(self, high):
            words.append(0)
            return bounded(self, high)

        def counting_next32(self, who):
            words[-1] += 1
            return next32(self, who)

        monkeypatch.setattr(cluster._PCG64, "bounded", counting_bounded)
        monkeypatch.setattr(cluster._PCG64, "_next32", counting_next32)
        rows = start_rows(n, k, seeds)
        assert max(words) > 1
        assert np.array_equal(rows, numpy_choice(n, k, seeds))


class TestComplexRealBridge:
    @pytest.mark.parametrize("seed", range(5))
    def test_complex_and_interleaved_real_runs_are_identical(self, cars, seed):
        m = standardize(encode_dataset(cars, EncodeMode.COMBINED))
        as_real = np.stack([real_expansion(row) for row in m.data])
        a = kmeans(m.data, 3, seed=seed)
        b = kmeans(as_real, 3, seed=seed)
        assert np.array_equal(a.assignments, b.assignments)
        assert a.inertia == b.inertia
        assert a.iterations == b.iterations
        assert np.array_equal(real_expansion(a.centroids.ravel()), b.centroids.ravel())

    def test_random_matrices_agree_too(self):
        data = random_points(21, 18, 3)
        as_real = np.stack([real_expansion(row) for row in data])
        for seed in (0, 1, 2):
            a = kmeans(data, 4, seed=seed)
            b = kmeans(as_real, 4, seed=seed)
            assert np.array_equal(a.assignments, b.assignments)
            assert a.inertia == b.inertia


@st.composite
def count_stacks(draw):
    """An int64 (T, labels, clusters) stack with labels <= clusters <= 9:
    counts up to 1, 3 or 10**12 by table, so ties are common; some tables
    are all zero, and some repeat their first row."""
    clusters = draw(st.integers(1, 9))
    labels = draw(st.integers(1, clusters))
    kinds = draw(st.lists(st.sampled_from(["drawn", "zero", "tied"]), min_size=1, max_size=50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    high = rng.choice([1, 3, 10**12], size=(len(kinds), 1, 1))
    stack = rng.integers(0, high + 1, size=(len(kinds), labels, clusters), dtype=np.int64)
    for table, kind in zip(stack, kinds):
        if kind == "zero":
            table[:] = 0
        elif kind == "tied":
            table[:] = table[0]
    return stack


class TestPurity:
    def test_perfect_split(self):
        assert purity_accuracy([0, 0, 1, 1], ["A", "A", "B", "B"]) == 1.0
        assert purity_accuracy([1, 1, 0, 0], ["A", "A", "B", "B"]) == 1.0

    def test_partial_match(self):
        assignments = [0, 0, 0, 1, 1, 2, 2, 2, 2, 2]
        labels = ["A", "A", "B", "B", "B", "C", "C", "C", "A", "A"]
        assert purity_accuracy(assignments, labels) == pytest.approx(0.7)

    def test_injective_mapping_cannot_reuse_a_label(self):
        # both clusters are pure A; only one of them may claim the label
        assert purity_accuracy([0, 0, 1, 1], ["A", "A", "A", "A"]) == 0.5

    def test_more_labels_than_clusters_rejected(self):
        with pytest.raises(ValueError):
            purity_accuracy([0, 0], ["A", "B"])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            purity_accuracy([0, 1], ["A"])

    def test_matches_assignment_problem_oracle(self):
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(6, 300))
            n_clusters = int(rng.integers(2, 31))
            n_labels = int(rng.integers(2, n_clusters + 1))
            assignments = rng.integers(0, n_clusters, size=n).tolist()
            labels = [f"L{v}" for v in rng.integers(0, n_labels, size=n)]
            clusters = sorted(set(assignments))
            distinct = sorted(set(labels))
            if len(distinct) > len(clusters):
                continue
            table = np.zeros((len(clusters), len(distinct)))
            for a, l in zip(assignments, labels):
                table[clusters.index(a), distinct.index(l)] += 1
            rows, cols = linear_sum_assignment(table, maximize=True)
            want = table[rows, cols].sum() / n
            assert purity_accuracy(assignments, labels) == want

    def test_twelve_clusters_match_twelve_labels(self):
        assignments = [c for c in range(12) for _ in range(3)]
        labels = [f"L{(c * 5) % 12}" for c in assignments]
        assert purity_accuracy(assignments, labels) == 1.0

    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.sampled_from("ABCDEF")), min_size=1, max_size=40
        ),
        st.permutations(range(7)),
    )
    def test_equals_the_brute_force_oracle(self, pairs, perm):
        # few points over up to 7 x 6 cells: tied contingency counts are common
        assignments, labels = (list(t) for t in zip(*pairs))
        if len(set(labels)) > len(set(assignments)):
            return
        want = brute_force_purity(assignments, labels)
        assert purity_accuracy(assignments, labels) == want
        # relabelled cluster ids reorder the count table's columns only
        relabelled = [perm[a] for a in assignments]
        assert purity_accuracy(relabelled, labels) == brute_force_purity(relabelled, labels) == want

    @given(count_stacks(), st.sampled_from([None, 1, 2, 7]))
    # 3 x 3 tables whose augmenting paths take 1, 1, 1 / 1, 2, 2 / 1, 2, 3
    # steps for their three rows, side by side with an all-zero table
    @example(
        stack=np.array([
            [[5, 0, 0], [0, 5, 0], [0, 0, 5]],
            [[5, 4, 0], [5, 0, 3], [5, 1, 1]],
            [[9, 8, 7], [9, 8, 1], [9, 2, 1]],
            [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        ]),
        per=None,
    )
    def test_lockstep_matchings_equal_the_reference(self, stack, per):
        # per: tables one block holds (None: the default block)
        want = [reference_max_matching(table.tolist()) for table in stack]
        with pytest.MonkeyPatch.context() as mp:
            if per is not None:
                mp.setattr(coding, "_BLOCK_BYTES", 8 * stack.shape[1] * stack.shape[2] * per)
            assert cluster._max_matchings(stack).tolist() == want

    @given(
        st.lists(st.integers(0, 2), min_size=6, max_size=30),
        st.randoms(use_true_random=False),
    )
    def test_invariant_under_cluster_renumbering(self, assignments, rnd):
        labels = ["A" if a == 0 else "B" for a in assignments]
        if len(set(labels)) > len(set(assignments)):
            return
        base = purity_accuracy(assignments, labels)
        mapping = {c: i for i, c in enumerate(rnd.sample(range(3), 3))}
        renumbered = [mapping[a] for a in assignments]
        assert purity_accuracy(renumbered, labels) == pytest.approx(base)

    @given(st.lists(st.integers(0, 2), min_size=6, max_size=30))
    def test_invariant_under_label_renaming(self, assignments):
        labels = ["A" if a == 0 else "B" for a in assignments]
        if len(set(labels)) > len(set(assignments)):
            return
        renamed = [{"A": "xx", "B": "yy"}[l] for l in labels]
        assert purity_accuracy(assignments, renamed) == pytest.approx(
            purity_accuracy(assignments, labels)
        )


class TestBuckets:
    def test_edges_are_inclusive(self):
        got = bucket_accuracies([1.0, 0.9, 0.8999999, 0.8, 0.7, 0.65, 0.5, 0.49, 0.0])
        assert got == {"90": 2, "80": 2, "70": 1, "60": 1, "50": 1, "below": 2}

    def test_empty_input(self):
        assert bucket_accuracies([]) == {key: 0 for key in BUCKET_KEYS}

    @given(st.lists(st.floats(0, 1), max_size=50))
    def test_every_run_lands_in_exactly_one_bucket(self, accuracies):
        got = bucket_accuracies(accuracies)
        assert sum(got.values()) == len(accuracies)

    @given(
        st.lists(
            st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.9, 0.5, 0.8999999999999999])),
            max_size=50,
        ),
        st.booleans(),
    )
    @example(accuracies=[], as_array=False)
    @example(accuracies=[], as_array=True)
    def test_equals_the_loop_oracle(self, accuracies, as_array):
        # NaN reaches no threshold, so it counts as below
        if as_array:
            accuracies = np.array(accuracies, dtype=np.float64)
        assert bucket_accuracies(accuracies) == reference_bucket_accuracies(accuracies)


class TestSeedDerivation:
    def test_splitmix64_known_value(self):
        # first output of the reference generator seeded with 0
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_splitmix64_stays_in_64_bits(self):
        for x in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= splitmix64(x) < 2**64

    def test_run_seeds_are_distinct_across_the_grid(self):
        seeds = {
            derive_run_seed(m, c, r)
            for m in range(10)
            for c in range(4)
            for r in range(20)
        }
        assert len(seeds) == 10 * 4 * 20

    def test_array_of_run_indices_gives_the_scalar_seeds(self):
        runs = [*range(50), 2**63, 2**64 - 1]
        for master_seed, condition in ((0, 3), (9, 0), (2**64 - 1, 2**64 - 1)):
            want = [derive_run_seed(master_seed, condition, r) for r in runs]
            assert derive_run_seed(master_seed, condition, np.array(runs, dtype=np.uint64)).tolist() == want

    @pytest.mark.parametrize("kind", [np.uint64, np.int64, np.int8])
    def test_numpy_integer_scalars_give_the_int_seeds(self, kind):
        # the project's filterwarnings makes an overflow RuntimeWarning an error
        for args in ((5, 0, 0), (0, 3, 7), (127, 1, 100)):
            assert derive_run_seed(*map(kind, args)) == derive_run_seed(*args)
        assert derive_run_seed(kind(9), 2, np.array([0, 5], dtype=np.uint64)).tolist() == [
            derive_run_seed(9, 2, 0), derive_run_seed(9, 2, 5)]

    @pytest.mark.parametrize("args, name", [
        ((2**64, 0, 0), "master_seed"),
        ((-1, 0, 0), "master_seed"),
        ((np.int64(-1), 0, 0), "master_seed"),
        ((0, -1, 0), "condition_index"),
        ((0, 2**64, 0), "condition_index"),
        ((0, 0, -1), "run_index"),
        ((0, 0, 2**65 + 3), "run_index"),
    ])
    def test_rejects_arguments_outside_64_bits(self, args, name):
        # a 64-bit mask would run 2**64 as 0 and -1 as 2**64 - 1
        with pytest.raises(ValueError, match=f"{name} must be in"):
            derive_run_seed(*args)

    @pytest.mark.parametrize("dtype", [np.int64, np.float64, np.uint32, np.int8, object])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_rejects_arrays_that_are_not_uint64(self, dtype, at):
        # int64 overflowed and float64 failed in bitwise_xor, inside numpy
        args = [3, 1, 7]
        args[at] = np.array([0, 5], dtype=dtype)
        name = ("master_seed", "condition_index", "run_index")[at]
        with pytest.raises(ValueError, match=f"^{name} must be a uint64 array, got {np.dtype(dtype)}$"):
            derive_run_seed(*args)

    def test_every_coordinate_matters(self):
        base = derive_run_seed(3, 1, 7)
        assert derive_run_seed(4, 1, 7) != base
        assert derive_run_seed(3, 2, 7) != base
        assert derive_run_seed(3, 1, 8) != base
        assert derive_run_seed(3, 1, 7) == base


# values that repeat within a column, -0.0 beside 0.0, the smallest
# subnormal, and a float json writes in exponent form
REPORT_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e16, 0.1 + 0.2, 1 / 3, 1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def condition_columns(draw):
    """A ConditionResult of up to 12 runs, its columns drawn one by one."""
    runs = draw(st.integers(0, 12))

    def column(values):
        return tuple(draw(st.lists(values, min_size=runs, max_size=runs)))

    return ConditionResult(
        draw(st.text(max_size=6)),
        column(st.integers(0, 2**64 - 1)),
        column(REPORT_FLOATS),
        column(REPORT_FLOATS),
        column(st.integers(1, 100)),
    )


def tiny_labeled_dataset():
    schema = AttributeSchema.from_pairs([("x", "numeric"), ("y", "decision")])
    return Dataset(schema, ([0.0, 0.1, 10.0, 10.1], ["A", "A", "B", "B"]))


def colliding_labeled_dataset():
    """A numeric column named as the one-hot column of nominal a's token x."""
    schema = AttributeSchema.from_pairs([("a=x", "numeric"), ("a", "nominal"), ("y", "decision")])
    return Dataset(schema, ([1.0, 2.0, 3.0], ["x", "z", "x"], ["P", "Q", "P"]))


@st.composite
def block_tables(draw):
    """A small labeled table of numeric columns (±0.0, subnormal, huge or
    constant cells), nominal columns whose one-hot blocks vary in width, or
    both; a numeric column may take the name of a one-hot column."""
    n = draw(st.integers(1, 8))
    cells = {
        "plain": st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.1]), min_size=n, max_size=n),
        "constant": st.sampled_from([0.0, -0.0, 3.0]).map(lambda v: [v] * n),
        "extreme": st.lists(st.sampled_from([-0.0, 5e-324, 1e300, -1e300]), min_size=n, max_size=n),
    }
    kinds = st.sampled_from(["plain"] * 6 + ["constant", "extreme"])
    pairs, columns = [], []
    for j in range(draw(st.integers(0, 3))):
        pairs.append((draw(st.sampled_from([f"x{j}", "t=p"])) if j == 0 else f"x{j}", "numeric"))
        columns.append(draw(cells[draw(kinds)]))
    for name in ["t", "u"][: draw(st.integers(0 if pairs else 1, 2))]:
        pairs.append((name, "nominal"))
        columns.append(draw(st.lists(st.sampled_from("pqr"), min_size=n, max_size=n)))
    pairs.append(("y", "decision"))
    columns.append(draw(st.lists(st.sampled_from("AB"), min_size=n, max_size=n)))
    return Dataset(AttributeSchema.from_pairs(pairs), columns)


class TestConditionBlock:
    """run_experiment codes and scales each condition in one column-major
    block; it must be the transpose of the encode_dataset and standardize
    chain's matrix."""

    @given(block_tables(), st.one_of(st.none(), st.integers(100, 800)))
    @example(colliding_labeled_dataset(), None)
    @example(tiny_labeled_dataset(), None)
    def test_the_block_is_the_encode_and_standardize_chain(self, ds, block_bytes):
        # block_bytes: a block of a few hundred bytes (None: the default) for
        # the block alone, so that its _center takes many blocks and the
        # chain, at the default, shows the bytes do not rest on them
        books = {}  # shared by the modes, as the experiment shares it by its conditions
        for mode in EncodeMode:
            try:
                want = standardize(encode_dataset(ds, mode)).data.T
            except DataError as exc:
                want = exc
            with pytest.MonkeyPatch.context() as mp:
                if block_bytes is not None:
                    mp.setattr(coding, "_BLOCK_BYTES", block_bytes)
                if isinstance(want, DataError):
                    with pytest.raises(DataError, match=f"^{re.escape(str(want))}$"):
                        coding._scaled_block(ds, mode, books)
                    continue
                block = coding._scaled_block(ds, mode, books)
            assert block.dtype == want.dtype and block.shape == want.shape and block.flags.c_contiguous
            assert block.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_colliding_coded_column_names_refuse_the_experiment(self):
        with pytest.raises(DataError, match=r"^coded columns 1 and 2 are both named 'a=x'$"):
            run_experiment(colliding_labeled_dataset(), [EncodeMode.ONEHOT], repeats=1)
        assert run_experiment(colliding_labeled_dataset(), [EncodeMode.ADHOC], repeats=1).k == 2


class TestRunExperiment:
    def test_report_shape_on_cars(self, cars):
        report = run_experiment(cars, repeats=5, master_seed=0)
        assert report.k == 3
        assert report.repeats == 5
        assert tuple(c.name for c in report.conditions) == (
            "adhoc",
            "numeric",
            "nominal",
            "combined",
        )
        for c in report.conditions:
            assert len(c.seeds) == len(c.accuracies) == len(c.inertias) == len(c.iterations) == 5
            assert sum(c.buckets.values()) == 5
            assert c.buckets == bucket_accuracies(c.accuracies)
            for accuracy, inertia, iterations in zip(c.accuracies, c.inertias, c.iterations):
                assert 0.0 <= accuracy <= 1.0
                assert inertia >= 0.0
                assert iterations >= 1

    def test_run_seeds_follow_the_derivation(self, cars):
        report = run_experiment(cars, repeats=3, master_seed=9)
        for ci, c in enumerate(report.conditions):
            for ri, seed in enumerate(c.seeds):
                assert seed == derive_run_seed(9, ci, ri)

    def test_json_is_byte_identical_across_runs(self, cars):
        a = run_experiment(cars, repeats=4, master_seed=1).to_json()
        b = run_experiment(cars, repeats=4, master_seed=1).to_json()
        assert a == b

    def test_json_document_round_trips(self, cars):
        report = run_experiment(cars, repeats=2, master_seed=0)
        doc = json.loads(report.to_json())
        assert doc == json.loads(reference_report_json(report))
        assert doc["rng"]["generator"].startswith("numpy.random.default_rng")

    @pytest.mark.parametrize("master_seed", [0, 7, 2**64 - 1])
    def test_json_writer_matches_json_dumps(self, cars, master_seed):
        report = run_experiment(cars, conditions=list(EncodeMode), repeats=6, master_seed=master_seed)
        assert report.to_json() == reference_report_json(report)

    def test_json_writer_edge_values_and_empty_lists(self):
        runs = ((2**64 - 1, 0, 3), (1.0, 0.1 + 0.2, 1 / 3), (5e-324, 1e16, -0.0), (1, 100, 7))
        conditions = (ConditionResult('odd "name" \\ \u00e9\n', *runs), ConditionResult("none", (), (), (), ()))
        for report in (ExperimentReport(3, 3, 2, conditions), ExperimentReport(0, 1, 1, ())):
            assert report.to_json() == reference_report_json(report)

    @given(st.lists(condition_columns(), max_size=4), st.integers(0, 2**64 - 1), st.integers(1, 3))
    def test_json_writer_reads_any_columns_as_json_dumps_does(self, conditions, master_seed, k):
        report = ExperimentReport(master_seed, 12, k, tuple(conditions))
        assert report.to_json() == reference_report_json(report)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_json_writer_refuses_non_finite_numbers(self, bad):
        for accuracy, inertia in ((bad, 1.0), (0.5, bad)):
            report = ExperimentReport(0, 1, 2, (ConditionResult("c", (1,), (accuracy,), (inertia,), (1,)),))
            with pytest.raises(ValueError, match="cannot be written as a JSON number"):
                report.to_json()

    def test_table_lists_condition_labels(self, cars):
        report = run_experiment(cars, repeats=2, master_seed=0)
        table = report.render_table()
        assert "Numeric + ad hoc integer codes" in table
        assert "Numeric only" in table
        assert "Coded nominal only" in table
        assert "Numeric + coded nominal" in table
        assert ">=90%" in table and "<50%" in table

    def test_table_gives_each_mode_its_own_label(self, cars):
        report = run_experiment(cars, conditions=list(EncodeMode), repeats=1)
        labels = [line.split("  ")[0] for line in report.render_table().splitlines()[3:]]
        assert len(labels) == len(set(labels)) == 6

    def test_table_of_an_empty_report(self):
        assert ExperimentReport(0, 1, 1, ()).render_table() == (
            "Accuracy of 1 clustering runs per condition (count of runs by highest threshold reached)\n"
            "Condition  >=90%  >=80%  >=70%  >=60%  >=50%   <50%\n"
            "---------------------------------------------------\n"
        )

    def test_table_widens_a_column_for_a_six_digit_count(self):
        runs = ((0,) * 100000 + (1,), (0.95,) * 100000 + (0.4,), (1.0,) * 100001, (1,) * 100001)
        table = ExperimentReport(0, 100001, 2, (ConditionResult("adhoc", *runs),)).render_table()
        _, header, dashes, row = table.splitlines()
        assert len(header) == len(dashes) == len(row)
        assert header == "Condition                        >=90%  >=80%  >=70%  >=60%  >=50%   <50%"
        assert row == "Numeric + ad hoc integer codes  100000      -      -      -      -      1"

    def test_conditions_may_be_given_by_value(self, cars):
        modes = list(EncodeMode)
        want = run_experiment(cars, conditions=modes, repeats=2, master_seed=4).to_json()
        assert run_experiment(cars, conditions=[m.value for m in modes], repeats=2, master_seed=4).to_json() == want
        with pytest.raises(ValueError, match="fourier"):
            run_experiment(cars, conditions=["combined", "fourier"], repeats=2)

    @pytest.mark.parametrize("master_seed", [np.int64(3), np.uint64(3), True])
    def test_report_holds_the_master_seed_as_an_int(self, cars, master_seed):
        report = run_experiment(cars, repeats=2, master_seed=master_seed)
        assert type(report.master_seed) is int
        want = run_experiment(cars, repeats=2, master_seed=int(master_seed)).to_json()
        assert report.to_json() == want
        assert json.loads(want)["master_seed"] == int(master_seed)

    def test_trivially_separable_data_scores_one(self):
        report = run_experiment(
            tiny_labeled_dataset(), conditions=[EncodeMode.NUMERIC], repeats=1
        )
        assert report.k == 2
        assert report.conditions[0].accuracies[0] == 1.0

    def test_needs_a_decision_column(self):
        schema = AttributeSchema.from_pairs([("x", "numeric")])
        ds = Dataset(schema, ([0.0, 1.0],))
        with pytest.raises(DataError):
            run_experiment(ds)

    def test_rejects_bad_repeats(self, cars):
        with pytest.raises(ValueError):
            run_experiment(cars, repeats=0)
        for repeats in (True, 2.0):
            with pytest.raises(ValueError, match="repeats must be an integer"):
                run_experiment(cars, repeats=repeats)

    @pytest.mark.parametrize("master_seed", [-1, 2**64, 2**64 + 3])
    def test_rejects_master_seeds_outside_64_bits(self, cars, master_seed):
        # run seeds mix the master seed as a 64-bit word, so 2**64 would run as 0
        with pytest.raises(ValueError, match="master_seed"):
            run_experiment(cars, repeats=1, master_seed=master_seed)

    def test_rejects_empty_conditions(self, cars):
        with pytest.raises(ValueError):
            run_experiment(cars, conditions=[])

    @pytest.mark.parametrize("conditions", [["nominal", "nominal"], [EncodeMode.COMBINED, "adhoc", "combined"]])
    def test_rejects_a_repeated_condition(self, cars, conditions):
        with pytest.raises(ValueError, match="each condition may be given once"):
            run_experiment(cars, conditions=conditions)

    def test_default_conditions_are_the_four_comparisons(self):
        assert DEFAULT_CONDITIONS == (
            EncodeMode.ADHOC,
            EncodeMode.NUMERIC,
            EncodeMode.NOMINAL,
            EncodeMode.COMBINED,
        )
