import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from complexrank import cluster
from complexrank.cluster import BUCKET_KEYS, DEFAULT_CONDITIONS
from complexrank.dataset import AttributeSchema, Dataset
from .oracles import (
    broadcast_kmeans,
    brute_force_purity,
    exhaustive_kmeans_inertia,
    naive_kmeans_inertia,
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
        data[4, 1] = bad
        with pytest.raises(DataError, match="finite"):
            kmeans(data, 2, seed=0)

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


class TestBlockedDistances:
    """Row-blocked distances give the full broadcast's results bit for bit."""

    @pytest.fixture
    def four_row_blocks(self, monkeypatch):
        # k=3 centroids of d=4 real coordinates: 96 bytes of scratch per row
        monkeypatch.setattr(cluster, "_BLOCK_BYTES", 4 * 8 * 3 * 4)

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

    @pytest.mark.parametrize("seed", range(6))
    def test_duplicate_rows_tie_exactly(self, four_row_blocks, seed):
        base = np.random.default_rng(seed).integers(-2, 3, size=(5, 4)).astype(float)
        data = np.concatenate([base, base[::-1], base, base[:2]])
        assert_matches_broadcast_oracle(data, 3, seed=seed)

    def test_several_clusters_empty_in_one_step(self, four_row_blocks):
        data = random_points(8, 14, 4, complex_valued=False)
        init = np.array([[100.0] * 4, data[0], [-100.0] * 4])
        assert_matches_broadcast_oracle(data, 3, initial_centroids=init)

    @pytest.mark.parametrize("mode", [EncodeMode.COMBINED, EncodeMode.NOMINAL, EncodeMode.ONEHOT])
    def test_cars_matrices_with_one_row_blocks(self, monkeypatch, cars, mode):
        # standardized cars has duplicate rows and near ties; a GEMM-form
        # distance flips the argmin for some of these seeds (nominal mode)
        monkeypatch.setattr(cluster, "_BLOCK_BYTES", 1)
        m = standardize(encode_dataset(cars, mode))
        for seed in range(40):
            assert_matches_broadcast_oracle(m.data, 3, seed=seed)


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
        )
    )
    def test_equals_the_brute_force_oracle(self, pairs):
        # few points over up to 7 x 6 cells: tied contingency counts are common
        assignments, labels = (list(t) for t in zip(*pairs))
        if len(set(labels)) > len(set(assignments)):
            return
        assert purity_accuracy(assignments, labels) == brute_force_purity(assignments, labels)

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

    def test_every_coordinate_matters(self):
        base = derive_run_seed(3, 1, 7)
        assert derive_run_seed(4, 1, 7) != base
        assert derive_run_seed(3, 2, 7) != base
        assert derive_run_seed(3, 1, 8) != base
        assert derive_run_seed(3, 1, 7) == base


def tiny_labeled_dataset():
    schema = AttributeSchema.from_pairs([("x", "numeric"), ("y", "decision")])
    rows = ((0.0, "A"), (0.1, "A"), (10.0, "B"), (10.1, "B"))
    return Dataset(schema, rows)


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
            assert len(c.runs) == 5
            assert sum(c.buckets.values()) == 5
            assert c.buckets == bucket_accuracies(c.accuracies)
            for run in c.runs:
                assert 0.0 <= run.accuracy <= 1.0
                assert run.inertia >= 0.0
                assert run.iterations >= 1

    def test_run_seeds_follow_the_derivation(self, cars):
        report = run_experiment(cars, repeats=3, master_seed=9)
        for ci, c in enumerate(report.conditions):
            for ri, run in enumerate(c.runs):
                assert run.seed == derive_run_seed(9, ci, ri)

    def test_json_is_byte_identical_across_runs(self, cars):
        a = run_experiment(cars, repeats=4, master_seed=1).to_json()
        b = run_experiment(cars, repeats=4, master_seed=1).to_json()
        assert a == b

    def test_json_document_round_trips(self, cars):
        report = run_experiment(cars, repeats=2, master_seed=0)
        doc = json.loads(report.to_json())
        assert doc == report.to_json_dict()
        assert doc["rng"]["generator"].startswith("numpy.random.default_rng")

    def test_table_lists_condition_labels(self, cars):
        report = run_experiment(cars, repeats=2, master_seed=0)
        table = report.render_table()
        assert "Numeric + ad hoc integer codes" in table
        assert "Numeric only" in table
        assert "Coded nominal only" in table
        assert "Numeric + coded nominal" in table
        assert ">=90%" in table and "<50%" in table

    def test_trivially_separable_data_scores_one(self):
        report = run_experiment(
            tiny_labeled_dataset(), conditions=[EncodeMode.NUMERIC], repeats=1
        )
        assert report.k == 2
        assert report.conditions[0].runs[0].accuracy == 1.0

    def test_needs_a_decision_column(self):
        schema = AttributeSchema.from_pairs([("x", "numeric")])
        ds = Dataset(schema, ((0.0,), (1.0,)))
        with pytest.raises(DataError):
            run_experiment(ds)

    def test_rejects_bad_repeats(self, cars):
        with pytest.raises(ValueError):
            run_experiment(cars, repeats=0)

    def test_rejects_empty_conditions(self, cars):
        with pytest.raises(ValueError):
            run_experiment(cars, conditions=[])

    def test_default_conditions_are_the_four_comparisons(self):
        assert DEFAULT_CONDITIONS == (
            EncodeMode.ADHOC,
            EncodeMode.NUMERIC,
            EncodeMode.NOMINAL,
            EncodeMode.COMBINED,
        )
