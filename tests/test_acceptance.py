"""End-to-end acceptance checks, one test per contract point.

Each test prints a single PASS/FAIL line so a `pytest -s` run reads as a
checklist. Failures still fail pytest; the print is just the summary.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from complexrank import (
    EncodeMode,
    build_codebook,
    distance,
    encode_dataset,
    inner_product,
    kmeans,
    norm,
    ranks,
    real_expansion,
    run_experiment,
    standardize,
)
from complexrank.cli import main
from .oracles import exhaustive_kmeans_inertia


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE C{number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE C{number} ({name}): PASS")


def best_time(fn, repeats=5):
    fn()  # warm-up, excluded from timing
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_c1_tied_ranks():
    with criterion(1, "tied ranks"):
        distinct = [21, 28, 33, 44, 45, 54, 55, 60, 63, 76]
        tied = [21, 28, 44, 44, 44, 54, 55, 55, 55, 55]
        assert ranks(distinct) == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        assert ranks(tied) == [1, 2, 4, 4, 4, 6, 8.5, 8.5, 8.5, 8.5]
        elapsed = best_time(lambda: (ranks(distinct), ranks(tied)))
        assert elapsed < 1e-3, f"ranking took {elapsed * 1e3:.3f} ms"


def test_c2_distinct_frequency_codes_stay_real():
    with criterion(2, "distinct-frequency codes stay real"):
        cb = build_codebook(["a"] * 6 + ["b"] * 5 + ["c"] * 4)
        assert cb.entries["a"].value == 3.5 + 0j
        assert cb.entries["b"].value == 3.0 + 0j
        assert cb.entries["c"].value == 2.5 + 0j


def test_c3_equal_frequency_codes_spread_over_roots():
    with criterion(3, "equal-frequency codes spread over third roots"):
        cb = build_codebook(["a"] * 3 + ["b"] * 3 + ["c"] * 3 + ["d"] * 6)
        ranks_ = [cb.entries[t].rank for t in "abcd"]
        assert [r.modulus for r in ranks_] == [2.0, 2.0, 2.0, 3.5]
        assert [r.phase for r in ranks_] == [
            0.0,
            2 * math.pi / 3,
            2 * math.pi * 2 / 3,
            0.0,
        ]
        printed = [2 + 0j, -1 + 1.73j, -1 - 1.73j, 3.5 + 0j]
        for r, want in zip(ranks_, printed):
            assert abs(r.value - want) < 0.005


def test_c4_bundled_car_dataset_coded_cells(cars):
    with criterion(4, "bundled car dataset coded cells"):
        matrix = encode_dataset(cars, EncodeMode.COMBINED)
        assert matrix.column("Color").tolist() == [2, -2, -2, 2.5, 2.5, 2.5, 2.5, -2, 2, 2]
        assert matrix.column("Fuel").tolist() == [3, 2, 3, 3, 3, 2, 1.5, 3, 1.5, 2]
        assert matrix.column("Interior").tolist() == [
            3.5, 3.5, 2.5, 2.5, 3.5, 2.5, 3.5, 2.5, 3.5, 3.5,
        ]
        assert matrix.column("Wheel").tolist() == [
            3.5, 3.5, 2.5, 2.5, 3.5, 3.5, 3.5, 2.5, 3.5, 2.5,
        ]
        elapsed = best_time(lambda: encode_dataset(cars, EncodeMode.COMBINED))
        assert elapsed < 1e-2, f"encoding took {elapsed * 1e3:.2f} ms"


def test_c5_inner_product_space_properties():
    with criterion(5, "inner-product space properties"):
        rng = np.random.default_rng(20260818)
        for _ in range(1000):
            d = int(rng.integers(1, 9))
            x, y, z = (rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(3))
            alpha = complex(rng.normal(), rng.normal())
            beta = complex(rng.normal(), rng.normal())

            ip_xy = inner_product(x, y)
            assert abs(ip_xy - inner_product(y, x).conjugate()) <= 1e-12 * max(
                1.0, abs(ip_xy)
            )
            lhs = inner_product(alpha * x + beta * y, z)
            rhs = alpha * inner_product(x, z) + beta * inner_product(y, z)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))
            q = inner_product(x, x)
            assert abs(q.imag) <= 1e-12 * max(1.0, abs(q))
            assert q.real >= 0

            dxy, dyx = distance(x, y), distance(y, x)
            assert dxy >= 0
            assert abs(dxy - dyx) <= 1e-12 * max(1.0, dxy)
            assert distance(x, x) == 0.0
            assert dxy > 0  # x and y differ with probability 1
            rhs = distance(x, y) + distance(y, z)
            assert distance(x, z) <= rhs + 1e-10 * max(1.0, rhs)
            assert abs(norm(x) ** 2 - q.real) <= 1e-10 * max(1.0, q.real)


def test_c6_restarted_kmeans_matches_exhaustive_optimum():
    with criterion(6, "restarted k-means matches exhaustive optimum"):
        rng = np.random.default_rng(2026)
        t0 = time.perf_counter()
        for _ in range(20):
            n = int(rng.integers(4, 10))
            k = int(rng.integers(2, 4))
            d = int(rng.integers(1, 3))
            points = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
            best = min(kmeans(points, k, seed=s).inertia for s in range(50))
            want = exhaustive_kmeans_inertia(points, k)
            assert best == pytest.approx(want, rel=1e-9), (
                f"restarts reached {best}, optimum is {want}"
            )
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f} s"


def test_c7_complex_and_interleaved_real_clustering_agree(cars):
    with criterion(7, "complex and interleaved-real clustering agree"):
        m = standardize(encode_dataset(cars, EncodeMode.COMBINED))
        as_real = np.stack([real_expansion(row) for row in m.data])
        picker = np.random.default_rng(7)
        for trial in range(5):
            rows = picker.choice(m.n_rows, size=3, replace=False)
            a = kmeans(m.data, 3, initial_centroids=m.data[rows])
            b = kmeans(as_real, 3, initial_centroids=as_real[rows])
            assert np.array_equal(a.assignments, b.assignments)
            assert abs(a.inertia - b.inertia) <= 1e-9 * max(1.0, a.inertia)
        for seed in range(5):
            a = kmeans(m.data, 3, seed=seed)
            b = kmeans(as_real, 3, seed=seed)
            assert np.array_equal(a.assignments, b.assignments)
            assert abs(a.inertia - b.inertia) <= 1e-9 * max(1.0, a.inertia)


def test_c8_coded_nominal_beats_adhoc_across_seeds(cars):
    with criterion(8, "coded nominal beats ad hoc integers across seeds"):
        t0 = time.perf_counter()
        passes = 0
        details = []
        for master in range(10):
            report = run_experiment(cars, repeats=20, master_seed=master)
            by_name = {c.name: c.accuracies for c in report.conditions}
            adhoc, nominal = by_name["adhoc"], by_name["nominal"]
            combined = by_name["combined"]
            mean = lambda v: sum(v) / len(v)
            a = mean(nominal) > mean(adhoc) and mean(combined) > mean(adhoc)
            b = max(nominal) >= 0.8
            c = max(adhoc) <= max(nominal)
            passes += a and b and c
            details.append(
                f"seed {master}: means adhoc={mean(adhoc):.3f} "
                f"nominal={mean(nominal):.3f} combined={mean(combined):.3f}, "
                f"maxes adhoc={max(adhoc):.2f} nominal={max(nominal):.2f} "
                f"-> {'pass' if a and b and c else 'fail'}"
            )
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"seed sweep took {elapsed:.2f} s"
        assert passes >= 8, (
            f"only {passes}/10 master seeds satisfy the ordering:\n" + "\n".join(details)
        )


def test_c9_experiment_reports_are_byte_identical(capsys):
    with criterion(9, "experiment reports are byte-identical"):
        argv = ["experiment", "--json", "--repeats", "20", "--seed", "0"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.endswith("\n")
        json.loads(first)  # well-formed


def test_c10_coded_nominal_beats_numeric_only_across_seeds(cars):
    # the abstract's comparison, on C8's sweep: clustering with coded
    # nominal data, alone or beside the numeric data, against clustering
    # with the numeric data only
    with criterion(10, "coded nominal beats numeric only across seeds"):
        # each condition's rows placed right over its 20 runs, counted
        # exactly, so the tie at seed 6 (mean 0.680 each) is no float race
        n = len(cars.decision_labels())
        placed = []
        for master in range(10):
            report = run_experiment(cars, repeats=20, master_seed=master)
            placed.append({c.name: sum(round(a * n) for a in c.accuracies) for c in report.conditions})
        details = "\n".join(f"seed {s}: {p}" for s, p in enumerate(placed))
        assert all(p["nominal"] > p["numeric"] for p in placed), details
        assert all(p["combined"] >= p["numeric"] for p in placed), details
        assert sum(p["combined"] > p["numeric"] for p in placed) >= 9, details
