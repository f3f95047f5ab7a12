"""Lloyd k-means over complex coordinates, purity scoring, experiments.

Complex matrices are clustered through their interleaved real view, so a
D-dimensional complex problem is literally the 2D-dimensional real one;
assignments, centroids, and inertia come out identical either way. The
experiment harness re-runs clustering under several encodings of the same
dataset and buckets purity accuracy into a compact summary table.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coding import CodedMatrix, EncodeMode, encode_dataset
from .dataset import DataError, Dataset
from .space import real_expansion, standardize

RNG_NOTE = "numpy.random.default_rng (PCG64)"
SEED_NOTE = "splitmix64 chain over (master_seed, condition_index, run_index)"

_M64 = (1 << 64) - 1

# Bytes of broadcast scratch per block of rows in the k-means distance
# step; small enough to stay in cache, large enough to amortize the calls.
_BLOCK_BYTES = 2 << 20


def splitmix64(x: int) -> int:
    """One step of the splitmix64 mixing function (public domain constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def derive_run_seed(master_seed: int, condition_index: int, run_index: int) -> int:
    """Deterministic per-run seed, decorrelated across conditions and runs."""
    s = splitmix64(master_seed & _M64)
    s = splitmix64(s ^ (condition_index & _M64))
    s = splitmix64(s ^ (run_index & _M64))
    return s


@dataclass(frozen=True, eq=False)
class ClusteringResult:
    assignments: np.ndarray
    centroids: np.ndarray
    inertia: float
    iterations: int
    seed: int | None


def _working_view(data: np.ndarray) -> tuple[np.ndarray, bool]:
    """Real matrix the algorithm actually runs on, plus a complex flag."""
    a = np.asarray(data)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-dimensional matrix, got shape {a.shape}")
    if np.iscomplexobj(a):
        return real_expansion(a), True
    return np.ascontiguousarray(a, dtype=np.float64), False


def kmeans(
    data: np.ndarray | CodedMatrix,
    k: int,
    seed: int = 0,
    max_iterations: int = 100,
    *,
    initial_centroids: np.ndarray | None = None,
) -> ClusteringResult:
    """Lloyd's algorithm with k distinct random rows as starting centroids.

    Points go to the nearest centroid, ties to the lowest cluster index,
    and centroids move to the arithmetic mean of their members. A cluster
    that empties is restarted on the point currently farthest from its
    own centroid. The loop stops when assignments repeat or after
    max_iterations passes. Everything is deterministic in (data, k, seed).

    initial_centroids bypasses the random start, e.g. to resume from a
    previous result.
    """
    checked = isinstance(data, CodedMatrix)  # a CodedMatrix holds only finite cells
    if checked:
        data = data.data
    work, was_complex = _working_view(data)
    if not checked and not np.isfinite(work).all():
        raise DataError("k-means needs finite data; the matrix has NaN or infinite cells")
    n = work.shape[0]
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of rows ({n})")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be positive, got {max_iterations}")

    if initial_centroids is None:
        rng = np.random.default_rng(seed)
        start_rows = rng.choice(n, size=k, replace=False)
        centroids = work[start_rows].copy()
    else:
        init, init_complex = _working_view(initial_centroids)
        if init_complex != was_complex or init.shape != (k, work.shape[1]):
            raise ValueError("initial_centroids must be k rows matching the data layout")
        centroids = init.copy()

    # squared distances are filled block by block with the same per-row
    # arithmetic as one full n x k x d broadcast, so results match it bit
    # for bit while the scratch stays within _BLOCK_BYTES
    d2 = np.empty((n, k))
    block = max(1, _BLOCK_BYTES // max(1, 8 * k * work.shape[1]))
    assignments: np.ndarray | None = None
    iterations = 0
    for _ in range(max_iterations):
        iterations += 1
        for s in range(0, n, block):
            diff = work[s : s + block, None, :] - centroids[None, :, :]
            np.einsum("nkd,nkd->nk", diff, diff, out=d2[s : s + block])
        new_assignments = np.argmin(d2, axis=1)  # ties -> lowest index

        point_d2 = d2[np.arange(n), new_assignments]
        # a restart only takes a point from a cluster of size > 1, so it
        # never empties a cluster and the empty set found here stays exact
        for c in np.flatnonzero(np.bincount(new_assignments, minlength=k) == 0):
            # restart the empty cluster on the farthest point whose own
            # cluster can spare it
            sizes = np.bincount(new_assignments, minlength=k)
            eligible = sizes[new_assignments] > 1
            candidates = np.where(eligible, point_d2, -np.inf)
            p = int(np.argmax(candidates))
            new_assignments[p] = c
            centroids[c] = work[p]
            point_d2[p] = 0.0

        if assignments is not None and np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        for c in range(k):
            centroids[c] = work[assignments == c].mean(axis=0)

    assert assignments is not None
    diff = work - centroids[assignments]
    inertia = float(np.einsum("nd,nd->", diff, diff))
    if was_complex:
        centroids = centroids.view(np.complex128)
    centroids = centroids.copy()
    centroids.flags.writeable = False
    assignments = assignments.copy()
    assignments.flags.writeable = False
    return ClusteringResult(assignments, centroids, inertia, iterations, seed)


def purity_accuracy(assignments: Sequence[int], labels: Sequence[str]) -> float:
    """Fraction of points whose cluster maps to their true label.

    The mapping is the injective cluster-to-label one that matches the
    most points, so two clusters never claim the same label; it is solved
    exactly as an assignment problem on the label x cluster count table,
    for any number of clusters.
    """
    assign = list(assignments)
    labs = list(labels)
    if len(assign) != len(labs):
        raise ValueError(f"length mismatch: {len(assign)} assignments, {len(labs)} labels")
    if not assign:
        raise ValueError("purity_accuracy() needs at least one point")
    clusters = sorted(set(assign))
    distinct = list(dict.fromkeys(labs))
    counts: dict[tuple[int, str], int] = {}
    for a, l in zip(assign, labs):
        counts[(a, l)] = counts.get((a, l), 0) + 1
    if len(distinct) > len(clusters):
        raise ValueError(
            f"{len(distinct)} labels cannot be matched injectively to {len(clusters)} clusters"
        )
    table = [[counts.get((c, l), 0) for c in clusters] for l in distinct]
    return _max_matching(table) / len(assign)


def _max_matching(weights: list[list[int]]) -> int:
    """Largest total weight of a matching that gives every row its own column.

    The Hungarian method with shortest augmenting paths (Kuhn 1955;
    Jonker and Volgenant 1987) in O(rows^2 * columns), for rows <= columns.
    It runs on Python ints, so the optimum is exact, not rounded.
    """
    n_cols = len(weights[0])
    # potentials u (rows) and v (columns) of the dual, 1-based; column 0
    # is a sentinel and owner[j] is the row matched to column j (0: none)
    u = [0] * (len(weights) + 1)
    v = [0] * (n_cols + 1)
    owner = [0] * (n_cols + 1)
    way = [0] * (n_cols + 1)
    for i in range(1, len(weights) + 1):
        owner[0] = i
        j0 = 0
        slack = [math.inf] * (n_cols + 1)
        used = [False] * (n_cols + 1)
        while owner[j0]:
            used[j0] = True
            row, ui = weights[owner[j0] - 1], u[owner[j0]]
            delta, j1 = math.inf, 0
            for j in range(1, n_cols + 1):
                if not used[j]:
                    reduced = -row[j - 1] - ui - v[j]
                    if reduced < slack[j]:
                        slack[j], way[j] = reduced, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(n_cols + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:  # flip the alternating path back to the sentinel
            owner[j0] = owner[way[j0]]
            j0 = way[j0]
    return sum(weights[i - 1][j - 1] for j, i in enumerate(owner) if j and i)


ACCURACY_EDGES = (0.9, 0.8, 0.7, 0.6, 0.5)
BUCKET_KEYS = ("90", "80", "70", "60", "50", "below")


def bucket_accuracies(accuracies: Sequence[float]) -> dict[str, int]:
    """Count runs by the highest accuracy threshold they reach."""
    buckets = {key: 0 for key in BUCKET_KEYS}
    for a in accuracies:
        for edge, key in zip(ACCURACY_EDGES, BUCKET_KEYS):
            if a >= edge:
                buckets[key] += 1
                break
        else:
            buckets["below"] += 1
    return buckets


@dataclass(frozen=True)
class RunRecord:
    seed: int
    accuracy: float
    inertia: float
    iterations: int


@dataclass(frozen=True)
class ConditionResult:
    name: str
    runs: tuple[RunRecord, ...]

    @property
    def accuracies(self) -> list[float]:
        return [r.accuracy for r in self.runs]

    @property
    def buckets(self) -> dict[str, int]:
        return bucket_accuracies(self.accuracies)


_CONDITION_LABELS = {
    "adhoc": "Numeric + ad hoc integer codes",
    "numeric": "Numeric only",
    "nominal": "Coded nominal only",
    "combined": "Numeric + coded nominal",
    "complex": "Numeric + coded nominal",
    "onehot": "Numeric + one-hot indicators",
}


@dataclass(frozen=True)
class ExperimentReport:
    master_seed: int
    repeats: int
    k: int
    conditions: tuple[ConditionResult, ...]

    def to_json_dict(self) -> dict:
        return {
            "master_seed": self.master_seed,
            "repeats": self.repeats,
            "k": self.k,
            "rng": {"generator": RNG_NOTE, "seed_derivation": SEED_NOTE},
            "conditions": [
                {
                    "name": c.name,
                    "runs": [
                        {
                            "seed": r.seed,
                            "accuracy": r.accuracy,
                            "inertia": r.inertia,
                            "iterations": r.iterations,
                        }
                        for r in c.runs
                    ],
                    "buckets": c.buckets,
                }
                for c in self.conditions
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def render_table(self) -> str:
        """Accuracy bucket counts per condition, zeros shown as '-'."""
        headers = [">=90%", ">=80%", ">=70%", ">=60%", ">=50%", "<50%"]
        rows = []
        for c in self.conditions:
            label = _CONDITION_LABELS.get(c.name, c.name)
            buckets = c.buckets
            cells = [str(buckets[key]) if buckets[key] else "-" for key in BUCKET_KEYS]
            rows.append([label] + cells)
        name_width = max(len("Condition"), *(len(r[0]) for r in rows))
        widths = [max(len(h), 5) for h in headers]
        lines = [
            f"Accuracy of {self.repeats} clustering runs per condition "
            f"(count of runs by highest threshold reached)"
        ]
        header = "Condition".ljust(name_width) + "  " + "  ".join(
            h.rjust(w) for h, w in zip(headers, widths)
        )
        lines.append(header)
        lines.append("-" * len(header))
        for r in rows:
            lines.append(
                r[0].ljust(name_width)
                + "  "
                + "  ".join(cell.rjust(w) for cell, w in zip(r[1:], widths))
            )
        return "\n".join(lines) + "\n"


DEFAULT_CONDITIONS = (
    EncodeMode.ADHOC,
    EncodeMode.NUMERIC,
    EncodeMode.NOMINAL,
    EncodeMode.COMBINED,
)


def run_experiment(
    dataset: Dataset,
    conditions: Sequence[EncodeMode] = DEFAULT_CONDITIONS,
    repeats: int = 20,
    master_seed: int = 0,
) -> ExperimentReport:
    """Cluster one dataset repeatedly under several encodings and score purity.

    k is the number of distinct decision labels. Every condition is
    encoded, standardized per column, and clustered `repeats` times from
    seeds derived deterministically from (master_seed, condition index,
    run index), so a report is reproducible byte for byte.
    """
    labels = dataset.decision_labels()
    if labels is None:
        raise DataError("the experiment needs a decision column to score against")
    if repeats < 1:
        raise ValueError(f"repeats must be positive, got {repeats}")
    if not conditions:
        raise ValueError("at least one condition is required")
    k = len(set(labels))
    results = []
    for ci, mode in enumerate(conditions):
        matrix = standardize(encode_dataset(dataset, mode))
        runs = []
        for ri in range(repeats):
            seed = derive_run_seed(master_seed, ci, ri)
            result = kmeans(matrix, k, seed=seed)
            accuracy = purity_accuracy(result.assignments.tolist(), labels)
            runs.append(
                RunRecord(
                    seed=seed,
                    accuracy=accuracy,
                    inertia=result.inertia,
                    iterations=result.iterations,
                )
            )
        results.append(
            ConditionResult(
                name=mode.value,
                runs=tuple(runs),
            )
        )
    return ExperimentReport(
        master_seed=master_seed,
        repeats=repeats,
        k=k,
        conditions=tuple(results),
    )
