"""Independent reference computations the tests check the library against.

Everything here is deliberately written from first principles, without
calling into the package's own code paths, so a bug cannot hide on both
sides of a comparison.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def brute_force_inner(x, y) -> complex:
    """Elementwise sum of x_i * conj(y_i) using plain Python complex math."""
    assert len(x) == len(y)
    total = 0j
    for a, b in zip(x, y):
        total += complex(a) * complex(b).conjugate()
    return total


def two_pass_standardize(column):
    """Textbook two-pass mean then scatter, population denominator."""
    vals = [complex(v) for v in column]
    n = len(vals)
    mean = sum(vals) / n
    var = sum(abs(v - mean) ** 2 for v in vals) / n
    sigma = math.sqrt(var)
    return mean, sigma, [(v - mean) / sigma for v in vals]


def exhaustive_kmeans_inertia(points, k: int) -> float:
    """Global minimum of the k-means objective over every surjective assignment.

    Uses the identity: sum_i |x_i - mean(cluster_i)|^2 =
    sum_i |x_i|^2 - sum_c |sum(cluster_c)|^2 / |cluster_c|,
    evaluated for all k^n assignments at once, keeping the surjective ones.
    """
    pts = np.asarray(points, dtype=np.complex128)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    assert k ** n <= 4_000_000, "instance too large for exhaustive enumeration"
    codes = np.arange(k ** n)
    digits = (codes[:, None] // k ** np.arange(n)[None, :]) % k
    onehot = (digits[:, :, None] == np.arange(k)[None, None, :]).astype(float)
    counts = onehot.sum(axis=1)
    keep = (counts > 0).all(axis=1)
    sums = np.einsum("pnk,nd->pkd", onehot[keep], pts)
    sums_sq = (sums.real**2 + sums.imag**2).sum(axis=-1)
    total_sq = float((pts.real**2 + pts.imag**2).sum())
    costs = total_sq - (sums_sq / counts[keep]).sum(axis=1)
    return float(costs.min())


def naive_kmeans_inertia(points, k: int) -> float:
    """Same optimum as exhaustive_kmeans_inertia via the direct definition.

    Slow: only for cross-checking the vectorized oracle on tiny inputs.
    """
    pts = np.asarray(points, dtype=np.complex128)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    best = math.inf
    for assign in itertools.product(range(k), repeat=n):
        if len(set(assign)) != k:
            continue
        cost = 0.0
        a = np.array(assign)
        for c in range(k):
            members = pts[a == c]
            center = members.mean(axis=0)
            d = members - center
            cost += float((d.real**2 + d.imag**2).sum())
        best = min(best, cost)
    return best


def _root(j: int, k: int) -> complex:
    """exp(2*pi*i*j/k), exact on the four axis-aligned directions."""
    if (4 * j) % k == 0:
        return (1 + 0j, 1j, -1 + 0j, -1j)[(4 * j) // k]
    angle = 2.0 * math.pi * j / k
    return complex(math.cos(angle), math.sin(angle))


def codebook_oracle(tokens) -> dict:
    """Complex ranks token by token: a dict count, then tie groups in
    first-occurrence order. Maps each token to (n, j, k, value)."""
    counts: dict = {}
    for t in tokens:
        counts[t] = counts.get(t, 0) + 1
    groups: dict = {}
    for t, n in counts.items():
        groups.setdefault(n, []).append(t)
    out = {}
    for t, n in counts.items():
        j, k = groups[n].index(t), len(groups[n])
        out[t] = (n, j, k, (n + 1) / 2 * _root(j, k))
    return out


def encode_oracle(dataset, mode: str):
    """Encode a dataset cell by cell under a mode name.

    Returns (data, column names, codebooks, ad hoc codes) where each
    codebook is (attribute, codebook_oracle(...)).
    """
    names, cols, codebooks, adhoc = [], [], [], {}
    for c in dataset.schema.columns:
        role, cells = c.role.value, dataset.column(c.name)
        if role == "decision":
            continue
        if role == "numeric":
            if mode != "nominal":
                names.append(c.name)
                cols.append([complex(v) for v in cells])
        elif mode == "numeric":
            continue
        elif mode in ("combined", "complex", "nominal"):
            cb = codebook_oracle(cells)
            codebooks.append((c.name, cb))
            names.append(c.name)
            cols.append([cb[t][3] for t in cells])
        elif mode == "adhoc":
            codes = {t: float(i + 1) for i, t in enumerate(dict.fromkeys(cells))}
            adhoc[c.name] = codes
            names.append(c.name)
            cols.append([complex(codes[t]) for t in cells])
        elif mode == "onehot":
            for token in dict.fromkeys(cells):
                names.append(f"{c.name}={token}")
                cols.append([complex(float(t == token)) for t in cells])
    data = np.array(cols, dtype=np.complex128).T.reshape(dataset.n_rows, len(cols))
    return data, names, codebooks, adhoc


def brute_force_purity(assignments, labels) -> float:
    """Injective purity by trying every assignment of labels to clusters.

    Exponential in the number of clusters: only for small instances.
    """
    clusters = sorted(set(assignments))
    distinct = list(dict.fromkeys(labels))
    counts: dict = {}
    for a, l in zip(assignments, labels):
        counts[(a, l)] = counts.get((a, l), 0) + 1
    best = 0
    for chosen in itertools.permutations(clusters, len(distinct)):
        best = max(best, sum(counts.get((c, l), 0) for c, l in zip(chosen, distinct)))
    return best / len(assignments)


def broadcast_kmeans(data, k: int, seed: int = 0, max_iterations: int = 100, initial_centroids=None):
    """Lloyd k-means with every distance from one full n x k x d broadcast.

    Same rules as the library: k distinct random rows from
    default_rng(seed) or the given centroids as the start, complex data
    clustered through its interleaved real view, ties to the lowest
    cluster index, each empty cluster (in ascending order, found by its
    own scan) restarted on the farthest point whose cluster can spare
    it, and a stop when assignments repeat. Returns (assignments,
    centroids, inertia, iterations), centroids in the input's layout.
    """
    a = np.asarray(data)
    was_complex = np.iscomplexobj(a)
    if was_complex:
        work = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    else:
        work = np.ascontiguousarray(a, dtype=np.float64)
    n = work.shape[0]
    if initial_centroids is None:
        rows = np.random.default_rng(seed).choice(n, size=k, replace=False)
        centroids = work[rows].copy()
    else:
        init = np.asarray(initial_centroids)
        centroids = (init.astype(np.complex128).view(np.float64) if was_complex
                     else init.astype(np.float64)).copy()
    assignments = None
    iterations = 0
    for _ in range(max_iterations):
        iterations += 1
        diff = work[:, None, :] - centroids[None, :, :]
        d2 = np.einsum("nkd,nkd->nk", diff, diff)
        new = np.argmin(d2, axis=1)
        point_d2 = d2[np.arange(n), new]
        for c in range(k):
            if np.any(new == c):
                continue
            sizes = np.bincount(new, minlength=k)
            p = int(np.argmax(np.where(sizes[new] > 1, point_d2, -np.inf)))
            new[p] = c
            centroids[c] = work[p]
            point_d2[p] = 0.0
        if assignments is not None and np.array_equal(new, assignments):
            break
        assignments = new
        for c in range(k):
            centroids[c] = work[assignments == c].mean(axis=0)
    diff = work - centroids[assignments]
    inertia = float(np.einsum("nd,nd->", diff, diff))
    if was_complex:
        centroids = centroids.view(np.complex128)
    return assignments, centroids, inertia, iterations
