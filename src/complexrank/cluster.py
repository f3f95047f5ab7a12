"""Lloyd k-means over complex coordinates, purity scoring, experiments.

Complex matrices are clustered through their interleaved real view, so a
D-dimensional complex problem is literally the 2D-dimensional real one;
assignments, centroids, and inertia come out identical either way. The
experiment harness re-runs clustering under several encodings of the same
dataset and buckets purity accuracy into a compact summary table; the
restarts of one encoding run side by side in one Lloyd loop, each with the
result it would have alone.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coding import _BLOCK_BYTES, CodedMatrix, EncodeMode, encode_dataset, standardize
from .dataset import DataError, Dataset, factorize
from .space import real_expansion

RNG_NOTE = "numpy.random.default_rng (PCG64)"
SEED_NOTE = "splitmix64 chain over (master_seed, condition_index, run_index)"

_M64 = (1 << 64) - 1
_M32 = (1 << 32) - 1

# _BLOCK_BYTES counts a block of (restart, row) pairs as their n x k x d
# broadcast. It bounds each exact chunk's scratch and each screening matrix
# product: one product over all 30,000 rows of a benchmark table made OpenBLAS
# allocate thread buffers (7-9 MB more peak RSS). Small enough to stay in
# cache, large enough to amortize the calls.

_MAX_ITERATIONS = 100


def splitmix64(x: int) -> int:
    """One step of the splitmix64 mixing function (public domain constants).

    x is a Python int or a uint64 array, which is mixed element by element.
    """
    x = (x + 0x9E3779B97F4A7C15) & _M64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def derive_run_seed(master_seed: int, condition_index: int, run_index: int) -> int:
    """Deterministic per-run seed, decorrelated across conditions and runs.

    Each argument is an integer in [0, 2**64), since the chain mixes
    them as 64-bit words; a uint64 array of run indices gives the array
    of their seeds.
    """
    words = []
    for name, value in zip(("master_seed", "condition_index", "run_index"), (master_seed, condition_index, run_index)):
        if not isinstance(value, np.ndarray):
            # a numpy integer scalar would mix in fixed-width scalar arithmetic, which warns on wraparound
            value = operator.index(value)
            if not 0 <= value <= _M64:
                raise ValueError(f"{name} must be in [0, 2**64), got {value}")
        words.append(value)
    master_seed, condition_index, run_index = words
    s = splitmix64(master_seed)
    s = splitmix64(s ^ condition_index)
    return splitmix64(s ^ run_index)


@dataclass(frozen=True, eq=False)
class ClusteringResult:
    assignments: np.ndarray
    centroids: np.ndarray
    inertia: float
    iterations: int
    converged: bool  # assignments repeated before max_iterations ran out
    reseeds: int  # empty clusters restarted on a farthest point


def _count(name: str, value: int) -> None:
    """Refuse a count that is not an int (a bool is none) of at least 1."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def _working_view(data: np.ndarray) -> tuple[np.ndarray, bool]:
    """Real matrix the algorithm actually runs on, plus a complex flag."""
    a = np.asarray(data)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-dimensional matrix, got shape {a.shape}")
    if np.iscomplexobj(a):
        return real_expansion(a), True
    return np.ascontiguousarray(a, dtype=np.float64), False


# numpy's SeedSequence hash constants, and the low and high words of the
# 128-bit multiplier of PCG64's LCG
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_LO, _PCG_HI = 0x4385DF649FCCF645, 0x2360ED051FC65DA4


def _hasher(const: int, mult: int):
    """SeedSequence's running hash of uint32 arrays; the constant steps on every call."""
    def hash_(v):
        nonlocal const
        v = v ^ const
        const = const * mult & _M32
        v = v * const
        return v ^ v >> 16
    return hash_


def _mix(x, y):
    """SeedSequence's mix of two uint32 arrays."""
    v = x * _MIX_L - y * _MIX_R
    return v ^ v >> 16


class _PCG64:
    """numpy's PCG64(SeedSequence(s)), one stream per seed s, run as arrays.

    The seeding, the 128-bit LCG with XSL-RR output and next_uint32 are
    those of numpy 2.x (O'Neill 2014), on 64-bit words.
    """

    def __init__(self, seeds: list[int]):
        # the seed's 32-bit words, low first, hash into a pool of four; a
        # zero word hashes as a missing one does, so only the words past
        # the fourth depend on how many words a seed has
        counts = np.array([(s.bit_length() + 31) // 32 for s in seeds])
        width = max(4, counts.max())
        words = np.frombuffer(b"".join(s.to_bytes(4 * width, "little") for s in seeds), "<u4")
        words = words.reshape(-1, width).T.astype(np.uint32)
        hashmix = _hasher(_INIT_A, _MULT_A)
        pool = [hashmix(w) for w in words[:4]]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for src in range(4, width):
            for dst in range(4):
                pool[dst] = np.where(counts > src, _mix(pool[dst], hashmix(words[src])), pool[dst])
        # generate_state(4, np.uint64): the pool hashed out twice, paired
        # into 64-bit words low half first
        out = _hasher(_INIT_B, _MULT_B)
        state = [out(pool[i % 4]).astype(np.uint64) for i in range(8)]
        init_hi, init_lo, seq_hi, seq_lo = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
        # pcg64_set_seed: inc = 2 seq + 1; a step from state 0 gives inc,
        # the initial state is added, and the LCG steps once more
        self.inc_hi, self.inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
        self.lo = self.inc_lo + init_lo
        self.hi = self.inc_hi + init_hi + (self.lo < init_lo)
        self.every = np.arange(len(seeds))
        self.buffered = np.zeros(len(seeds), dtype=bool)
        self.high_half = np.zeros(len(seeds), dtype=np.uint64)
        self._next64(self.every)

    def _next64(self, who: np.ndarray) -> np.ndarray:
        """Step the streams `who` (state * multiplier + inc) and return their outputs."""
        hi, lo = self.hi[who], self.lo[who]
        # the high word of lo * _PCG_LO, from 32-bit pieces
        a0, a1, b0, b1 = lo & _M32, lo >> 32, _PCG_LO & _M32, _PCG_LO >> 32
        cross0, cross1 = a0 * b1, a1 * b0
        carry = ((a0 * b0 >> 32) + (cross0 & _M32) + (cross1 & _M32)) >> 32
        hi = a1 * b1 + (cross0 >> 32) + (cross1 >> 32) + carry + lo * _PCG_HI + hi * _PCG_LO
        lo = lo * _PCG_LO + self.inc_lo[who]
        hi += self.inc_hi[who] + (lo < self.inc_lo[who])
        self.hi[who], self.lo[who] = hi, lo
        x, turn = hi ^ lo, hi >> 58  # XSL-RR: xor the halves, rotate right
        return x >> turn | x << (64 - turn & 63)

    def _next32(self, who: np.ndarray) -> np.ndarray:
        """next_uint32 of the streams `who`: a new output's low half, else the buffered high half."""
        buffered = self.buffered[who]
        fresh = who[~buffered]
        out = self.high_half[who]
        word = self._next64(fresh)
        out[~buffered] = word & _M32
        self.high_half[fresh] = word >> 32
        self.buffered[who] = ~buffered
        return out

    def bounded(self, high: int) -> np.ndarray:
        """One draw in [0, high] per stream by Lemire's method; high = 0 takes no word."""
        span = high + 1
        threshold = (2**32 - span) % span
        m = self._next32(self.every) * span if high else np.zeros(len(self.every), dtype=np.uint64)
        redo = np.flatnonzero(m & _M32 < threshold)
        while redo.size:
            m[redo] = self._next32(redo) * span
            redo = redo[m[redo] & _M32 < threshold]
        return (m >> 32).astype(np.intp)


def _start(work: np.ndarray, k: int, seeds: list[int]) -> np.ndarray:
    """(restarts, k, d) starting centroids: k distinct random rows per seed.

    Seed s picks the rows of np.random.default_rng(s).choice(n, k,
    replace=False) under numpy 2.x, in that order; all seeds draw at once.
    """
    n = len(work)
    rng = _PCG64(seeds)
    at = rng.every
    if n > 10000 and k > n // 50:
        # numpy shuffles the tail of arange(n); its last k entries are the rows
        rows, first = np.tile(np.arange(n), (len(at), 1)), max(n - k, 1)
    else:
        # Floyd's algorithm: a draw in [0, j] already taken takes j instead;
        # the k picks are then shuffled
        rows, first = np.empty((len(at), k), dtype=np.intp), 1
        for t, j in enumerate(range(n - k, n)):
            v = rng.bounded(j)
            rows[:, t] = np.where((rows[:, :t] == v[:, None]).any(axis=1), j, v)
    for i in range(rows.shape[1] - 1, first - 1, -1):  # Fisher-Yates, from the end
        j = rng.bounded(i)
        rows[at, i], rows[at, j] = rows[at, j], rows[at, i]
    return work[rows[:, -k:]]


def kmeans(
    data: np.ndarray | CodedMatrix,
    k: int,
    seed: int = 0,
    max_iterations: int = _MAX_ITERATIONS,
    *,
    initial_centroids: np.ndarray | None = None,
) -> ClusteringResult:
    """Lloyd's algorithm with k distinct random rows as starting centroids.

    Points go to the nearest centroid, ties to the lowest cluster index,
    and centroids move to the arithmetic mean of their members. A cluster
    that empties is restarted on the point currently farthest from its
    own centroid. The loop stops when assignments repeat or after
    max_iterations passes. Everything is deterministic in (data, k, seed).

    seed is a non-negative int (a bool or a numpy integer too), and the
    starting rows are those of np.random.default_rng(seed).choice(n, k,
    replace=False), computed in this module.

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
    _count("k", k)
    if k > n:
        raise ValueError(f"k={k} exceeds the number of rows ({n})")
    _count("max_iterations", max_iterations)

    if initial_centroids is None:
        seed = operator.index(seed)  # numpy's seed rule: any int, bool or numpy integer
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        start = _start(work, k, [seed])
    else:
        init, init_complex = _working_view(initial_centroids)
        if init_complex != was_complex or init.shape != (k, work.shape[1]):
            raise ValueError("initial_centroids must be k rows matching the data layout")
        if not np.isfinite(init).all():
            raise DataError("initial_centroids has NaN or infinite cells; k-means needs a finite start")
        start = init[None]

    # finite data can still overflow float64 in a distance or a cluster
    # sum; the result is checked instead of warning mid-loop
    with np.errstate(over="ignore", invalid="ignore"):
        assignments, centroids, inertia, iterations, converged, reseeds = _lloyd(work, start, max_iterations)
    if not (np.isfinite(centroids).all() and np.isfinite(inertia[0])):
        raise DataError("k-means overflowed: the data is too large in modulus for float64 distances and means")
    centroids = centroids[0]
    if was_complex:
        centroids = centroids.view(np.complex128)
    centroids.flags.writeable = False
    assignments = assignments[0]
    assignments.flags.writeable = False
    return ClusteringResult(
        assignments, centroids, float(inertia[0]), int(iterations[0]),
        bool(converged[0]), int(reseeds[0]),
    )


def _lloyd(work: np.ndarray, centroids: np.ndarray, max_iterations: int) -> tuple[np.ndarray, ...]:
    """Lloyd's algorithm from each of R starts at once; `kmeans` is R = 1.

    work is the (n, d) real matrix and centroids the (R, k, d) starts.
    Each restart runs exactly as it would alone: the live restarts drop
    one as soon as its assignments repeat, and empty clusters are
    reseeded restart by restart. Returns per-restart assignments (R, n),
    centroids (R, k, d), inertia, iterations, converged and reseeds.

    Each step screens the argmin with |x|^2 - 2 x.c + |c|^2 from a matrix
    product and trusts it only where the gap to the runner-up exceeds a
    rounding bound; the other (restart, row) pairs, and every row of a
    restart that reseeds, get the per-pair arithmetic of one full
    n x k x d broadcast, so the results are that broadcast's bit for bit
    whatever the BLAS build or its summation order.
    """
    R, k, d = centroids.shape
    n = work.shape[0]
    centroids = centroids.copy()
    assignments = np.empty((R, n), dtype=np.intp)
    iterations = np.zeros(R, dtype=np.intp)
    converged = np.zeros(R, dtype=bool)
    reseeds = np.zeros(R, dtype=np.intp)
    # the bincount update reads each dimension as one contiguous column;
    # for d = 1 a cluster's mean sums its contiguous column pairwise,
    # which a bincount would not reproduce, so d = 1 keeps the mean
    columns = np.ascontiguousarray(work.T) if d > 1 else None
    # the screen takes one matrix product per block of rows over all live
    # restarts; rows are the outer axis, so a block is one contiguous slice
    sq = np.einsum("nd,nd->n", work, work)
    x_max = math.sqrt(sq.max())  # inf if a squared norm overflows
    block = max(1, _BLOCK_BYTES // max(1, 8 * k * d))
    buffer = np.empty(n * R * k)
    live = np.arange(R)
    for step in range(max_iterations):
        m = live.size
        cents = centroids[live]
        rows = max(1, block // m)  # one row of every live restart at least
        screen = buffer[: n * m * k].reshape(n, m, k)
        flat = cents.reshape(m * k, d).T
        for s in range(0, n, rows):
            np.matmul(work[s : s + rows], flat, out=screen[s : s + rows].reshape(-1, m * k))
        c_sq = np.einsum("mkd,mkd->mk", cents, cents)
        screen *= -2.0
        screen += sq[:, None, None]
        screen += c_sq
        new = screen.argmin(axis=2).T  # (m, n)
        if k > 1:
            # the screen and the exact per-pair einsum each lie within
            # 2 gamma_(d+3) (|x| + |c|)^2 of the true squared distance, in
            # any summation order, plus what underflow (to subnormals or to
            # zero) loses; a gap above twice err makes the screen's argmin
            # the strict minimum of the exact distances. That holds only where
            # nothing overflowed; every screened term is below r^2 in modulus
            # (|2 x.c| by half), so 2 r^2 overflows wherever one of them
            # could, err is then inf and every pair is unsure. A NaN gap is
            # unsure too, hence the negated test
            r = x_max + math.sqrt(c_sq.max())
            err = 2 * (d + 4) * (2 * r * r * 2.0**-52 + 2.0**-1020)
            screen.partition(1, axis=2)  # in place: the two smallest of each pair first
            pts, at = np.nonzero(~(screen[:, :, 1] - screen[:, :, 0] > 2 * err))
            if pts.size:
                new[at, pts] = _exact_d2(work, pts, cents, at, block).argmin(axis=1)
        iterations[live] += 1

        offsets = (np.arange(m) * k)[:, None]
        sizes = np.bincount((new + offsets).ravel(), minlength=m * k).reshape(m, k)
        for i in np.flatnonzero((sizes == 0).any(axis=1)):
            # the farthest-point reseed reads exact distances of every row
            own = new[i]
            point_d2 = _exact_d2(work, np.arange(n), cents, np.full(n, i), block)[np.arange(n), own]
            # a restart only takes a point from a cluster of size > 1, so it
            # never empties a cluster and the empty set found here stays exact
            for c in np.flatnonzero(sizes[i] == 0):
                # restart the empty cluster on the farthest point whose own
                # cluster can spare it
                eligible = np.bincount(own, minlength=k)[own] > 1
                p = int(np.argmax(np.where(eligible, point_d2, -np.inf)))
                own[p] = c
                cents[i, c] = work[p]
                point_d2[p] = 0.0
                reseeds[live[i]] += 1

        # a restart whose assignments repeat stops with its centroids as
        # they stand, reseeds included; the others move to their means
        done = (new == assignments[live]).all(axis=1) if step else np.zeros(m, dtype=bool)
        converged[live[done]] = True
        centroids[live[done]] = cents[done]
        moving = ~done
        live, new, cents = live[moving], new[moving], cents[moving]
        m = live.size
        if not m:
            break
        assignments[live] = new
        if columns is None:
            for i in range(m):
                for c in range(k):
                    cents[i, c] = work[new[i] == c].mean(axis=0)
        else:
            cents = _bincount_means(columns, (new + offsets[:m]).ravel(), m, k)
        centroids[live] = cents
    del columns  # before the inertia step, whose gathered rows are the second n x d array

    diff = centroids[np.arange(R)[:, None], assignments]
    np.subtract(work, diff, out=diff)
    inertia = np.einsum("rnd,rnd->r", diff, diff)
    return assignments, centroids, inertia, iterations, converged, reseeds


def _exact_d2(work: np.ndarray, pts: np.ndarray, cents: np.ndarray, at: np.ndarray, block: int) -> np.ndarray:
    """(p, k) squared distances of rows pts to the k centroids of restarts at.

    The per-pair arithmetic of one full n x k x d broadcast, bit for bit,
    in chunks of `block` pairs.
    """
    out = np.empty((pts.size, cents.shape[1]))
    for s in range(0, pts.size, block):
        diff = work[pts[s : s + block], None, :] - cents[at[s : s + block]]
        np.einsum("pkd,pkd->pk", diff, diff, out=out[s : s + block])
    return out


def _bincount_means(columns: np.ndarray, key: np.ndarray, restarts: int, k: int) -> np.ndarray:
    """(restarts, k, d) cluster means from the (d, n) transposed working matrix.

    key holds restart * k + cluster for every (restart, row) pair,
    restart-major. Each sum adds a cluster's rows in row order, as
    mean(axis=0) does on the (rows, d) member matrix, so the bytes are
    the same for d >= 2.
    """
    weights = columns if restarts == 1 else np.tile(columns, restarts)
    sums = np.stack([np.bincount(key, weights=w, minlength=restarts * k) for w in weights], axis=1)
    means = sums / np.bincount(key, minlength=restarts * k)[:, None]
    return means.reshape(restarts, k, len(columns))


def purity_accuracy(assignments: Sequence[int], labels: Sequence[str]) -> float:
    """Fraction of points whose cluster maps to their true label.

    The mapping is the injective cluster-to-label one that matches the
    most points, so two clusters never claim the same label; it is solved
    exactly as an assignment problem on the label x cluster count table,
    for any number of clusters.
    """
    cluster_codes, clusters = factorize(assignments)
    label_codes, distinct = factorize(labels)
    if len(cluster_codes) != len(label_codes):
        raise ValueError(f"length mismatch: {len(cluster_codes)} assignments, {len(label_codes)} labels")
    if not len(cluster_codes):
        raise ValueError("purity_accuracy() needs at least one point")
    if len(distinct) > len(clusters):
        raise ValueError(
            f"{len(distinct)} labels cannot be matched injectively to {len(clusters)} clusters"
        )
    return _purities(cluster_codes[None], label_codes, len(distinct), len(clusters))[0]


def _purities(assignments: np.ndarray, labels: np.ndarray, n_labels: int, n_clusters: int) -> list[float]:
    """purity_accuracy of each row of (R, n) cluster codes against label codes.

    The R label x cluster count tables come from one bincount, and each
    distinct table is matched once.
    """
    R, n = assignments.shape
    key = (np.arange(R)[:, None] * n_labels + labels) * n_clusters + assignments
    tables = np.bincount(key.ravel(), minlength=R * n_labels * n_clusters)
    best: dict[bytes, int] = {}
    out = []
    for table in tables.reshape(R, n_labels, n_clusters):
        t = table.tobytes()
        if t not in best:
            best[t] = _max_matching(table.tolist())
        out.append(best[t] / n)
    return out


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
    "complex": "Numeric + coded nominal (complex)",
    "onehot": "Numeric + one-hot indicators",
}


# a condition and a run as json.dumps(indent=2) writes them inside
# "conditions" and "runs"
_JSON_CONDITION = '    {\n      "name": %s,\n      "runs": %s,\n      "buckets": %s\n    }'
_JSON_RUN = (
    '        {\n          "seed": %d,\n          "accuracy": %s,\n'
    '          "inertia": %s,\n          "iterations": %d\n        }'
)


def _json_list(items: list[str], indent: str) -> str:
    """A JSON array of already written items, closed at `indent`."""
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


def _json_float(x: float) -> str:
    """A float as json writes it; a non-finite value is no JSON number."""
    if not math.isfinite(x):
        raise ValueError(f"{x} cannot be written as a JSON number")
    return float.__repr__(x)


@dataclass(frozen=True)
class ExperimentReport:
    master_seed: int
    repeats: int
    k: int
    conditions: tuple[ConditionResult, ...]

    def to_json(self) -> str:
        """The report as JSON in `json.dumps(indent=2)` layout, newline-terminated.

        The object holds master_seed, repeats, k, rng (the generator and
        seed derivation notes) and conditions, each with its name, its
        runs (seed, accuracy, inertia, iterations) and its bucket counts.
        Each run is written through one template instead of json's
        encoder; a non-finite accuracy or inertia raises ValueError.
        """
        conditions = [
            _JSON_CONDITION % (
                json.dumps(c.name),
                _json_list([
                    _JSON_RUN % (r.seed, _json_float(r.accuracy), _json_float(r.inertia), r.iterations)
                    for r in c.runs
                ], "      "),
                json.dumps(c.buckets, indent=2).replace("\n", "\n      "),
            )
            for c in self.conditions
        ]
        # the head dump is a non-empty object: "{\n" + fields + "\n}"
        head = json.dumps({
            "master_seed": self.master_seed,
            "repeats": self.repeats,
            "k": self.k,
            "rng": {"generator": RNG_NOTE, "seed_derivation": SEED_NOTE},
        }, indent=2)[:-2]
        return f'{head},\n  "conditions": {_json_list(conditions, "  ")}\n}}\n'

    def render_table(self) -> str:
        """Accuracy bucket counts per condition, zeros shown as '-'."""
        # ">=90%" to ">=50%", then " <50%": counts sit in columns at least five wide
        header = ["Condition", *(f">={key}%" for key in BUCKET_KEYS[:-1]), f"<{BUCKET_KEYS[-2]}%".rjust(5)]
        rows = [
            [_CONDITION_LABELS.get(c.name, c.name), *(str(n) if n else "-" for n in c.buckets.values())]
            for c in self.conditions
        ]
        head, *body = _grid(header, rows, left=1)
        title = f"Accuracy of {self.repeats} clustering runs per condition (count of runs by highest threshold reached)"
        return "\n".join([title, head, "-" * len(head), *body]) + "\n"


def _grid(header: Sequence[str], rows: Sequence[Sequence[str]], left: int = 0) -> list[str]:
    """The lines of a text table from its header and rows of cells: each
    column as wide as its widest cell, two spaces apart, the first `left`
    columns left-justified and the others right-justified."""
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    justify = [str.ljust] * left + [str.rjust] * (len(widths) - left)
    return ["  ".join(j(cell, w) for j, cell, w in zip(justify, row, widths)) for row in (header, *rows)]


DEFAULT_CONDITIONS = (
    EncodeMode.ADHOC,
    EncodeMode.NUMERIC,
    EncodeMode.NOMINAL,
    EncodeMode.COMBINED,
)


def run_experiment(
    dataset: Dataset,
    conditions: Sequence[EncodeMode | str] = DEFAULT_CONDITIONS,
    repeats: int = 20,
    master_seed: int = 0,
) -> ExperimentReport:
    """Cluster one dataset repeatedly under several encodings and score purity.

    k is the number of distinct decision labels. Each condition, a distinct EncodeMode
    or its value, is encoded, standardized per column, and clustered `repeats`
    times from seeds derived deterministically from (master_seed, condition
    index, run index), so a report is reproducible byte for byte. The runs of a
    condition are clustered together in one batched Lloyd loop and each scored
    as kmeans and purity_accuracy would score it.
    """
    decision = dataset.schema.decision_column
    if decision is None:
        raise DataError("the experiment needs a decision column to score against")
    _count("repeats", repeats)
    conditions = [EncodeMode(mode) for mode in conditions]
    if not conditions:
        raise ValueError("at least one condition is required")
    if len(set(conditions)) < len(conditions):
        raise ValueError(f"each condition may be given once, got {[mode.value for mode in conditions]}")
    run_indices = np.arange(repeats, dtype=np.uint64)
    seeds = [derive_run_seed(master_seed, ci, run_indices).tolist() for ci in range(len(conditions))]
    label_codes, vocabulary = dataset.codes(decision.name)
    k = len(vocabulary)
    results = []
    for ci, mode in enumerate(conditions):
        work = real_expansion(standardize(encode_dataset(dataset, mode)).data)
        # restarts per batch: as many as one distance block holds, so the
        # distance scratch and the inertia step's temporaries stay within
        # _BLOCK_BYTES (a batch of one restart splits its rows into blocks)
        per = max(1, _BLOCK_BYTES // (8 * k * work.shape[1]) // len(work))
        runs = []
        for lo in range(0, repeats, per):
            batch = seeds[ci][lo : lo + per]
            assignments, _, inertia, iterations, _, _ = _lloyd(work, _start(work, k, batch), _MAX_ITERATIONS)
            accuracy = _purities(assignments, label_codes, k, k)
            runs += map(RunRecord, batch, accuracy, inertia.tolist(), iterations.tolist())
        results.append(ConditionResult(name=mode.value, runs=tuple(runs)))
    return ExperimentReport(
        master_seed=operator.index(master_seed),
        repeats=repeats,
        k=k,
        conditions=tuple(results),
    )
