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
from itertools import chain
from typing import Sequence

import numpy as np

# encode_dataset and standardize are not called here, but the benchmark's
# trace wraps them under this module's names
from .coding import (  # noqa: F401
    CodedMatrix, EncodeMode, _scaled_block, _spans, _transpose_into, encode_dataset, standardize,
)
from .dataset import DataError, Dataset, factorize
from .space import real_expansion

RNG_NOTE = "numpy.random.default_rng (PCG64)"
SEED_NOTE = "splitmix64 chain over (master_seed, condition_index, run_index)"

_M64 = (1 << 64) - 1
_M32 = (1 << 32) - 1

_MAX_ITERATIONS = 100
_UNREACHED = 1 << 62  # a slack above any reduced cost of a count table


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


def _start(n: int, k: int, seeds: list[int]) -> np.ndarray:
    """(seeds, k) starting rows: k distinct rows of n per seed.

    Seed s picks the rows of np.random.default_rng(s).choice(n, k,
    replace=False) under numpy 2.x, in that order. The seeds draw side by
    side, as many at once as one block holds of the drawn rows (_spans).
    """
    if n > 2**32:
        raise ValueError(f"the random start draws 32-bit words, so from at most 2**32 rows, got {n}")
    tail = n > 10000 and k > n // 50
    out = np.empty((len(seeds), k), dtype=np.intp)
    for s in _spans(len(seeds), 8 * (n if tail else k)):
        rng = _PCG64(seeds[s])
        at = rng.every
        if tail:
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
        out[s] = rows[:, -k:]
    return out


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
        start = work[_start(n, k, [seed])]
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
        assignments, centroids, inertia, iterations, converged, reseeds = _lloyd(
            work, start, max_iterations, [_transpose_into(np.empty(work.shape[::-1]), work)])
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


def _lloyd(work: np.ndarray, centroids: np.ndarray, max_iterations: int,
           channels: list[np.ndarray]) -> tuple[np.ndarray, ...]:
    """Lloyd's algorithm from each of R starts at once; `kmeans` is R = 1.

    work is the (n, d) real matrix, centroids the (R, k, d) starts and
    channels a list holding work's channel rows, the C-order (d, n)
    transpose of work, which _lloyd pops, overwrites and frees before its
    inertia step. The caller keeps no other reference to them; an array
    passed as an argument would stay referenced by the calling frame until
    the call returns on Python 3.10.
    Each restart runs exactly as it would alone: the live restarts drop
    one as soon as its assignments repeat, and the restarts that emptied
    cluster c reseed it side by side, c in ascending order. Returns per-restart
    assignments (R, n), centroids (R, k, d), inertia, iterations, converged and reseeds.

    Each step screens the argmin with |x|^2 - 2 x.c + |c|^2, a (restart,
    centroid, row) matrix product, and trusts it only where the gap to the
    runner-up exceeds a rounding bound; the other (restart, row) pairs, and
    every row of a restart that reseeds against its own centroid, go
    through _exact_d2, the per-pair arithmetic of one full n x k x d
    broadcast, so the results are that broadcast's bit for bit whatever the
    BLAS build or its summation order. The product and the
    centroid update read only the channels that are nonzero in some row: a
    channel of ±0.0 cells adds exactly 0 to every x.c, and its bincount
    mean is +0.0. The exact distances, the reseeds and the inertia read
    every channel. Every pass over rows runs in _spans blocks of (restart,
    row) pairs, each counted as its k x d broadcast; d = 0 is a valid shape.
    """
    R, k, d = centroids.shape
    n = work.shape[0]
    centroids = centroids.copy()
    assignments = np.empty((R, n), dtype=np.intp)
    iterations = np.zeros(R, dtype=np.intp)
    converged = np.zeros(R, dtype=bool)
    reseeds = np.zeros(R, dtype=np.intp)
    # the product and the bincount update read each channel as one
    # contiguous row, its nonzero channels moved to the front; for d = 1 a
    # cluster's mean sums its contiguous column pairwise, which a bincount
    # would not reproduce, so d = 1 keeps the mean
    columns = channels.pop()
    nz = np.flatnonzero(columns.any(axis=1))
    for i, j in enumerate(nz):  # i <= j, so no row is overwritten before it moves
        if i != j:
            columns[i] = columns[j]
    columns = columns[: nz.size]
    weights = np.tile(columns, R) if R > 1 else columns  # its first m n columns serve m restarts
    # a block of rows is one column slice of the screen's product over all live restarts
    sq = np.einsum("nd,nd->n", work, work)
    x_max = math.sqrt(sq.max())  # inf if a squared norm overflows
    pair_bytes = 8 * k * d
    buffer, offsets = np.empty(R * k * n), (np.arange(R) * k)[:, None]
    # the live restarts' centroids and last assignments stay compact; a
    # restart's results are written back once, when it stops
    live, cents = np.arange(R), centroids
    for step in range(max_iterations):
        m = live.size
        screen = buffer[: m * k * n].reshape(m, k, n)
        c_sq = np.einsum("mkd,mkd->mk", cents, cents)
        flat = cents[:, :, nz].reshape(m * k, nz.size) * -2.0  # times a power of two, exactly
        for s in _spans(n, pair_bytes * m):  # one row of every live restart at least
            np.matmul(flat, columns[:, s], out=screen.reshape(m * k, n)[:, s])
        screen += sq
        screen += c_sq[:, :, None]
        # k - 1 passes along the rows for the nearest and the runner-up
        # values; a NaN reaches both
        nearest, second, runner = screen[:, 0].copy(), np.full((m, n), np.inf), np.empty((m, n))
        for c in range(1, k):
            np.minimum(second, np.maximum(nearest, screen[:, c], out=runner), out=second)
            np.minimum(nearest, screen[:, c], out=nearest)
        # the index: the sum of c over the centroids equal to the nearest,
        # in the narrowest unsigned type that holds k - 1; a tie (whose
        # sum may wrap) or a NaN (left at 0) is rechecked below
        index = np.min_scalar_type(k - 1).type
        new, hit = np.zeros((m, n), dtype=index), np.empty((m, n), dtype=bool)
        for c in range(1, k):
            new += np.equal(screen[:, c], nearest, out=hit).view(np.uint8) * index(c)
        new = new.astype(np.intp)
        # the screen and the exact per-pair einsum each lie within
        # 2 gamma_(d+3) (|x| + |c|)^2 of the true squared distance, in
        # any summation order, plus what underflow (to subnormals or to
        # zero) loses; a gap above twice err to the runner-up makes the
        # screen's argmin the strict minimum of the exact distances. That
        # holds only where nothing overflowed; every screened term is
        # below r^2 in modulus (|2 x.c| by half), so 2 r^2 overflows
        # wherever one of them could, err is then inf and every pair is
        # unsure, as is a NaN gap (inf - inf) and an exact tie
        r = x_max + math.sqrt(c_sq.max())
        err = 2 * (d + 4) * (2 * r * r * 2.0**-52 + 2.0**-1020)
        second -= nearest
        at, pts = np.nonzero(~(second > 2 * err))
        if pts.size:
            new[at, pts] = _exact_d2(work, pts, cents, at, pair_bytes).argmin(axis=1)

        sizes = np.bincount((new + offsets[:m]).ravel(), minlength=m * k).reshape(m, k)
        empty = np.flatnonzero((sizes == 0).any(axis=1))
        if empty.size:
            # the farthest-point reseed reads the exact distance of every
            # row of every restart that emptied a cluster to its own centroid,
            # restart * k + own of the (m k, 1, d) view, in a recheck's chunks
            own, pairs = new[empty], np.arange(empty.size * n)
            keys = (own + (empty * k)[:, None]).ravel()
            point_d2 = _exact_d2(work, pairs % n, cents.reshape(m * k, 1, d), keys, pair_bytes).reshape(-1, n)
            # a restart only takes a point from a cluster of size > 1, so it
            # never empties a cluster and the empty sets found here stay exact;
            # a point taken sits alone in its new cluster, so none is taken twice
            for c in np.flatnonzero((sizes[empty] == 0).any(axis=0)):
                # each restart with cluster c empty restarts it on its farthest
                # point whose own cluster can spare it, ties to the lowest row
                at = np.flatnonzero(sizes[empty, c] == 0)
                key = own[at] + offsets[: at.size]
                eligible = np.bincount(key.ravel(), minlength=at.size * k)[key] > 1
                p = np.argmax(np.where(eligible, point_d2[at], -np.inf), axis=1)
                own[at, p] = c
                cents[empty[at], c] = work[p]
                reseeds[live[empty[at]]] += 1
            new[empty] = own

        # a restart whose assignments repeat stops with its centroids as
        # they stand, reseeds included; the others move to their means
        if step and (done := (new == last).all(axis=1)).any():
            stop, moving = live[done], ~done
            centroids[stop], assignments[stop] = cents[done], new[done]
            iterations[stop], converged[stop] = step + 1, True
            live, new, cents = live[moving], new[moving], cents[moving]
            m = live.size
            if not m:
                break
        last = new
        if d == 1:
            for i in range(m):
                for c in range(k):
                    cents[i, c] = work[new[i] == c].mean(axis=0)
        else:
            cents = _bincount_means(weights[:, : m * n], nz, d, (new + offsets[:m]).ravel(), m, k)
    else:  # max_iterations ran out on the restarts still live
        centroids[live], assignments[live], iterations[live] = cents, last, max_iterations
    del columns, weights  # before the inertia step, whose gathered rows are the second n x d array

    diff = centroids.reshape(R * k, d)[assignments + offsets]
    np.subtract(work, diff, out=diff)
    inertia = np.einsum("rnd,rnd->r", diff, diff)
    return assignments, centroids, inertia, iterations, converged, reseeds


def _exact_d2(work: np.ndarray, pts: np.ndarray, cents: np.ndarray, at: np.ndarray, pair_bytes: int) -> np.ndarray:
    """(p, k) squared distances of rows pts to the k centroids of restarts at.

    The per-pair arithmetic of one full n x k x d broadcast, bit for bit,
    in _spans chunks of pairs of pair_bytes each. Column c sums the same d
    products in the same order as a (k', 1, d) view's call on centroid c alone.
    """
    out = np.empty((pts.size, cents.shape[1]))
    for s in _spans(pts.size, pair_bytes):
        diff = cents[at[s]]
        np.subtract(work[pts[s], None, :], diff, out=diff)
        np.einsum("pkd,pkd->pk", diff, diff, out=out[s])
    return out


def _bincount_means(weights: np.ndarray, channels: np.ndarray, d: int, key: np.ndarray, restarts: int,
                    k: int) -> np.ndarray:
    """(restarts, k, d) cluster means from rows `channels` of the (d, n)
    transposed working matrix, once per restart; every other channel is +0.0.

    key holds restart * k + cluster for every (restart, row) pair,
    restart-major. Each sum adds a cluster's rows in row order, as
    mean(axis=0) does on the (rows, d) member matrix, so the bytes are
    the same for d >= 2; so is the +0.0 of a channel of ±0.0 cells.
    """
    means = np.zeros((restarts * k, d))
    for j, w in zip(channels, weights):
        means[:, j] = np.bincount(key, weights=w, minlength=restarts * k)
    means /= np.bincount(key, minlength=restarts * k)[:, None]
    return means.reshape(restarts, k, d)


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
    tables = _count_tables(cluster_codes[None], label_codes, len(distinct), len(clusters))
    return int(_max_matchings(tables)[0]) / len(cluster_codes)


def _count_tables(assignments: np.ndarray, labels: np.ndarray, n_labels: int, n_clusters: int) -> np.ndarray:
    """(R, labels, clusters) tables counting each row of (R, n) cluster codes against labels, in one bincount."""
    R = len(assignments)
    key = (np.arange(R)[:, None] * n_labels + labels) * n_clusters + assignments
    return np.bincount(key.ravel(), minlength=R * n_labels * n_clusters).reshape(R, n_labels, n_clusters)


def _max_matchings(tables: np.ndarray) -> np.ndarray:
    """Largest total weight of a matching that gives every row its own
    column, for each table of an int64 (T, rows, columns) stack, rows <= columns.

    The Hungarian method with shortest augmenting paths (Kuhn 1955; Jonker
    and Volgenant 1987) in O(rows^2 * columns) steps, on as many tables at
    once as one block holds (_spans): a table whose path has ended takes zero
    steps until the others' end. On int64, so each optimum is exact.
    """
    T, L, C = tables.shape
    out = np.empty(T, dtype=np.int64)
    for s in _spans(T, 8 * L * C):
        weights = tables[s].reshape(-1, C)
        t = len(weights) // L
        first = np.arange(t) * L - 1  # row r (1-based) of table i is weights[first[i] + r]
        base = np.arange(t) * (C + 1)  # column j of table i is at base[i] + j of a raveled (t, C + 1) array
        # the dual's potentials: v of the columns, and each row's by the
        # column it is matched to; column 0 is a sentinel that holds the row
        # being added, and owner[:, j] is the row matched to column j (0: none)
        row_pot, v, owner, way = (np.zeros((t, C + 1), dtype=np.int64) for _ in range(4))
        for i in range(1, L + 1):
            owner[:, 0], row_pot[:, 0] = i, 0
            j0 = np.zeros(t, dtype=np.intp)
            slack = np.full((t, C + 1), _UNREACHED)
            used = np.zeros((t, C + 1), dtype=bool)
            going = np.ones(t, dtype=bool)
            while going.any():  # the tables whose path has not reached a free column
                at = base + j0
                used.ravel()[at] |= going
                reduced = -weights[first + owner.ravel()[at]] - row_pot.ravel()[at][:, None] - v[:, 1:]
                better = ~used[:, 1:] & going[:, None] & (reduced < slack[:, 1:])
                np.copyto(slack[:, 1:], reduced, where=better)
                np.copyto(way[:, 1:], j0[:, None], where=better)
                # the free column of least slack, ties to the lowest
                j1 = np.where(used, _UNREACHED, slack).argmin(axis=1)
                delta = np.where(going, slack.ravel()[base + j1], 0)
                step = used * delta[:, None]
                row_pot += step
                v -= step
                slack -= delta[:, None] - step
                j0 = np.where(going, j1, j0)
                going = owner.ravel()[base + j0] != 0
            while j0.any():  # flip each alternating path back to the sentinel
                at, src = base + j0, base + way.ravel()[base + j0]
                owner.ravel()[at] = owner.ravel()[src]
                row_pot.ravel()[at] = row_pot.ravel()[src]
                j0 = way.ravel()[at]
        matched = owner[:, 1:]
        out[s] = np.where(matched > 0, weights[first[:, None] + matched, np.arange(C)], 0).sum(axis=1)
    return out


ACCURACY_EDGES = (0.9, 0.8, 0.7, 0.6, 0.5)
BUCKET_KEYS = ("90", "80", "70", "60", "50", "below")


def bucket_accuracies(accuracies: Sequence[float]) -> dict[str, int]:
    """Count runs by the highest accuracy threshold they reach (NaN reaches none)."""
    reached = (np.asarray(accuracies, dtype=np.float64)[:, None] >= ACCURACY_EDGES).sum(axis=1)
    counts = np.bincount(len(ACCURACY_EDGES) - reached, minlength=len(BUCKET_KEYS))
    return dict(zip(BUCKET_KEYS, counts.tolist()))


@dataclass(frozen=True)
class ConditionResult:
    """One condition's runs as columns: run r has seeds[r], accuracies[r] and so on."""
    name: str
    seeds: tuple[int, ...]
    accuracies: tuple[float, ...]
    inertias: tuple[float, ...]
    iterations: tuple[int, ...]

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
_JSON_BUCKETS = "{\n" + ",\n".join(f'        "{key}": %d' for key in BUCKET_KEYS) + "\n      }"
_JSON_RUN = (
    '        {\n          "seed": %d,\n          "accuracy": %s,\n'
    '          "inertia": %s,\n          "iterations": %d\n        }'
)


def _json_list(items: str, indent: str) -> str:
    """A JSON array of already written items joined by ",\n", closed at `indent`."""
    return "[\n" + items + "\n" + indent + "]" if items else "[]"


def _json_floats(values: Sequence[float]) -> list[str]:
    """Each float as json writes it, each distinct bit pattern (so -0.0
    apart from 0.0) formatted once; a non-finite value is no JSON number."""
    values = np.array(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError(f"{values[~np.isfinite(values)][0]} cannot be written as a JSON number")
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    text = list(map(float.__repr__, bits.view(np.float64).tolist()))
    return [text[i] for i in inverse.tolist()]


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
        A condition's runs fill one repeated template in one format, with
        each distinct accuracy and inertia written once, instead of going
        through json's encoder; a non-finite one raises ValueError.
        """
        conditions = ",\n".join(
            _JSON_CONDITION % (
                json.dumps(c.name),
                # every run's template filled by one format
                _json_list(",\n".join([_JSON_RUN] * len(c.seeds)) % tuple(chain.from_iterable(
                    zip(c.seeds, _json_floats(c.accuracies), _json_floats(c.inertias), c.iterations)
                )), "      "),
                _JSON_BUCKETS % tuple(c.buckets.values()),
            )
            for c in self.conditions
        )
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


def _layouts(dataset: Dataset, mode: EncodeMode, books: dict) -> tuple[np.ndarray, np.ndarray]:
    """One condition's (n, 2c) real working matrix and its (2c, n) channel
    rows, real_expansion(standardize(encode_dataset(dataset, mode)).data)
    and its transpose bit for bit, with their refusals, in two arrays.

    One tiled transpose writes the working matrix from the condition's
    scaled (c, n) block (_scaled_block, with the experiment's books); each
    row of the block, (re, im, re, im, ...), is then split in place into
    its re and its im channel row.
    """
    block = _scaled_block(dataset, mode, books)
    work = _transpose_into(np.empty(block.shape[::-1], dtype=np.complex128), block).view(np.float64)
    n, interleaved = dataset.n_rows, block.view(np.float64)
    scratch = np.empty(2 * n)
    for row in interleaved:
        scratch[:] = row
        row[:n], row[n:] = scratch[0::2], scratch[1::2]
    return work, interleaved.reshape(-1, n)


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
    seeds = np.stack([derive_run_seed(master_seed, ci, run_indices) for ci in range(len(conditions))])
    label_codes, vocabulary = dataset.codes(decision.name)
    n, k = len(label_codes), len(vocabulary)
    # every condition's starts in one draw; all runs' count tables matched at once
    starts = _start(n, k, seeds.ravel().tolist()).reshape(len(conditions), repeats, k)
    tables, inertias, iterations = [], np.empty(seeds.shape), np.empty(seeds.shape, dtype=np.intp)
    books: dict = {}  # each nominal column's codebook, built once for every condition
    for ci, mode in enumerate(conditions):
        work, *channels = _layouts(dataset, mode, books)
        # restarts per batch: as many as one distance block holds, so the
        # distance scratch and the inertia step's temporaries stay within a
        # block (a batch of one restart splits its rows into blocks)
        for s in _spans(repeats, 8 * k * work.shape[1] * n):
            # the first batch pops the block's channel rows; a later one transposes work again
            channels = channels or [_transpose_into(np.empty(work.shape[::-1]), work)]
            result = _lloyd(work, work[starts[ci, s]], _MAX_ITERATIONS, channels)
            tables.append(_count_tables(result[0], label_codes, k, k))
            inertias[ci, s], iterations[ci, s] = result[2:4]
        del work  # so that the next condition's block and working matrix are the two arrays
    accuracies = _max_matchings(np.concatenate(tables)).reshape(seeds.shape) / n
    columns = [c.tolist() for c in (seeds, accuracies, inertias, iterations)]
    return ExperimentReport(
        master_seed=operator.index(master_seed),
        repeats=repeats,
        k=k,
        conditions=tuple(ConditionResult(mode.value, *map(tuple, runs)) for mode, *runs in zip(conditions, *columns)),
    )
