"""Independent reference computations the tests check the library against.

Everything here is deliberately written from first principles, without
calling into the package's own code paths, so a bug cannot hide on both
sides of a comparison.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math

import numpy as np


def brute_force_inner(x, y) -> complex:
    """Elementwise sum of x_i * conj(y_i) using plain Python complex math."""
    assert len(x) == len(y)
    total = 0j
    for a, b in zip(x, y):
        total += complex(a) * complex(b).conjugate()
    return total


def loop_ranks(values) -> list[float]:
    """Average ranks by walking the runs of a stable sort in pure Python."""
    vals = [float(v) for v in values]
    n = len(vals)
    order = sorted(range(n), key=vals.__getitem__)
    out = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and vals[order[j + 1]] == vals[order[i]]:
            j += 1
        for p in range(i, j + 1):
            out[order[p]] = (i + j + 2) / 2  # mean of positions i+1 .. j+1
        i = j + 1
    return out


def two_pass_standardize(column):
    """Textbook two-pass mean then scatter, population denominator."""
    vals = [complex(v) for v in column]
    n = len(vals)
    mean = sum(vals) / n
    var = sum(abs(v - mean) ** 2 for v in vals) / n
    sigma = math.sqrt(var)
    return mean, sigma, [(v - mean) / sigma for v in vals]


def mean_and_sigma(cells: np.ndarray) -> tuple[complex, float]:
    """One column's complex mean and real population scatter
    sqrt(sum(|x - mean|^2) / N), one sigma for both channels."""
    mean = complex(cells.mean())
    dev = cells - mean
    return mean, math.sqrt(float(np.sum(dev.real**2 + dev.imag**2)) / len(cells))


def per_column_standardize(matrix):
    """`standardize` one column at a time: (cells, means, sigmas), with each
    column's cells `(col - mean) / sigma`, or the DataError that names the
    first column whose sigma is zero or not finite."""
    from complexrank import DataError

    data = matrix.data
    out = np.empty_like(data)
    means, sigmas = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for c, col_info in enumerate(matrix.columns):
            col = data[:, c]
            mean, sigma = mean_and_sigma(col)
            if sigma == 0.0:
                raise DataError(f"column {col_info.name!r} has zero dispersion")
            if not math.isfinite(sigma):
                raise DataError(f"column {col_info.name!r} is too spread out: its scatter overflows")
            out[:, c] = (col - mean) / sigma
            means.append(mean)
            sigmas.append(sigma)
    return out, means, sigmas


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


def reference_encode_dataset(dataset, mode):
    """`encode_dataset` as it was before it wrote each column in place: a
    block per column (`np.eye` rows for one-hot), one `column_stack` and the
    matrix's own complex copy. The code below the imports is that version's,
    unchanged.

    The mode is an EncodeMode or its value; any other raises ValueError.
    Columns keep their schema order; a one-hot block sits where its source
    column was. Modes that exist to exercise nominal coding (nominal, adhoc,
    onehot) require at least one nominal column, and numeric requires at
    least one numeric column.
    """
    from complexrank import DataError, EncodeMode, adhoc_codebook
    from complexrank.coding import CodedColumn, CodedMatrix, ColumnSource, NominalCodebook, _codebook
    from complexrank.dataset import Role

    mode = EncodeMode(mode)
    if mode is EncodeMode.COMPLEX:
        mode = EncodeMode.COMBINED
    roles = {c.role for c in dataset.schema.columns}
    if mode is EncodeMode.NUMERIC and Role.NUMERIC not in roles:
        raise DataError("mode 'numeric' needs at least one numeric column")
    if mode in (EncodeMode.NOMINAL, EncodeMode.ADHOC, EncodeMode.ONEHOT) and Role.NOMINAL not in roles:
        raise DataError(f"mode {mode.value!r} needs at least one nominal column")

    columns: list[CodedColumn] = []
    arrays: list[np.ndarray] = []
    codebooks: list[NominalCodebook] = []
    adhoc_codes: dict[str, dict[str, float]] = {}

    for col in dataset.schema.columns:
        if col.role is Role.DECISION:
            continue
        if col.role is Role.NUMERIC:
            if mode is not EncodeMode.NOMINAL:
                columns.append(CodedColumn(col.name, ColumnSource.NUMERIC))
                arrays.append(dataset.numeric(col.name))
            continue
        if mode is EncodeMode.NUMERIC:
            continue
        codes, vocabulary = dataset.codes(col.name)
        if mode in (EncodeMode.COMBINED, EncodeMode.NOMINAL):
            cb = _codebook(np.bincount(codes), vocabulary, col.name)
            codebooks.append(cb)
            columns.append(CodedColumn(col.name, ColumnSource.COMPLEX_CODED))
            # the entries are in vocabulary order, so a token's code indexes its value
            arrays.append(np.array([e.value for e in cb.entries.values()])[codes])
        elif mode is EncodeMode.ADHOC:
            adhoc_codes[col.name] = adhoc_codebook(vocabulary)
            columns.append(CodedColumn(col.name, ColumnSource.ADHOC_CODED))
            arrays.append(codes + 1)
        elif mode is EncodeMode.ONEHOT:
            columns.extend(CodedColumn(f"{col.name}={t}", ColumnSource.ONE_HOT) for t in vocabulary)
            arrays.append(np.eye(len(vocabulary))[codes])

    return CodedMatrix(
        columns=tuple(columns),
        data=np.column_stack(arrays),
        decision=dataset.decision_labels(),
        codebooks=tuple(codebooks),
        adhoc_codes=adhoc_codes,
    )


def reference_encode_json(matrix, mode) -> str:
    """The `encode --json` text through json's own encoder, a dict per cell.

    This is the writer `coded_matrix_to_json` replaced: the library's dict
    form, laid out by `json.dumps(indent=2)`.
    """
    from complexrank import coded_matrix_to_json_dict

    doc = {"mode": mode.value, **coded_matrix_to_json_dict(matrix)}
    return json.dumps(doc, indent=2) + "\n"


def write_csv(dataset) -> str:
    """A dataset as CSV text: the header line, then one line per row.

    Numbers are written by repr and tokens as they are, joined with ','.
    Only for tables that parse_csv can read back: no token holds a comma
    or a line break or starts or ends with whitespace, and every number's
    repr is a plain decimal.
    """
    names = dataset.schema.names
    columns = [[repr(c) if isinstance(c, float) else c for c in dataset.column(n)] for n in names]
    return "\n".join([",".join(names), *map(",".join, zip(*columns))]) + "\n"


def reference_parse_csv(text: str, schema, *, missing_as_category: str | None = None):
    """`parse_csv` written line by line: one `split` per line, then
    `zip(*rows)` into columns.

    The header rule, the number pattern and the Dataset are the library's
    own; what this checks is how lines become rows, rows become columns,
    and which error a malformed table gets.
    """
    from complexrank.dataset import _NUMBER, DataError, Dataset, Role, csv_header

    header = csv_header(text)
    expected = list(schema.names)
    if header != expected:
        raise DataError(f"header mismatch: expected {expected}, found {header}")
    lines = text.splitlines()
    while len(lines) > 1 and not lines[-1].strip():
        lines.pop()
    if len(lines) == 1:
        raise DataError("no data rows")
    width = len(schema.columns)
    rows = [line.split(",") for line in lines[1:]]
    del lines  # the split cells now hold the text; dropping the lines keeps the peak low
    for r, parts in enumerate(rows, start=1):
        if len(parts) != width:
            found = (
                "the line is blank" if len(parts) == 1 and not parts[0].strip()
                else f"found {len(parts)} (embedded commas are not supported)"
            )
            raise DataError(f"row {r}: expected {width} cells, {found}")
    raw_columns = list(zip(*rows))
    del rows
    columns = []
    for j, col in enumerate(schema.columns, start=1):
        cells = [c.strip() for c in raw_columns.pop(0)]
        where = f"column {j} ({col.name!r})"
        if col.role is Role.NUMERIC:
            if not all(map(_NUMBER.fullmatch, cells)):
                r, cell = next((r, c) for r, c in enumerate(cells, 1) if not _NUMBER.fullmatch(c))
                raise DataError(f"row {r}, {where}: {cell!r} is not a plain decimal number")
            cells = list(map(float, cells))
        elif "" in cells:
            if missing_as_category is None:
                raise DataError(f"row {cells.index('') + 1}, {where}: empty value")
            cells = [c or missing_as_category for c in cells]
        columns.append(cells)
    return Dataset(schema, columns)


def reference_report_json(report) -> str:
    """`experiment --json` text through json's own encoder.

    The head fields, the rng notes, then per condition its name, its runs
    as `dataclasses.asdict` gives them and its bucket counts, laid out by
    `json.dumps(indent=2)`.
    """
    from complexrank.cluster import RNG_NOTE, SEED_NOTE

    doc = {
        "master_seed": report.master_seed,
        "repeats": report.repeats,
        "k": report.k,
        "rng": {"generator": RNG_NOTE, "seed_derivation": SEED_NOTE},
        "conditions": [
            {"name": c.name, "runs": [dataclasses.asdict(r) for r in c.runs], "buckets": c.buckets}
            for c in report.conditions
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


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


def numpy_choice(n: int, k: int, seeds) -> np.ndarray:
    """(len(seeds), k): np.random.default_rng(s).choice(n, k, replace=False) per seed."""
    return np.stack([np.random.default_rng(s).choice(n, size=k, replace=False) for s in seeds])


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
        centroids = work[numpy_choice(n, k, [seed])[0]]
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
