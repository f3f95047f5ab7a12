"""Complex-rank coding of nominal values, plus integer and one-hot baselines.

A nominal column is grouped into classes of identical tokens. A class seen
n times gets the real rank (n + 1) / 2, the average of the positions 1..n
its occurrences would take in a sorted list, so frequency alone fixes the
modulus. Classes that tie on frequency would collide on that axis, so the
k tied classes keep the shared modulus and are spread over the k-th roots
of unity: the class at tie-group position j (first occurrence order) is
rotated by exp(2*pi*i*j/k). Both ingredients stay recoverable: frequency
from the modulus (n = 2R - 1) and the tie-group size from the phase step.

Coded matrices hold every feature as a complex number. Plain numbers and
the baseline integer and one-hot codes simply have a zero imaginary part.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import chain
from operator import itemgetter
from typing import Iterator, Mapping, Sequence

import numpy as np

from .dataset import DataError, Dataset, Role, factorize, read_enum, read_field, read_numbers


def base_rank(n: int) -> float:
    """Real rank of a class with n occurrences: the mean of positions 1..n."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"frequency must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"frequency must be positive, got {n}")
    return (n + 1) / 2


def root_of_unity(j: int, k: int) -> complex:
    """exp(2*pi*i*j/k), exact on the four axis-aligned directions.

    Keeping the quarter-turn cases exact means codes with phase 0 or pi
    are exactly real in float arithmetic, not real plus a tiny epsilon.
    """
    if k < 1:
        raise ValueError(f"group size must be positive, got {k}")
    j %= k
    if (4 * j) % k == 0:
        return (1 + 0j, 1j, -1 + 0j, -1j)[(4 * j) // k]
    angle = 2.0 * math.pi * j / k
    return complex(math.cos(angle), math.sin(angle))


@dataclass(frozen=True)
class ComplexRank:
    """One coded nominal class, fixed by (n, j, k): its frequency, its
    position in its frequency tie group and the size of that group.

    The rank is also the codebook entry, so `rank` returns itself.
    """

    frequency: int
    group_index: int
    group_size: int

    def __post_init__(self) -> None:
        n, j, k = self.frequency, self.group_index, self.group_size
        ints = all(isinstance(x, int) and not isinstance(x, bool) for x in (n, j, k))
        if not ints or n < 1 or not 0 <= j < k:
            raise ValueError(f"(n, j, k) = ({n!r}, {j!r}, {k!r}) needs n >= 1 and 0 <= j < k, each an int")

    @property
    def rank(self) -> "ComplexRank":
        return self

    @property
    def modulus(self) -> float:
        return base_rank(self.frequency)

    @property
    def phase(self) -> float:
        return 2.0 * math.pi * self.group_index / self.group_size

    @property
    def value(self) -> complex:
        return self.modulus * root_of_unity(self.group_index, self.group_size)

    def to_json_dict(self) -> dict:
        z = self.value
        return {
            "n": self.frequency,
            "modulus": self.modulus,
            "phase": self.phase,
            "j": self.group_index,
            "k": self.group_size,
            "re": z.real,
            "im": z.imag,
        }


@dataclass(frozen=True)
class NominalCodebook:
    """Token to complex rank mapping for one nominal attribute.

    Entries keep first-occurrence order, which is also the order that
    fixed each entry's position inside its frequency tie group.
    """

    attribute: str
    entries: Mapping[str, ComplexRank]

    def to_json_dict(self) -> dict:
        entries = {token: e.to_json_dict() for token, e in self.entries.items()}
        return {"attribute": self.attribute, "entries": entries}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "NominalCodebook":
        """Read a codebook from its counts; each other field must be the derived one."""
        attribute = read_field(doc, "attribute", str, "codebook")
        where = f"codebook {attribute!r}"
        stored = read_field(doc, "entries", dict, where)
        if not stored:
            raise DataError(f"{where} has no entries")
        counts = []
        for token, e in stored.items():
            n = read_field(e, "n", int, f"{where}, token {token!r}")
            if not 0 < n < 2**63:
                raise DataError(f"{where}, token {token!r}: n is {n}, not a count from 1 to 2**63 - 1")
            counts.append(n)
        codebook = _codebook(np.array(counts, dtype=np.int64), list(stored), attribute)
        for token, entry in codebook.to_json_dict()["entries"].items():
            _require_same(stored[token], entry, f"{where}, token {token!r}")
        return codebook


def _codebook(counts: np.ndarray, vocabulary: Sequence[str], attribute: str) -> NominalCodebook:
    """Complex ranks of tokens in first-occurrence order, from their counts.

    A stable sort by count keeps first-occurrence order inside each tie
    group, and that order is the phase index j.
    """
    if not vocabulary:
        raise ValueError("cannot build a codebook from an empty column")
    _, group, sizes = np.unique(counts, return_inverse=True, return_counts=True)
    order = np.argsort(group, kind="stable")
    j = np.empty_like(order)
    j[order] = np.arange(len(order)) - (np.cumsum(sizes) - sizes)[group[order]]
    entries = {
        t: ComplexRank(n, jj, kk)
        for t, n, jj, kk in zip(vocabulary, counts.tolist(), j.tolist(), sizes[group].tolist())
    }
    return NominalCodebook(attribute, entries)


def build_codebook(values: Sequence[str], attribute: str = "") -> NominalCodebook:
    """Derive the complex rank of every distinct token in a column.

    Tokens are counted, classes sharing a frequency form a tie group, and
    within each group the phase index j follows first occurrence in the
    column. The input order therefore matters exactly as much as it does
    for the codes themselves and for nothing else.
    """
    codes, vocabulary = factorize(values)
    return _codebook(np.bincount(codes), vocabulary, attribute)


def adhoc_codebook(values: Sequence[str]) -> dict[str, float]:
    """Baseline coding: consecutive integers 1, 2, ... by first occurrence."""
    distinct = dict.fromkeys(values)
    if not distinct:
        raise ValueError("cannot build an ad hoc codebook from an empty column")
    return {t: float(i + 1) for i, t in enumerate(distinct)}


class EncodeMode(Enum):
    """Feature selection and nominal coding scheme for a dataset.

    combined: numeric features plus complex-coded nominal features.
    complex: alias of combined.
    numeric: numeric features only.
    nominal: complex-coded nominal features only.
    adhoc: numeric features plus integer-coded nominal features.
    onehot: numeric features plus one-hot indicator blocks.
    """

    COMBINED = "combined"
    COMPLEX = "complex"
    NUMERIC = "numeric"
    NOMINAL = "nominal"
    ADHOC = "adhoc"
    ONEHOT = "onehot"


class ColumnSource(Enum):
    NUMERIC = "numeric"
    COMPLEX_CODED = "complex"
    ADHOC_CODED = "adhoc"
    ONE_HOT = "onehot"


@dataclass(frozen=True)
class CodedColumn:
    name: str
    source: ColumnSource


@dataclass(frozen=True)
class ColumnScaling:
    """Standardization parameters applied to one coded column."""

    name: str
    mean: complex
    sigma: float

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "mean": {"re": self.mean.real, "im": self.mean.imag},
            "sigma": {"re": self.sigma, "im": self.sigma},
        }


# bytes per block of every blocked pass; k-means counts a block of (restart,
# row) pairs as their n x k x d broadcast. It bounds each exact chunk's
# scratch and each screening matrix product: one product over all 30,000 rows
# of a benchmark table made OpenBLAS allocate thread buffers (7-9 MB more peak
# RSS). Small enough to stay in cache, large enough to amortize the calls.
_BLOCK_BYTES = 2 << 20


def _spans(total: int, item_bytes: int) -> Iterator[slice]:
    """Slices covering range(total) in order, each of as many items of
    item_bytes as one block holds, one item at least."""
    step = max(1, _BLOCK_BYTES // max(1, item_bytes))
    return map(slice, range(0, total, step), range(step, total + step, step))


def _transpose_into(out: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Copy the 2-D array a into out, of a's transposed shape, as its transpose; return out.

    It copies in tiles of 1/64 of a block along a's longer axis, which stay
    in the first-level cache: whole 2 MiB blocks took about twice as long,
    and one whole out[...] = a.T two to four times as long.
    """
    src, dst = (a, out.T) if a.shape[0] >= a.shape[1] else (a.T, out)
    for s in _spans(len(src), 64 * a.itemsize * src.shape[1]):
        dst[s] = src[s]
    return out


def _center(columns: np.ndarray) -> tuple[list[complex], list[float]]:
    """Center the rows of a C-order complex (columns, cells) array in place,
    each one coded column; return their complex means and their real
    population scatters sqrt(sum(|x - mean|^2) / N). It runs over the
    _spans blocks of whole rows. Each row is contiguous, so numpy sums
    it pairwise as it sums a lone column; a (cells, columns) block sums cell
    by cell, to other bytes."""
    n = columns.shape[1]
    means, sigmas = [], []
    for s in _spans(len(columns), 16 * n):
        block = columns[s]
        mean = block.mean(axis=1)
        block -= mean[:, None]
        squares = block.real**2
        squares += block.imag**2
        means += mean.tolist()
        sigmas += np.sqrt(squares.sum(axis=1) / n).tolist()
    return means, sigmas


def _scale(columns: np.ndarray, names: Sequence[str]) -> tuple[list[complex], list[float]]:
    """standardize's statistics and refusals over the rows of a C-order
    complex (columns, cells) array, each one coded column named by names:
    their means and sigmas, with each row centered in place (_center). Fewer
    than 2 cells, and the first column whose scatter is zero or overflows,
    are refused. Each caller divides by the sigmas in its own layout."""
    if columns.shape[1] < 2:
        raise DataError("standardization needs at least 2 rows")
    # an overflow only ever yields a non-finite sigma, which is refused
    with np.errstate(over="ignore", invalid="ignore"):
        means, sigmas = _center(columns)
    for name, s in zip(names, sigmas):
        # sigma is 0 for a constant column and for a subnormal spread alike
        if s == 0.0:
            raise DataError(f"column {name!r} has zero dispersion")
        if not math.isfinite(s):
            raise DataError(f"column {name!r} is too spread out: its scatter overflows")
    return means, sigmas


def _require_distinct(columns: Sequence[CodedColumn]) -> None:
    """Refuse two coded columns of one name, naming both positions."""
    seen: dict[str, int] = {}
    for i, c in enumerate(columns, start=1):
        if seen.setdefault(c.name, i) != i:
            raise DataError(f"coded columns {seen[c.name]} and {i} are both named {c.name!r}")


@dataclass(frozen=True, eq=False)
class CodedMatrix:
    """A fully numeric view of a dataset, one complex value per cell.

    The decision column never becomes a feature; its labels ride along
    for scoring. Codebooks and integer code maps record how each nominal
    column was turned into numbers.
    """

    columns: tuple[CodedColumn, ...]
    data: np.ndarray
    decision: tuple[str, ...] | None = None
    codebooks: tuple[NominalCodebook, ...] = ()
    adhoc_codes: dict[str, dict[str, float]] = field(default_factory=dict)
    scaling: tuple[ColumnScaling, ...] | None = None

    def __post_init__(self) -> None:
        data = self.data
        # adopt a frozen complex128 array that owns its data; copy anything else
        if not (type(data) is np.ndarray and data.dtype == np.complex128
                and data.flags.owndata and not data.flags.writeable):
            data = np.array(data, dtype=np.complex128)
        if data.ndim != 2:
            raise ValueError(f"coded data must be 2-dimensional, got shape {data.shape}")
        if data.shape[1] != len(self.columns):
            raise ValueError(
                f"{len(self.columns)} column descriptors for {data.shape[1]} data columns"
            )
        if self.decision is not None and len(self.decision) != data.shape[0]:
            raise ValueError("decision labels must match the number of rows")
        _require_distinct(self.columns)
        if not np.isfinite(data).all():  # the first bad cell by row, then by column
            r, c = np.argwhere(~np.isfinite(data))[0]
            where = f"coded cell at row {r + 1}, column {c + 1} ({self.columns[c].name!r})"
            raise DataError(f"{where} is not finite: {data[r, c]}")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "columns", tuple(self.columns))
        if self.decision is not None:
            object.__setattr__(self, "decision", tuple(self.decision))

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def column(self, name: str) -> np.ndarray:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return self.data[:, i]
        raise DataError(f"unknown coded column: {name!r}")


def _coded_columns(dataset: Dataset, mode: EncodeMode | str, books: dict) -> tuple:
    """The column rules of encode_dataset, which the experiment shares:
    (columns, codebooks, ad hoc maps, cells), cells being the (j, values,
    codes) items _fill writes. The mode's requirements are checked, and two
    coded columns of one name are refused. books, a dict kept across calls,
    holds each nominal column's codebook and its values by name, so an
    experiment builds each once for all its conditions.
    """
    mode = EncodeMode(mode)
    if mode is EncodeMode.COMPLEX:
        mode = EncodeMode.COMBINED
    roles = {c.role for c in dataset.schema.columns}
    if mode is EncodeMode.NUMERIC and Role.NUMERIC not in roles:
        raise DataError("mode 'numeric' needs at least one numeric column")
    if mode in (EncodeMode.NOMINAL, EncodeMode.ADHOC, EncodeMode.ONEHOT) and Role.NOMINAL not in roles:
        raise DataError(f"mode {mode.value!r} needs at least one nominal column")

    skipped = {EncodeMode.NUMERIC: Role.NOMINAL, EncodeMode.NOMINAL: Role.NUMERIC}.get(mode)
    columns: list[CodedColumn] = []
    codebooks: list[NominalCodebook] = []
    adhoc_codes: dict[str, dict[str, float]] = {}
    cells: list[tuple[int, np.ndarray | None, np.ndarray | None]] = []
    for col in dataset.schema.columns:
        if col.role in (Role.DECISION, skipped):
            continue
        j = len(columns)
        if col.role is Role.NUMERIC:
            columns.append(CodedColumn(col.name, ColumnSource.NUMERIC))
            cells.append((j, dataset.numeric(col.name), None))
            continue
        codes, vocabulary = dataset.codes(col.name)
        if mode is EncodeMode.COMBINED or mode is EncodeMode.NOMINAL:
            if col.name not in books:
                cb = _codebook(np.bincount(codes), vocabulary, col.name)
                # the entries are in vocabulary order, so a token's code indexes its value
                books[col.name] = cb, np.array([e.value for e in cb.entries.values()])
            cb, values = books[col.name]
            codebooks.append(cb)
            columns.append(CodedColumn(col.name, ColumnSource.COMPLEX_CODED))
            cells.append((j, values, codes))
        elif mode is EncodeMode.ADHOC:
            adhoc_codes[col.name] = adhoc_codebook(vocabulary)
            columns.append(CodedColumn(col.name, ColumnSource.ADHOC_CODED))
            cells.append((j, np.arange(1.0, len(vocabulary) + 1), codes))
        else:
            columns.extend(CodedColumn(f"{col.name}={t}", ColumnSource.ONE_HOT) for t in vocabulary)
            cells.append((j, None, codes))
    _require_distinct(columns)
    return tuple(columns), tuple(codebooks), adhoc_codes, cells


def _fill(out: np.ndarray, cells: list) -> np.ndarray:
    """Write _coded_columns' cells into the zeroed complex (columns, rows)
    array out, or a transposed view of one; return out. Column j holds the
    values of a numeric column (codes None) or values[codes]; a one-hot
    block (values None) starting at column j holds one 1 per row, at j plus
    the row's code."""
    for j, values, codes in cells:
        if values is None:
            out[j + codes, np.arange(len(codes))] = 1
        else:
            out[j] = values if codes is None else values[codes]
    return out


def _scaled_block(dataset: Dataset, mode: EncodeMode | str, books: dict) -> np.ndarray:
    """The C-order (c, n) complex block standardize(encode_dataset(dataset,
    mode)).data.T, bit for bit and with their refusals, in one array: each
    coded column is written by encode_dataset's rules into its own
    contiguous row, which _scale centers in place and which is then divided
    by its sigma there. CodedMatrix's finiteness check is not repeated: a
    Dataset's numbers are finite, and so is every codebook, ad hoc and
    one-hot value. books is as for _coded_columns."""
    columns, _, _, cells = _coded_columns(dataset, mode, books)
    block = _fill(np.zeros((len(columns), dataset.n_rows), dtype=np.complex128), cells)
    _, sigmas = _scale(block, [c.name for c in columns])
    with np.errstate(over="ignore", invalid="ignore"):
        # numpy divides by each sigma as the complex sigma + 0j
        np.divide(block, np.array(sigmas)[:, None], out=block)
    return block


def encode_dataset(dataset: Dataset, mode: EncodeMode | str) -> CodedMatrix:
    """Turn a dataset into a coded matrix under the given mode.

    The mode is an EncodeMode or its value; any other raises ValueError.
    Columns keep their schema order; a one-hot block sits where its source
    column was. Modes that exist to exercise nominal coding (nominal, adhoc,
    onehot) require at least one nominal column, and numeric requires at
    least one numeric column.
    """
    columns, codebooks, adhoc_codes, cells = _coded_columns(dataset, mode, {})
    # each column is written in place into the one array the matrix adopts
    data = np.zeros((dataset.n_rows, len(columns)), dtype=np.complex128)
    _fill(data.T, cells)
    data.flags.writeable = False
    return CodedMatrix(
        columns=columns,
        data=data,
        decision=dataset.decision_labels(),
        codebooks=codebooks,
        adhoc_codes=adhoc_codes,
    )


def standardize(matrix: CodedMatrix) -> CodedMatrix:
    """Center and scale every coded column to zero mean and unit dispersion.

    Each column is shifted by its complex mean and divided by the real
    population scatter sqrt(sum(|x - mean|^2) / N), one sigma for both
    channels. Columns whose values are all identical have no scale at all,
    and columns whose scatter overflows float64 have no finite one; the
    first such column is rejected by name. A matrix that already has a
    scaling raises ValueError: a second one would not describe its cells.

    The means and sigmas come from a transposed copy of the cells made in
    the output's own buffer, which the scaled cells then overwrite, so the
    output is the only n x c array it allocates.
    """
    if matrix.scaling is not None:
        raise ValueError("the matrix is already standardized")
    (n, c), data = matrix.data.shape, matrix.data
    out = np.empty((n, c), dtype=np.complex128)
    means, sigmas = _scale(_transpose_into(out.reshape(c, n), data), matrix.column_names)
    with np.errstate(over="ignore", invalid="ignore"):
        # the cells in row order, a block of rows at a time, each by the same subtraction and division
        for r in _spans(n, 16 * c):
            np.subtract(data[r], means, out=out[r])
            np.divide(out[r], sigmas, out=out[r])
    out.flags.writeable = False  # so the new matrix adopts it: the second n x c array, not a third
    return replace(matrix, data=out, scaling=tuple(map(ColumnScaling, matrix.column_names, means, sigmas)))


def _json_fields(matrix: CodedMatrix) -> tuple[dict, dict]:
    """The JSON fields of a coded matrix that come before "rows" and after
    it, for the writers only: the reader checks each field as it reads it."""
    head = {"columns": [{"name": c.name, "source": c.source.value} for c in matrix.columns]}
    tail = {
        "decision": list(matrix.decision) if matrix.decision is not None else None,
        "codebooks": [cb.to_json_dict() for cb in matrix.codebooks],
        "adhoc_codes": matrix.adhoc_codes,
        "scaling": None if matrix.scaling is None else [s.to_json_dict() for s in matrix.scaling],
    }
    return head, tail


def coded_matrix_to_json_dict(matrix: CodedMatrix) -> dict:
    """JSON form of a coded matrix; complex cells become re/im pairs."""
    head, tail = _json_fields(matrix)
    rows = [[{"re": z.real, "im": z.imag} for z in row] for row in matrix.data.tolist()]
    return {**head, "rows": rows, **tail}


def coded_matrix_to_json(matrix: CodedMatrix, mode: EncodeMode) -> str:
    """The `encode --json` document of a coded matrix.

    The text is `json.dumps({"mode": mode.value, **coded_matrix_to_json_dict(matrix)},
    indent=2) + "\n"`, byte for byte. Only the fields around "rows" go
    through json, and of the decision list only each distinct label's
    text, which is then gathered by row. The rows are written by float
    position (each column's re, then its im): each distinct value of a
    position is formatted once, with the fixed text around it, and the
    texts are gathered back into row order. One join of them builds the
    document, without a dict per cell or a second copy of the rows text.
    """
    head, tail = _json_fields(matrix)
    labels = tail.pop("decision")
    if labels:  # each distinct label's text once, gathered by row, laid out as indent=2 lays out a list
        texts = {t: json.encoder.encode_basestring_ascii(t) for t in set(labels)}
        decision = "[\n    " + ",\n    ".join(map(texts.__getitem__, labels)) + "\n  ]"
    else:  # null, or [] for a matrix of no rows
        decision = json.dumps(labels)
    # both dumps are non-empty objects: "{\n" + fields + "\n}"
    doc_before = json.dumps({"mode": mode.value, **head}, indent=2)[:-2] + ',\n  "rows": '
    doc_after = ',\n  "decision": ' + decision + ",\n" + json.dumps(tail, indent=2)[2:] + "\n"
    n, d = matrix.data.shape
    if not n or not d:
        rows = "[\n" + ",\n".join(["    []"] * n) + "\n  ]" if n else "[]"
        return doc_before + rows + doc_after
    values = np.ascontiguousarray(matrix.data).view(np.float64)
    texts = np.empty((n, 2 * d), dtype=object)
    for p in range(2 * d):
        if p % 2 == 0:  # a cell opens, and on the first position its row too
            before, after = (",\n    [\n" if p == 0 else ",\n") + '      {\n        "re": ', ""
        else:  # a cell closes, and on the last position its row too
            before, after = ',\n        "im": ', "\n      }" + ("\n    ]" if p == 2 * d - 1 else "")
        # distinct by bit pattern, so that -0.0 and 0.0 keep their own text;
        # cells are finite, and for a finite float repr is the text json writes
        bits, inverse = np.unique(values[:, p].view(np.int64), return_inverse=True)
        distinct = [f"{before}{v!r}{after}" for v in bits.view(np.float64).tolist()]
        texts[:, p] = np.array(distinct, dtype=object)[inverse]
    pieces = texts.ravel().tolist()
    del texts
    # the first row needs no ",\n" separator before it
    pieces[0] = doc_before + "[\n" + pieces[0][2:]
    pieces[-1] += "\n  ]" + doc_after
    return "".join(pieces)


def _read_cells(rows: list, columns: tuple[CodedColumn, ...]) -> np.ndarray:
    """The (rows, columns) complex array of the "rows" list, owned and frozen.

    Each row holds one cell per column, and each cell is a re/im pair of
    numbers; else DataError names the row and column.
    """
    width = len(columns)
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != width:
            found = f"{len(row)} cells" if isinstance(row, list) else type(row).__name__
            raise DataError(f"coded row {r + 1} must hold {width} cells, found {found}")

    def where(i: int) -> str:
        r, c = divmod(i, width)
        return f"coded cell at row {r + 1}, column {c + 1} ({columns[c].name!r})"
    data = np.empty((len(rows), width), dtype=np.complex128)
    for s in _spans(len(rows), 16 * width):  # a block of rows at a time: no list holds every number
        part, first = rows[s], s.start * width
        try:
            values = list(chain.from_iterable(map(itemgetter("re", "im"), chain.from_iterable(part))))
        except (KeyError, TypeError):
            cells = enumerate(chain.from_iterable(part))
            i, cell = next((i, c) for i, c in cells if not isinstance(c, dict) or not {"re", "im"} <= c.keys())
            raise DataError(f"{where(first + i)} is not a re/im pair: {cell!r}") from None
        pairs = data[s].reshape(-1).view(np.float64)  # a view: each cell's re, then its im
        pairs[:] = read_numbers(values, lambda i: f"{where(first + i // 2)}, {('re', 'im')[i % 2]}")
    data.flags.writeable = False
    return data


def _require_same(stored: dict, derived: dict, where: str, prefix: str = "") -> None:
    """Refuse a stored JSON object unless each field the writer writes equals
    the one it derives; the DataError names the first field that differs and
    both values (None for an absent field). Nested objects are compared the same way."""
    for key, want in derived.items():
        got = stored.get(key)
        if isinstance(got, dict) and isinstance(want, dict):
            _require_same(got, want, where, f"{prefix}{key}.")
        elif got != want:
            raise DataError(f"{where}: {prefix}{key} is {got!r}, expected {want!r}")


def _read_scaling(s: dict, column: str) -> ColumnScaling:
    """A scaling entry's finite mean and finite, positive sigma (its re half);
    every other field must be the one the writer derives from them."""
    where = f"scaling of column {column!r}"
    mean, sigma = read_field(s, "mean", dict, where), read_field(s, "sigma", dict, where)
    re, im, sigma = read_numbers([mean.get("re"), mean.get("im"), sigma.get("re")],
                                 lambda i: f"{where}, {('mean.re', 'mean.im', 'sigma.re')[i]}").tolist()
    if not (math.isfinite(sigma) and sigma > 0):
        raise DataError(f"{where}: sigma {sigma!r} is not finite and positive")
    if not (math.isfinite(re) and math.isfinite(im)):
        raise DataError(f"{where}: mean {complex(re, im)!r} is not finite")
    scaling = ColumnScaling(column, complex(re, im), sigma)
    _require_same(s, scaling.to_json_dict(), where)
    return scaling


def _decoded(cells: np.ndarray, values: np.ndarray, where: str) -> np.ndarray:
    """The index into `values` of each cell; a cell that equals no value is refused."""
    order = np.argsort(values, kind="stable")
    codes = order[np.searchsorted(values[order], cells).clip(max=len(values) - 1)]
    if not np.array_equal(values[codes], cells):
        r = np.flatnonzero(values[codes] != cells)[0]
        raise DataError(f"coded cell at row {r + 1}, {where} is {cells[r]}, which no entry of its map gives")
    return codes


def _first_seen(codes: np.ndarray, tokens: Sequence, where: str) -> None:
    """Require each token to be first seen in `tokens` order, and in some cell."""
    # the running maximum of the codes steps by one where a token is first seen
    seen = np.maximum.accumulate(codes)
    late = np.flatnonzero(np.diff(seen, prepend=-1, append=len(tokens)) > 1)
    if late.size:
        r = late[0]
        missing = tokens[seen[r - 1] + 1 if r else 0]
        if r == len(codes):
            raise DataError(f"{where}: token {missing!r} is in no cell")
        raise DataError(f"row {r + 1}, {where}: token {tokens[codes[r]]!r} is first seen before {missing!r}")


def _check_coded_cells(matrix: CodedMatrix) -> None:
    """Require the cells encode_dataset gives for the matrix's maps.

    Each complex-coded column has one codebook and each ad hoc column one
    ad hoc map, in column order. Each of their cells is a map value after
    the column's scaling, each token is first seen in entry order and a
    codebook token's cell count is its n. Every other cell has im 0, and so
    has its scaling mean. A one-hot cell is the scaled 0 or 1; each row of
    a one-hot block holds one 1, and the block's columns are first seen in
    column order. A scaled coded column's scaling is the one standardize
    gives its decoded cells.
    """
    for source, maps in ((ColumnSource.COMPLEX_CODED, [cb.attribute for cb in matrix.codebooks]),
                         (ColumnSource.ADHOC_CODED, list(matrix.adhoc_codes))):
        columns = [c.name for c in matrix.columns if c.source is source]
        if maps != columns:
            raise DataError(f"the {source.value} maps are for {maps}, but the {source.value} columns are {columns}")
    books, blocks, decoded = iter(matrix.codebooks), [], []
    for i, col in enumerate(matrix.columns):
        cells, where = matrix.data[:, i], f"column {i + 1} ({col.name!r})"
        if col.source is ColumnSource.COMPLEX_CODED:
            entries = next(books).entries
            counts = np.array([e.frequency for e in entries.values()])
            values = np.array([e.value for e in entries.values()])
        else:
            if cells.imag.any():
                r = np.flatnonzero(cells.imag)[0]
                raise DataError(f"coded cell at row {r + 1}, {where} has im {cells.imag[r]}, not 0")
            if matrix.scaling is not None and matrix.scaling[i].mean.imag:
                raise DataError(f"scaling of {where}: mean.im is {matrix.scaling[i].mean.imag}, not 0")
            if col.source is ColumnSource.NUMERIC:
                continue
            if col.source is ColumnSource.ADHOC_CODED:
                entries, counts = matrix.adhoc_codes[col.name], None
                values = np.array(list(entries.values()), dtype=np.complex128)
            else:
                values = np.array([0, 1], dtype=np.complex128)
        raw = values
        if matrix.scaling is not None:
            # standardize's arithmetic, so the scaled values match bit for bit; a
            # value that overflows is not finite and so matches no cell
            with np.errstate(over="ignore", invalid="ignore"):
                values = (values - matrix.scaling[i].mean) / matrix.scaling[i].sigma
        codes = _decoded(cells, values, where)
        if matrix.scaling is not None:
            decoded.append((i, where, raw[codes]))
        if col.source is ColumnSource.ONE_HOT:
            # row 1's token is always first seen, so a block starts at a column hot
            # in row 1 or after another source (with no rows, at each column)
            if not blocks or codes[:1].all() or matrix.columns[i - 1].source is not ColumnSource.ONE_HOT:
                blocks.append([])
            blocks[-1].append((i, codes))
            continue
        tokens, found = list(entries), np.bincount(codes, minlength=len(entries))
        if counts is not None and not np.array_equal(found, counts):
            t = np.flatnonzero(found != counts)[0]
            raise DataError(f"{where}, token {tokens[t]!r}: {found[t]} cells, but n is {counts[t]}")
        _first_seen(codes, tokens, where)
    for block in blocks:
        (a, _), (b, _) = block[0], block[-1]
        where = f"one-hot columns {a + 1} ({matrix.columns[a].name!r}) to {b + 1} ({matrix.columns[b].name!r})"
        hot = np.column_stack([codes for _, codes in block])
        ones = hot.sum(axis=1)
        if (ones != 1).any():
            r = np.flatnonzero(ones != 1)[0]
            raise DataError(f"row {r + 1}, {where}: {ones[r]} hot cells, not 1")
        _first_seen(hot.argmax(axis=1), [matrix.columns[i].name for i, _ in block], where)
    if decoded:
        means, sigmas = _center(np.array([column for _, _, column in decoded]))
        for (i, where, _), derived in zip(decoded, zip(means, sigmas)):
            stored = (matrix.scaling[i].mean, matrix.scaling[i].sigma)
            if stored != derived:
                raise DataError(f"scaling of {where}: (mean, sigma) is {stored}, but its decoded cells give {derived}")


def coded_matrix_from_json_dict(doc: dict) -> CodedMatrix:
    """Rebuild a coded matrix from the fields that fix it: columns, cells,
    decision, codebook counts, ad hoc token order, scaling mean and sigma.
    Every other field must be the one the writer derives from them."""
    columns = []
    for i, c in enumerate(read_field(doc, "columns", list, "coded matrix"), start=1):
        name = read_field(c, "name", str, f"column {i}")
        columns.append(CodedColumn(name, read_enum(c, "source", ColumnSource, f"column {i} ({name!r})")))
    columns = tuple(columns)
    data = _read_cells(read_field(doc, "rows", list, "coded matrix"), columns)
    decision = doc.get("decision")
    if decision is not None:
        if not isinstance(decision, list) or len(decision) != len(data):
            found = f"{len(decision)} labels" if isinstance(decision, list) else type(decision).__name__
            raise DataError(f"decision must be null or one label per row: {len(data)} rows, found {found}")
        for r, label in enumerate(decision, start=1):
            if not isinstance(label, str):
                raise DataError(f"decision label at row {r} is not a string: {label!r}")
    codebooks = tuple(NominalCodebook.from_json_dict(cb) for cb in read_field(doc, "codebooks", list, "coded matrix"))
    stored_adhoc = read_field(doc, "adhoc_codes", dict, "coded matrix")
    adhoc_codes = {}
    for name in stored_adhoc:
        if not read_field(stored_adhoc, name, dict, "ad hoc codes"):
            raise DataError(f"ad hoc codes: {name} has no tokens")
        adhoc_codes[name] = adhoc_codebook(stored_adhoc[name])
    _require_same(stored_adhoc, adhoc_codes, "ad hoc codes")
    scaling = doc.get("scaling")
    if scaling is not None:
        scaling = read_field(doc, "scaling", list, "coded matrix")
        if len(scaling) != len(columns):
            missing = (f"column {columns[len(scaling)].name!r} has none" if len(scaling) < len(columns)
                       else f"entry {len(columns) + 1} has no column")
            raise DataError(f"scaling has {len(scaling)} entries for {len(columns)} columns: {missing}")
        scaling = tuple(_read_scaling(s, c.name) for s, c in zip(scaling, columns))
    matrix = CodedMatrix(
        columns=columns,
        data=data,
        decision=decision,
        codebooks=codebooks,
        adhoc_codes=adhoc_codes,
        scaling=scaling,
    )
    _check_coded_cells(matrix)
    return matrix
