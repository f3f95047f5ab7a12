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
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from operator import itemgetter
from typing import Mapping, Sequence

import numpy as np

from .dataset import DataError, Dataset, Role, factorize


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

    @property
    def rank(self) -> "ComplexRank":
        return self

    @property
    def modulus(self) -> float:
        return base_rank(self.frequency)

    @property
    def phase(self) -> float:
        k = self.group_size
        return 0.0 if k == 1 else 2.0 * math.pi * self.group_index / k

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
        """Read a codebook back; every stored field must be the one (n, j, k) gives."""
        attribute = str(doc["attribute"])
        entries = {}
        for token, e in doc["entries"].items():
            n, j, k = int(e["n"]), int(e["j"]), int(e["k"])
            where = f"codebook {attribute!r}, token {token!r}"
            if n < 1 or not 0 <= j < k:
                raise DataError(f"{where}: (n, j, k) = ({n}, {j}, {k}) needs n >= 1 and 0 <= j < k")
            rank = ComplexRank(n, j, k)
            for key, want in rank.to_json_dict().items():
                if e.get(key) != want:
                    raise DataError(
                        f"{where}: {key} is {e.get(key)!r}, but (n, j, k) = ({n}, {j}, {k}) "
                        f"gives {want!r}"
                    )
            entries[token] = rank
        groups: dict[int, list[str]] = {}
        for token, rank in entries.items():
            groups.setdefault(rank.frequency, []).append(token)
        for n, tokens in groups.items():
            # the tokens seen n times are one tie group: k of them, each
            # with that k, and with the phase indices 0..k-1
            k = len(tokens)
            got = [(entries[t].group_index, entries[t].group_size) for t in tokens]
            if sorted(got) != [(j, k) for j in range(k)]:
                raise DataError(
                    f"codebook {attribute!r}, n = {n}: tokens {', '.join(map(repr, tokens))} "
                    f"carry (j, k) = {got}, but a tie group of {k} needs k = {k} and j = 0..{k - 1}"
                )
        return cls(attribute, entries)


def _codebook(codes: np.ndarray, vocabulary: Sequence[str], attribute: str) -> NominalCodebook:
    """Complex ranks of the tokens in a column of integer codes.

    A stable sort by count keeps first-occurrence order inside each tie
    group, and that order is the phase index j.
    """
    if not vocabulary:
        raise ValueError("cannot build a codebook from an empty column")
    counts = np.bincount(codes, minlength=len(vocabulary))
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
    return _codebook(*factorize(values), attribute)


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
        data = np.array(self.data, dtype=np.complex128)
        if data.ndim != 2:
            raise ValueError(f"coded data must be 2-dimensional, got shape {data.shape}")
        if data.shape[1] != len(self.columns):
            raise ValueError(
                f"{len(self.columns)} column descriptors for {data.shape[1]} data columns"
            )
        if self.decision is not None and len(self.decision) != data.shape[0]:
            raise ValueError("decision labels must match the number of rows")
        bad = np.argwhere(~np.isfinite(data))
        if bad.size:
            r, c = bad[0]
            raise DataError(
                f"coded cell at row {r + 1}, column {c + 1} ({self.columns[c].name!r}) "
                f"is not finite: {data[r, c]}"
            )
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


def encode_dataset(dataset: Dataset, mode: EncodeMode) -> CodedMatrix:
    """Turn a dataset into a coded matrix under the given mode.

    Columns keep their schema order; a one-hot block sits where its
    source column was. Modes that exist to exercise nominal coding
    (nominal, adhoc, onehot) require at least one nominal column, and
    numeric requires at least one numeric column.
    """
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
            cb = _codebook(codes, vocabulary, col.name)
            codebooks.append(cb)
            columns.append(CodedColumn(col.name, ColumnSource.COMPLEX_CODED))
            # the entries are in vocabulary order, so a token's code indexes its value
            arrays.append(np.array([e.value for e in cb.entries.values()])[codes])
        elif mode is EncodeMode.ADHOC:
            adhoc_codes[col.name] = adhoc_codebook(vocabulary)
            columns.append(CodedColumn(col.name, ColumnSource.ADHOC_CODED))
            arrays.append(codes + 1)
        else:  # onehot
            columns.extend(CodedColumn(f"{col.name}={t}", ColumnSource.ONE_HOT) for t in vocabulary)
            arrays.append(np.eye(len(vocabulary))[codes])

    return CodedMatrix(
        columns=tuple(columns),
        data=np.column_stack(arrays),
        decision=dataset.decision_labels(),
        codebooks=tuple(codebooks),
        adhoc_codes=adhoc_codes,
    )


def _json_fields(matrix: CodedMatrix) -> tuple[dict, dict]:
    """The JSON fields of a coded matrix that come before "rows" and after it."""
    scaling = None
    if matrix.scaling is not None:
        scaling = [
            {
                "name": s.name,
                "mean": {"re": s.mean.real, "im": s.mean.imag},
                "sigma": {"re": s.sigma, "im": s.sigma},
            }
            for s in matrix.scaling
        ]
    head = {"columns": [{"name": c.name, "source": c.source.value} for c in matrix.columns]}
    tail = {
        "decision": list(matrix.decision) if matrix.decision is not None else None,
        "codebooks": [cb.to_json_dict() for cb in matrix.codebooks],
        "adhoc_codes": matrix.adhoc_codes,
        "scaling": scaling,
    }
    return head, tail


def coded_matrix_to_json_dict(matrix: CodedMatrix) -> dict:
    """JSON form of a coded matrix; complex cells become re/im pairs."""
    head, tail = _json_fields(matrix)
    rows = [[{"re": z.real, "im": z.imag} for z in row] for row in matrix.data.tolist()]
    return {**head, "rows": rows, **tail}


# one cell as json.dumps(indent=2) writes it inside "rows"; CodedMatrix
# cells are finite, and for a finite float repr is the text json writes
_JSON_CELL = '      {\n        "re": %r,\n        "im": %r\n      }'


def coded_matrix_to_json(matrix: CodedMatrix, mode: EncodeMode) -> str:
    """The `encode --json` document of a coded matrix.

    The text is `json.dumps({"mode": mode.value, **coded_matrix_to_json_dict(matrix)},
    indent=2) + "\n"`, byte for byte. Only the fields around "rows" go
    through json; the rows are formatted straight from the array by one
    `%r` template per row, without building a dict per cell.
    """
    head, tail = _json_fields(matrix)
    n, d = matrix.data.shape
    rows = "[]"
    if n:
        row = "    [\n" + ",\n".join([_JSON_CELL] * d) + "\n    ]" if d else "    []"
        values = matrix.data.ravel().view(np.float64).tolist()
        rows = "[\n" + ",\n".join([row] * n) % tuple(values) + "\n  ]"
    # both dumps are non-empty objects: "{\n" + fields + "\n}"
    before = json.dumps({"mode": mode.value, **head}, indent=2)[:-2]
    after = json.dumps(tail, indent=2)[2:]
    return f'{before},\n  "rows": {rows},\n{after}\n'


def _checked_cells(rows: list, columns: tuple[CodedColumn, ...]) -> np.ndarray:
    """Cell by cell: every cell must be {"re": number, "im": number}."""
    data = np.empty((len(rows), len(columns)), dtype=np.complex128)
    for r, row in enumerate(rows):
        for c, cell in enumerate(row):
            where = f"coded cell at row {r + 1}, column {c + 1} ({columns[c].name!r})"
            if not isinstance(cell, dict) or not {"re", "im"} <= cell.keys():
                raise DataError(f"{where} is not a re/im pair: {cell!r}")
            for key in ("re", "im"):
                if isinstance(cell[key], bool) or not isinstance(cell[key], (int, float)):
                    raise DataError(f"{where}: {key} {cell[key]!r} is not a number")
            try:
                data[r, c] = complex(float(cell["re"]), float(cell["im"]))
            except OverflowError:
                raise DataError(f"{where} does not fit a float") from None
    return data


def _read_cells(rows: list, columns: tuple[CodedColumn, ...]) -> np.ndarray:
    """The (rows, columns) complex array of the "rows" field.

    Each row holds one cell per column, and each cell's re and im are an
    int or a float, never a bool; else DataError names the row and column.
    Plain documents take one gather into a float64 array; anything else
    is checked cell by cell.
    """
    if not isinstance(rows, list):
        raise DataError(f"coded rows must be a list, got {type(rows).__name__}")
    width = len(columns)
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != width:
            found = f"{len(row)} cells" if isinstance(row, list) else type(row).__name__
            raise DataError(f"coded row {r + 1} must hold {width} cells, found {found}")
    try:
        values = list(chain.from_iterable(map(itemgetter("re", "im"), chain.from_iterable(rows))))
        if {float, int}.issuperset(map(type, values)):
            return np.array(values, dtype=np.float64).view(np.complex128).reshape(len(rows), width)
    except (KeyError, TypeError, OverflowError):
        pass
    return _checked_cells(rows, columns)


def _read_scaling(s: dict, column: str) -> ColumnScaling:
    """One scaling entry: it must be `column`'s, with a finite mean and a
    finite, positive sigma."""
    name = str(s["name"])
    if name != column:
        raise DataError(f"scaling entry {name!r} stands where column {column!r} does")
    # one sigma scales both channels; the JSON keeps the re/im pair
    re, im = float(s["sigma"]["re"]), float(s["sigma"]["im"])
    if not all(math.isfinite(v) and v > 0 for v in (re, im)):
        raise DataError(f"scaling of column {name!r}: sigma ({re!r}, {im!r}) is not finite and positive")
    if re != im:
        raise DataError(f"scaling of column {name!r}: sigma re {re!r} and im {im!r} differ")
    mean = complex(s["mean"]["re"], s["mean"]["im"])
    if not (math.isfinite(mean.real) and math.isfinite(mean.imag)):
        raise DataError(f"scaling of column {name!r}: mean {mean!r} is not finite")
    return ColumnScaling(name, mean, re)


def coded_matrix_from_json_dict(doc: dict) -> CodedMatrix:
    """Rebuild a coded matrix from its JSON form."""
    columns = tuple(
        CodedColumn(str(c["name"]), ColumnSource(c["source"])) for c in doc["columns"]
    )
    data = _read_cells(doc["rows"], columns)
    decision = doc.get("decision")
    if decision is not None:
        if not isinstance(decision, list) or len(decision) != len(data):
            found = f"{len(decision)} labels" if isinstance(decision, list) else type(decision).__name__
            raise DataError(f"decision must be null or one label per row: {len(data)} rows, found {found}")
        for r, label in enumerate(decision, start=1):
            if not isinstance(label, str):
                raise DataError(f"decision label at row {r} is not a string: {label!r}")
        decision = tuple(decision)
    codebooks = tuple(NominalCodebook.from_json_dict(cb) for cb in doc.get("codebooks", []))
    adhoc_codes = {
        name: {t: float(v) for t, v in codes.items()}
        for name, codes in doc.get("adhoc_codes", {}).items()
    }
    scaling = doc.get("scaling")
    if scaling is not None:
        if len(scaling) != len(columns):
            missing = (f"column {columns[len(scaling)].name!r} has none" if len(scaling) < len(columns)
                       else f"entry {len(columns) + 1} has no column")
            raise DataError(f"scaling has {len(scaling)} entries for {len(columns)} columns: {missing}")
        scaling = tuple(_read_scaling(s, c.name) for s, c in zip(scaling, columns))
    return CodedMatrix(
        columns=columns,
        data=data,
        decision=decision,
        codebooks=codebooks,
        adhoc_codes=adhoc_codes,
        scaling=scaling,
    )
