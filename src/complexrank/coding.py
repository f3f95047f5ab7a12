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

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

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

    @property
    def total(self) -> int:
        return sum(e.frequency for e in self.entries.values())

    def code(self, token: str) -> complex:
        try:
            return self.entries[token].value
        except KeyError:
            raise DataError(
                f"token {token!r} is not in the codebook for {self.attribute!r}"
            ) from None

    def encode(self, values: Iterable[str]) -> list[complex]:
        return [self.code(v) for v in values]

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


def onehot_encode(values: Sequence[str]) -> np.ndarray:
    """Baseline coding: standard basis vectors, one axis per distinct token.

    Returns an (N, m) float matrix where m is the number of distinct
    tokens in first-occurrence order. Any two different tokens end up at
    Euclidean distance sqrt(2).
    """
    codes, vocabulary = factorize(values)
    if not vocabulary:
        raise ValueError("cannot one-hot encode an empty column")
    return np.eye(len(vocabulary))[codes]


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
            arrays.append(np.array(cb.encode(vocabulary))[codes])
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


def coded_matrix_to_json_dict(matrix: CodedMatrix) -> dict:
    """JSON form of a coded matrix; complex cells become re/im pairs."""
    doc: dict = {
        "columns": [{"name": c.name, "source": c.source.value} for c in matrix.columns],
        "rows": [
            [{"re": z.real, "im": z.imag} for z in row] for row in matrix.data.tolist()
        ],
        "decision": list(matrix.decision) if matrix.decision is not None else None,
        "codebooks": [cb.to_json_dict() for cb in matrix.codebooks],
        "adhoc_codes": matrix.adhoc_codes,
        "scaling": None,
    }
    if matrix.scaling is not None:
        doc["scaling"] = [
            {
                "name": s.name,
                "mean": {"re": s.mean.real, "im": s.mean.imag},
                "sigma": {"re": s.sigma, "im": s.sigma},
            }
            for s in matrix.scaling
        ]
    return doc


def coded_matrix_from_json_dict(doc: dict) -> CodedMatrix:
    """Rebuild a coded matrix from its JSON form."""
    columns = tuple(
        CodedColumn(str(c["name"]), ColumnSource(c["source"])) for c in doc["columns"]
    )
    data = np.array(
        [[complex(cell["re"], cell["im"]) for cell in row] for row in doc["rows"]],
        dtype=np.complex128,
    )
    decision = tuple(doc["decision"]) if doc.get("decision") is not None else None
    codebooks = tuple(NominalCodebook.from_json_dict(cb) for cb in doc.get("codebooks", []))
    adhoc_codes = {
        name: {t: float(v) for t, v in codes.items()}
        for name, codes in doc.get("adhoc_codes", {}).items()
    }
    scaling = None
    if doc.get("scaling") is not None:
        scaling = []
        for s in doc["scaling"]:
            # one sigma scales both channels; the JSON keeps the re/im pair
            name, re, im = str(s["name"]), float(s["sigma"]["re"]), float(s["sigma"]["im"])
            if re != im:
                raise DataError(f"scaling of column {name!r}: sigma re {re!r} and im {im!r} differ")
            scaling.append(ColumnScaling(name, complex(s["mean"]["re"], s["mean"]["im"]), re))
        scaling = tuple(scaling)
    return CodedMatrix(
        columns=columns,
        data=data,
        decision=decision,
        codebooks=codebooks,
        adhoc_codes=adhoc_codes,
        scaling=scaling,
    )
