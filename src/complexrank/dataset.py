"""Tabular mixed data: column schemas, validated datasets, CSV ingestion.

Each column is a numeric feature, a nominal (categorical) feature, or the
single decision column that carries class labels. Ingestion is strict by
design: the schema is always explicit, numbers use a '.' decimal separator
with no exponent forms, nominal tokens are compared byte-for-byte after
trimming, and every error names the 1-based row and column it came from.
"""

from __future__ import annotations

import json
import re
import reprlib
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from pathlib import Path
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

Cell = float | str

# Integer or plain decimal, optional sign. No exponents, no inf/nan.
_NUMBER = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)")
# _NUMBER's characters and whitespace: within them float() reads exactly
# _NUMBER's forms, after stripping the whitespace str.strip strips
_NUMBER_CHARS = re.compile(r"[\d\s+.\-]*")
# One line: the text up to the first break that str.splitlines ends a line on.
_LINE = re.compile("[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]*")


class DataError(ValueError):
    """Input data violates its schema or the expected file format."""


_KINDS = {list: "a list", dict: "an object", str: "a string", int: "an integer"}


def read_field(obj: object, key: str, kind: type, where: str):
    """obj[key] of outside JSON, where obj must be an object and the value a
    `kind` (a bool is no integer); else a DataError names the field."""
    if not isinstance(obj, dict):
        raise DataError(f"{where} is not an object: {reprlib.repr(obj)}")
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise DataError(f"{where}: {key} is {reprlib.repr(value)}, not {_KINDS[kind]}")
    return value


def read_enum(obj: object, key: str, kind: type[Enum], where: str) -> Enum:
    """The member of the string enum `kind` named by obj[key]; else a
    DataError names the field and the choices."""
    value = read_field(obj, key, str, where)
    if value not in {m.value for m in kind}:
        raise DataError(f"{where}: unknown {key} {value!r} (expected one of: {', '.join(m.value for m in kind)})")
    return kind(value)


def read_numbers(values: Sequence, where: Callable[[int], str]) -> np.ndarray:
    """The float64 array of numbers from outside the program: ints or floats
    or subclasses of them, never bools, the ints within float range; else a
    DataError names where(i) of the first value that is not. The types are
    tested once per distinct type, so good input takes one conversion."""
    if not all(issubclass(t, (int, float)) and not issubclass(t, bool) for t in set(map(type, values))):
        i, v = next((i, v) for i, v in enumerate(values) if isinstance(v, bool) or not isinstance(v, (int, float)))
        raise DataError(f"{where(i)}: expected a number, got {reprlib.repr(v)}")
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        # 2**1024 - 2**970 is the least int that float() rounds past the largest float
        i, v = next((i, v) for i, v in enumerate(values) if isinstance(v, int) and abs(v) >= 2**1024 - 2**970)
        raise DataError(f"{where(i)}: an int of {v.bit_length()} bits does not fit a float") from None


class Role(Enum):
    NUMERIC = "numeric"
    NOMINAL = "nominal"
    DECISION = "decision"


@dataclass(frozen=True)
class Column:
    name: str
    role: Role


@dataclass(frozen=True)
class AttributeSchema:
    """Ordered column declarations for one table."""

    columns: tuple[Column, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))
        names = [c.name for c in self.columns]
        for n in names:
            if not isinstance(n, str) or not _fits_cell(n):
                raise DataError(f"bad column name: {n!r}")
        if len(set(names)) != len(names):
            dup = next(n for n in names if names.count(n) > 1)
            raise DataError(f"duplicate column name: {dup!r}")
        if sum(c.role is Role.DECISION for c in self.columns) > 1:
            raise DataError("at most one decision column is allowed")
        if not any(c.role in (Role.NUMERIC, Role.NOMINAL) for c in self.columns):
            raise DataError("schema needs at least one feature column")

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[str, Role | str]]) -> "AttributeSchema":
        cols = tuple(Column(n, r if isinstance(r, Role) else Role(r)) for n, r in pairs)
        return cls(cols)

    @classmethod
    def from_json(cls, text: str) -> "AttributeSchema":
        """Load a schema from its JSON form: {"columns": [{"name", "role"}, ...]}."""
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
            raise DataError(f"schema is not valid JSON: {exc}") from exc
        return cls(tuple(
            Column(read_field(c, "name", str, f"schema column {i}"), read_enum(c, "role", Role, f"schema column {i}"))
            for i, c in enumerate(read_field(doc, "columns", list, "schema"), start=1)
        ))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    @property
    def feature_columns(self) -> tuple[Column, ...]:
        return tuple(c for c in self.columns if c.role is not Role.DECISION)

    @property
    def decision_column(self) -> Column | None:
        for c in self.columns:
            if c.role is Role.DECISION:
                return c
        return None

    def index(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise DataError(f"unknown column: {name!r}")


def factorize(values: Iterable[Hashable]) -> tuple[np.ndarray, tuple]:
    """Integer codes of values, and the distinct values in first-occurrence order."""
    values = values if isinstance(values, (list, tuple)) else list(values)
    # the distinct values, then each cell's code, by two loops in C
    index = dict.fromkeys(values)
    for code, value in enumerate(index):
        index[value] = code
    codes = np.fromiter(map(index.__getitem__, values), dtype=np.intp, count=len(values))
    codes.flags.writeable = False
    return codes, tuple(index)


def _numbers(values: np.ndarray, where: str) -> np.ndarray:
    """Refuse a float64 column with a value that is not finite, naming its
    row; freeze and return the column."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise DataError(f"row {bad[0] + 1}, {where}: number must be finite")
    values.flags.writeable = False
    return values


def _tokens(codes: np.ndarray, vocabulary: tuple, where: str) -> tuple[np.ndarray, tuple]:
    """Refuse a coded column with a token that is not a non-empty str,
    naming the first row that holds one; return the column."""
    for c, token in enumerate(vocabulary):
        if not isinstance(token, str) or not token:
            r = int(np.argmax(codes == c)) + 1
            raise DataError(f"row {r}, {where}: expected a non-empty token, got {reprlib.repr(token)}")
    return codes, vocabulary


class Dataset:
    """A table whose cells have been validated once against a schema.

    The constructor takes one sequence of cells per schema column, all of
    the same length. Cells are stored by column as read-only (values,
    vocabulary) pairs. A numeric column is a float64 array with vocabulary
    None; a nominal or decision column is an array of integer codes into
    its vocabulary, the distinct tokens in first-occurrence order.
    """

    def __init__(self, schema: AttributeSchema, columns: Sequence[Sequence[Cell]]) -> None:
        """Check each column in one pass and keep it in array form."""
        width = len(schema.columns)
        if len(columns) != width:
            missing = (f"column {len(columns) + 1} ({schema.columns[len(columns)].name!r}) has none"
                       if len(columns) < width else f"column {width + 1} has no schema entry")
            raise DataError(f"expected {width} columns, found {len(columns)}: {missing}")
        n_rows = len(columns[0])
        if not n_rows:
            raise DataError("dataset has no rows")
        stored: list = []
        for j, (col, cells) in enumerate(zip(schema.columns, columns), start=1):
            where = f"column {j} ({col.name!r})"
            if isinstance(cells, str):
                raise DataError(f"{where}: expected a sequence of cells, got the string {cells!r}")
            if len(cells) != n_rows:
                raise DataError(f"{where}: expected {n_rows} cells, found {len(cells)}")
            if col.role is Role.NUMERIC:
                stored.append((_numbers(read_numbers(cells, lambda r: f"row {r + 1}, {where}"), where), None))
                continue
            try:
                codes, vocabulary = factorize(cells)
            except TypeError:  # an unhashable cell, which is no token: name the first bad cell
                _tokens(np.arange(n_rows), tuple(cells), where)
                raise
            stored.append(_tokens(codes, vocabulary, where))
        self._keep(schema, stored)

    def _keep(self, schema: AttributeSchema, stored: list) -> "Dataset":
        """Hold columns already checked and in stored form; return self."""
        self.schema = schema
        self.n_rows = len(stored[0][0])
        self._columns = tuple(stored)
        return self

    def numeric(self, name: str) -> np.ndarray:
        """The float64 array of a numeric column."""
        values, vocabulary = self._columns[self.schema.index(name)]
        if vocabulary is not None:
            raise DataError(f"column {name!r} is not numeric")
        return values

    def codes(self, name: str) -> tuple[np.ndarray, tuple[str, ...]]:
        """The integer codes of a nominal or decision column, and its vocabulary."""
        return self._columns[self.schema.index(name)]

    def column(self, name: str) -> list[Cell]:
        """All cells of one column, in row order."""
        values, vocabulary = self._columns[self.schema.index(name)]
        if vocabulary is None:
            return values.tolist()
        return list(map(vocabulary.__getitem__, values.tolist()))

    def decision_labels(self) -> list[str] | None:
        col = self.schema.decision_column
        return None if col is None else self.column(col.name)


def _fits_cell(text: str) -> bool:
    """Whether parse_csv reads text back unchanged as one unquoted cell.

    It strips every cell and splits lines with str.splitlines, which
    breaks on more than \\n and \\r (\\x0c, \\x85, \\u2028, ...).
    """
    return text.strip() == text and "," not in text and text.splitlines() == [text]


def csv_header(text: str) -> list[str]:
    """The names on CSV text's first line as parse_csv reads them: BOM dropped, split on ',', trimmed.

    Text with no first line (empty, or only a BOM) is a DataError.
    """
    start = 1 if text.startswith("\ufeff") else 0
    if start == len(text):
        raise DataError("input is empty")
    return [h.strip() for h in _LINE.match(text, start).group().split(",")]


def parse_csv(
    text: str,
    schema: AttributeSchema,
    *,
    missing_as_category: str | None = None,
) -> Dataset:
    """Parse strict comma-separated text against a schema.

    The first line must repeat the schema's column names in order. Cells
    are trimmed of surrounding whitespace; numeric cells must be plain
    integer or decimal literals. Empty nominal cells are rejected unless
    missing_as_category supplies a replacement token. Lines after the last
    non-blank line are not rows; a blank line before it is one.
    """
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
    commas = list(map(str.count, lines[1:], repeat(",")))
    if commas.count(width - 1) != len(commas):
        r = next(r for r, c in enumerate(commas, start=1) if c != width - 1)
        found = (
            "the line is blank" if not commas[r - 1] and not lines[r].strip()
            else f"found {commas[r - 1] + 1} (embedded commas are not supported)"
        )
        raise DataError(f"row {r}: expected {width} cells, {found}")
    # every row holds width cells, so cell j of row r is flat[r * width + j]
    flat = ",".join(lines[1:]).split(",")
    del lines  # the cells now hold the text; dropping the lines keeps the peak low
    columns = []
    for j, col in enumerate(schema.columns, start=1):
        cells = flat[j - 1::width]
        where = f"column {j} ({col.name!r})"
        if col.role is Role.NUMERIC:
            # one match over the column, and float() on each cell, which strips
            # it as str.strip does; a failure is found cell by cell
            try:
                if not _NUMBER_CHARS.fullmatch("\n".join(cells)):
                    raise ValueError
                values = np.fromiter(map(float, cells), np.float64, len(cells))
            except ValueError:
                r, cell = next((r, c) for r, c in enumerate(map(str.strip, cells), 1) if not _NUMBER.fullmatch(c))
                raise DataError(f"row {r}, {where}: {cell!r} is not a plain decimal number") from None
            columns.append((_numbers(values, where), None))
            continue
        # each distinct raw cell is stripped once; tokens that strip to one
        # text are merged, the first seen first, and so is a missing cell
        # with the token that stands for it
        codes, raw = factorize(cells)
        tokens = [t.strip() for t in raw]
        if "" in tokens:
            if missing_as_category is None:
                raise DataError(f"row {int(np.argmax(codes == tokens.index(''))) + 1}, {where}: empty value")
            tokens = [t or missing_as_category for t in tokens]
        merged, vocabulary = factorize(tokens)
        if len(vocabulary) < len(raw):
            codes = merged[codes]
            codes.flags.writeable = False
        columns.append(_tokens(codes, vocabulary, where))
    # every column is finished and checked, so Dataset's cell checks are skipped
    return Dataset.__new__(Dataset)._keep(schema, columns)


_FIXTURES = Path(__file__).parent / "fixtures"


def cars_csv_path() -> Path:
    """Path of the bundled 10-car demo table."""
    return _FIXTURES / "cars.csv"


def cars_schema_path() -> Path:
    return _FIXTURES / "cars.schema.json"


def load_cars() -> Dataset:
    """The bundled car-lot table: 2 numeric, 4 nominal, 1 decision column."""
    schema = AttributeSchema.from_json(cars_schema_path().read_text(encoding="utf-8"))
    return parse_csv(cars_csv_path().read_text(encoding="utf-8"), schema)
