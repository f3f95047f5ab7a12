import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from complexrank.dataset import (
    AttributeSchema,
    Column,
    DataError,
    Dataset,
    Role,
    cars_csv_path,
    csv_header,
    factorize,
    parse_csv,
)
from .oracles import reference_parse_csv, same_dataset, write_csv


def make_schema(*pairs):
    return AttributeSchema.from_pairs(pairs)


def row_tuples(ds):
    """The rows of a dataset, each a tuple of its cells in schema order."""
    return tuple(zip(*(ds.column(n) for n in ds.schema.names)))


class TestSchema:
    def test_roles_parse_from_json(self):
        schema = AttributeSchema.from_json(
            '{"columns": [{"name": "a", "role": "numeric"},'
            ' {"name": "b", "role": "nominal"},'
            ' {"name": "c", "role": "decision"}]}'
        )
        assert [c.role for c in schema.columns] == [Role.NUMERIC, Role.NOMINAL, Role.DECISION]
        assert schema.decision_column.name == "c"
        assert [c.name for c in schema.feature_columns] == ["a", "b"]

    def test_json_round_trip(self):
        schema = make_schema(("x", "numeric"), ("y", "decision"))
        doc = {"columns": [{"name": c.name, "role": c.role.value} for c in schema.columns]}
        assert AttributeSchema.from_json(json.dumps(doc)) == schema

    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            make_schema(("a", "numeric"), ("a", "nominal"))

    def test_two_decision_columns_rejected(self):
        with pytest.raises(DataError, match="decision"):
            make_schema(("a", "numeric"), ("b", "decision"), ("c", "decision"))

    def test_schema_without_features_rejected(self):
        with pytest.raises(DataError, match="feature"):
            AttributeSchema((Column("only", Role.DECISION),))

    @pytest.mark.parametrize("sep", [",", *"\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"])
    def test_name_no_header_can_match_rejected(self, sep):
        with pytest.raises(DataError, match="bad column name"):
            make_schema((f"x{sep}y", "numeric"))

    def test_unknown_role_rejected(self):
        with pytest.raises(DataError, match="role"):
            AttributeSchema.from_json('{"columns": [{"name": "a", "role": "float"}]}')

    @pytest.mark.parametrize("text, message", [
        ('{"columns": [{"name": null, "role": "numeric"}]}', r"schema column 1: name is None, not a string"),
        ('{"columns": [{"name": 5, "role": "numeric"}]}', r"schema column 1: name is 5, not a string"),
        ('{"columns": [{"name": "a", "role": "numeric", "size": 1' + "0" * 5000 + '}]}',
         r"schema is not valid JSON: Exceeds the limit"),
        ("[" * 100_000, r"schema is not valid JSON: maximum recursion depth exceeded"),
        # the value is shown cut short, not the whole object
        (json.dumps({"columns": {str(i): i for i in range(1000)}}), r"schema: columns is \{'0': 0, .*\.\.\.\}, not a list$"),
    ], ids=["null-name", "int-name", "int-beyond-str-digits", "deep-nesting", "columns-object"])
    def test_malformed_schema_json_is_a_data_error(self, text, message):
        with pytest.raises(DataError, match=message):
            AttributeSchema.from_json(text)

    def test_non_string_name_is_a_bad_column_name(self):
        with pytest.raises(DataError, match="bad column name: 5"):
            AttributeSchema((Column(5, Role.NUMERIC),))


class TestParseCsv:
    def test_single_numeric_column(self):
        ds = parse_csv("x\n1\n2\n3\n", make_schema(("x", "numeric")))
        assert ds.column("x") == [1.0, 2.0, 3.0]

    def test_crlf_and_no_trailing_newline(self):
        ds = parse_csv("x,y\r\n1,a\r\n2,b", make_schema(("x", "numeric"), ("y", "nominal")))
        assert ds.n_rows == 2
        assert ds.column("y") == ["a", "b"]

    def test_cells_are_trimmed(self):
        ds = parse_csv("x , y\n 1 , a \n", make_schema(("x", "numeric"), ("y", "nominal")))
        assert (ds.column("x")[0], ds.column("y")[0]) == (1.0, "a")

    def test_decimal_forms(self):
        ds = parse_csv("x\n-1.5\n+2\n.25\n", make_schema(("x", "numeric")))
        assert ds.column("x") == [-1.5, 2.0, 0.25]

    def test_exponent_form_rejected(self):
        with pytest.raises(DataError, match=r"row 1, column 1"):
            parse_csv("x\n1e5\n", make_schema(("x", "numeric")))

    def test_text_in_numeric_column_positions_error(self):
        with pytest.raises(DataError, match=r"row 2, column 1 \('x'\)"):
            parse_csv("x,y\n1,a\noops,b\n", make_schema(("x", "numeric"), ("y", "nominal")))

    def test_nan_and_inf_rejected(self):
        for bad in ("nan", "inf", "-inf"):
            with pytest.raises(DataError):
                parse_csv(f"x\n{bad}\n", make_schema(("x", "numeric")))

    def test_header_mismatch(self):
        with pytest.raises(DataError, match="header"):
            parse_csv("a,b\n1,2\n", make_schema(("x", "numeric"), ("y", "numeric")))

    def test_arity_mismatch_reports_row(self):
        with pytest.raises(DataError, match="row 2"):
            parse_csv("x,y\n1,a\n1,a,b\n", make_schema(("x", "numeric"), ("y", "nominal")))

    def test_empty_nominal_cell_rejected_by_position(self):
        with pytest.raises(DataError, match=r"row 1, column 2 \('y'\): empty"):
            parse_csv("x,y\n1,\n", make_schema(("x", "numeric"), ("y", "nominal")))

    def test_missing_as_category_sentinel(self):
        ds = parse_csv(
            "x,y\n1,\n2,a\n",
            make_schema(("x", "numeric"), ("y", "nominal")),
            missing_as_category="unknown",
        )
        assert ds.column("y") == ["unknown", "a"]

    @pytest.mark.parametrize("tail", ["\n", "\n\n", "\n \n\t\n", "\r\n\r\n"])
    def test_trailing_blank_lines_are_not_rows(self, tail):
        ds = parse_csv("x,y\n1,a" + tail, make_schema(("x", "numeric"), ("y", "nominal")))
        assert row_tuples(ds) == ((1.0, "a"),)

    def test_trailing_blank_line_is_not_a_missing_category_row(self):
        ds = parse_csv("y\na\n\n", make_schema(("y", "nominal")), missing_as_category="unknown")
        assert row_tuples(ds) == (("a",),)

    def test_inner_blank_line_is_a_row(self):
        ds = parse_csv("y\na\n\nb\n", make_schema(("y", "nominal")), missing_as_category="unknown")
        assert ds.column("y") == ["a", "unknown", "b"]

    def test_inner_blank_line_error_says_blank(self):
        with pytest.raises(DataError, match=r"row 2: expected 2 cells, the line is blank$"):
            parse_csv("x,y\n1,a\n\n2,b\n", make_schema(("x", "numeric"), ("y", "nominal")))

    def test_leading_bom_is_dropped(self):
        ds = parse_csv("\ufeffx , y\n1,a\n", make_schema(("x", "numeric"), ("y", "nominal")))
        assert row_tuples(ds) == ((1.0, "a"),)

    @pytest.mark.parametrize("text", ["", "\ufeff"])
    def test_empty_input(self, text):
        with pytest.raises(DataError, match="^input is empty$"):
            parse_csv(text, make_schema(("x", "numeric")))

    def test_no_data_rows(self):
        with pytest.raises(DataError, match="no data rows"):
            parse_csv("x\n", make_schema(("x", "numeric")))


class TestDataset:
    def test_column_requires_known_name(self, cars):
        with pytest.raises(DataError, match="unknown column"):
            cars.column("Gearbox")

    def test_every_cell_belongs_to_exactly_one_column(self, cars):
        # the rows rebuilt from the columns are the fixture's lines, cell for cell
        lines = cars_csv_path().read_text(encoding="utf-8").split()[1:]
        roles = [c.role for c in cars.schema.columns]
        want = tuple(
            tuple(float(c) if r is Role.NUMERIC else c for c, r in zip(line.split(","), roles))
            for line in lines
        )
        assert row_tuples(cars) == want

    def test_decision_labels(self, cars):
        labels = cars.decision_labels()
        assert len(labels) == 10
        assert set(labels) == {"Opel", "Nissan", "Ferrari"}

    @pytest.mark.parametrize("cells, message", [
        ([10**400, 1.0], r"row 1, column 1 \('x'\): an int of 1329 bits does not fit a float"),
        ([1.0, -(2**1024) + 2**970], r"row 2, column 1 \('x'\): an int of 1024 bits does not fit a float"),
        ([1.0, True], r"row 2, column 1 \('x'\): expected a number, got True"),
        ([1.0, "2"], r"row 2, column 1 \('x'\): expected a number, got '2'"),
    ], ids=["huge-int", "least-int-beyond-range", "bool", "string"])
    def test_numeric_cell_must_be_a_number_within_float_range(self, cells, message):
        schema = make_schema(("x", "numeric"), ("c", "nominal"))
        with pytest.raises(DataError, match=message):
            Dataset(schema, [cells, ["a", "b"]])

    def test_float_subclass_and_largest_fitting_int_are_read(self):
        schema = make_schema(("x", "numeric"), ("c", "nominal"))
        largest = 2**1024 - 2**970 - 1  # rounds down to the largest float
        ds = Dataset(schema, [[np.float64(0.5), largest], ["a", "b"]])
        assert ds.column("x") == [0.5, 1.7976931348623157e308]

    def test_rows_validated_on_construction(self):
        schema = make_schema(("x", "numeric"))
        with pytest.raises(DataError, match="finite"):
            Dataset(schema, ([math.inf],))

    @pytest.mark.parametrize("columns, message", [
        (([1.0, 2.0],), r"expected 2 columns, found 1: column 2 \('c'\) has none"),
        (([1.0, 2.0], ["a", "b"], ["z", "z"]), "expected 2 columns, found 3: column 3 has no schema entry"),
    ])
    def test_column_count_must_match_schema(self, columns, message):
        schema = make_schema(("x", "numeric"), ("c", "nominal"))
        with pytest.raises(DataError, match=message):
            Dataset(schema, columns)

    @pytest.mark.parametrize("tokens", [["a"], ["a", "b", "c"]])
    def test_columns_must_share_one_length(self, tokens):
        schema = make_schema(("x", "numeric"), ("c", "nominal"))
        found = len(tokens)
        with pytest.raises(DataError, match=rf"column 2 \('c'\): expected 2 cells, found {found}"):
            Dataset(schema, ([1.0, 2.0], tokens))

    def test_string_column_is_refused(self):
        schema = make_schema(("x", "numeric"), ("c", "nominal"))
        with pytest.raises(DataError, match=r"column 2 \('c'\): expected a sequence of cells, got the string 'abc'"):
            Dataset(schema, [[1.0, 2.0, 3.0], "abc"])

    def test_a_coded_pair_gives_the_column_it_codes(self, cars):
        columns = [cars.codes(c.name) if c.role is not Role.NUMERIC else cars.column(c.name)
                   for c in cars.schema.columns]
        ds = Dataset(cars.schema, columns)
        assert same_dataset(ds, cars)
        assert ds.codes("Color")[0] is cars.codes("Color")[0]  # frozen and owning its data: adopted
        codes = np.array([0, 1, 0])  # writable: copied, so a later write does not reach the dataset
        ds = Dataset(make_schema(("c", "nominal"), ("y", "decision")), [(codes, ("a", "b")), (codes, ("P", "Q"))])
        codes[0] = 1
        assert (ds.column("c"), ds.decision_labels()) == (["a", "b", "a"], ["P", "Q", "P"])

    @pytest.mark.parametrize("pair, message", [
        ((np.array([0, 2, 1]), ("a", "b")), r"row 2, column 2 \('c'\): code 2 is not an index of 2 tokens"),
        ((np.array([0, -1, 1]), ("a", "b")), r"row 2, column 2 \('c'\): code -1 is not an index of 2 tokens"),
        ((np.array([0, 0, 1]), ("a", "b", "z")), r"column 2 \('c'\): token 'z' is in no cell"),
        ((np.array([1, 0, 1]), ("a", "b")), r"row 1, column 2 \('c'\): token 'b' is first seen before 'a'"),
        ((np.array([0, 1, 0]), ("a", "a")), r"column 2 \('c'\): token 'a' is in the vocabulary twice"),
        ((np.array([0, 1, 0]), ("a", "")), r"row 2, column 2 \('c'\): expected a non-empty token, got ''"),
        ((np.array([0, 1, 0]), ("a", 5)), r"row 2, column 2 \('c'\): expected a non-empty token, got 5"),
        ((np.array([0, 1, 0]), ["a", "b"]), r"column 2 \('c'\): the vocabulary must be a tuple, got list"),
        ((np.array([0, 1, 0], dtype=np.int32), ("a", "b")),
         r"column 2 \('c'\): codes must be a 1-D intp array, got 1-D int32"),
        ((np.zeros((3, 1), dtype=np.intp), ("a",)), r"column 2 \('c'\): codes must be a 1-D intp array, got 2-D"),
    ], ids=["past-the-end", "negative", "unused-token", "late-first-occurrence", "repeated-token",
            "empty-token", "non-string-token", "list-vocabulary", "int32-codes", "2-d-codes"])
    def test_a_coded_pair_must_be_one_dataset_codes_gives(self, pair, message):
        with pytest.raises(DataError, match=f"^{message}"):
            Dataset(make_schema(("x", "numeric"), ("c", "nominal")), [[1.0, 2.0, 3.0], pair])

    def test_first_column_may_not_be_empty(self):
        with pytest.raises(DataError, match="no rows"):
            Dataset(make_schema(("x", "numeric"), ("c", "nominal")), ([], []))

    def test_equality_compares_cells(self):
        schema = make_schema(("x", "numeric"), ("c", "nominal"))
        ds = Dataset(schema, ([1.0, -0.0], ["a", "b"]))
        assert same_dataset(ds, Dataset(schema, ([1, 0.0], ["a", "b"])))
        assert not same_dataset(ds, Dataset(schema, ([1.0, 0.5], ["a", "b"])))
        assert not same_dataset(ds, Dataset(schema, ([1.0, -0.0], ["a", "a"])))
        assert not same_dataset(ds, Dataset(schema, ([1.0, -0.0], ["b", "a"])))
        assert not same_dataset(ds, Dataset(make_schema(("x", "numeric"), ("d", "nominal")), ([1.0, -0.0], ["a", "b"])))


class TestCarsFixture:
    def test_shape(self, cars):
        assert cars.n_rows == 10
        assert len(cars.schema.columns) == 7

    def test_known_columns(self, cars):
        assert cars.column("Door") == [2.0, 2.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 4.0, 4.0]
        assert cars.column("Color") == [
            "Blue", "Black", "Black", "Red", "Red", "Red", "Red", "Black", "Blue", "Blue",
        ]

    def test_round_trip(self, cars):
        again = parse_csv(write_csv(cars), cars.schema)
        assert same_dataset(again, cars)


# why write_csv and the round-trip strategies keep to tokens without
# separators or outer blanks: parse_csv has no quoting
@pytest.mark.parametrize("brk", [",", *"\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"])
def test_parse_csv_splits_tokens_at_separators(brk):
    schema = make_schema(("x", "numeric"), ("c", "nominal"))
    with pytest.raises(DataError, match=r"^row \d: expected 2 cells, found [13]"):
        parse_csv(f"x,c\n1.0,ok\n2.0,a{brk}b\n", schema)


@pytest.mark.parametrize("token", [" a", "a\t", "\xa0", " "])
def test_parse_csv_strips_outer_blanks_from_tokens(token):
    schema = make_schema(("x", "numeric"), ("c", "nominal"))
    text = f"x,c\n1.0,ok\n2.0,{token}\n"
    if token.strip():
        assert parse_csv(text, schema).column("c") == ["ok", token.strip()]
    else:
        with pytest.raises(DataError, match=r"^row 2, column 2 \('c'\): empty value$"):
            parse_csv(text, schema)


simple_token = st.text(alphabet="abcdefXYZ_.-", min_size=1, max_size=6)
# every line boundary str.splitlines() knows
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# tokens a CSV cell can hold: inner blanks, none at either end
csv_token = st.one_of(simple_token, st.from_regex(r"[abXY](?:[abXY \t\xa0]{0,2}[abXY])?", fullmatch=True))


@given(st.text(alphabet="ab ,\ufeff" + LINE_BREAKS, max_size=12))
def test_csv_header_reads_the_first_line_that_splitlines_gives(text):
    lines = text.removeprefix("\ufeff").splitlines()
    if not lines:
        with pytest.raises(DataError, match="^input is empty$"):
            csv_header(text)
        return
    assert csv_header(text) == [h.strip() for h in lines[0].split(",")]


@st.composite
def datasets(draw, tokens=csv_token):
    n_cols = draw(st.integers(1, 4))
    names = draw(
        st.lists(simple_token, min_size=n_cols, max_size=n_cols, unique=True)
    )
    roles = [draw(st.sampled_from([Role.NUMERIC, Role.NOMINAL])) for _ in names]
    schema = AttributeSchema(tuple(Column(n, r) for n, r in zip(names, roles)))
    n_rows = draw(st.integers(1, 6))
    numbers = st.integers(-10**9, 10**9).map(lambda i: i / 1000)
    columns = [
        draw(st.lists(numbers if role is Role.NUMERIC else tokens, min_size=n_rows, max_size=n_rows))
        for role in roles
    ]
    return Dataset(schema, columns)


@given(datasets())
def test_csv_round_trip_is_stable(ds):
    assert same_dataset(parse_csv(write_csv(ds), ds.schema), ds)


@given(datasets(simple_token), st.data())
def test_one_changed_cell_breaks_equality(ds, data):
    again = parse_csv(write_csv(ds), ds.schema)
    assert same_dataset(again, ds)
    columns = [ds.column(n) for n in ds.schema.names]
    j = data.draw(st.integers(0, len(columns) - 1), label="column")
    r = data.draw(st.integers(0, ds.n_rows - 1), label="row")
    cell = columns[j][r]
    if isinstance(cell, float):
        columns[j][r] = data.draw(st.sampled_from([cell + 1.0, cell - 0.001]))
    else:
        # another token of the column, or a new one
        columns[j][r] = data.draw(st.sampled_from(sorted(set(columns[j]) - {cell}) + [cell + "x"]))
    changed = Dataset(ds.schema, columns)
    assert not same_dataset(changed, again) and not same_dataset(again, changed)


# numeric cells parse_csv reads, some padded, and cells near to them that it refuses:
# Unicode digits (which \d and float() both accept), a lone sign or point, exponents.
# Of the column check's cases, "1_0" fails the character class (float() would take
# it), and "+-1", "1.2.3" and "-." pass the class and fail float()
numeric_cell = st.one_of(
    st.integers(-10**6, 10**6).map(lambda i: repr(i / 100)),
    st.sampled_from(["7", "+.5", "-3.", " 1.25 ", "\t-0.5", "0012"]),
)
odd_numeric_cell = st.sampled_from(
    ["٣.5", "٣", "1.٥", ".", "+", "-", "+.", "1e3", "", " ", "nan", "𝟏", "５", "1_0", "+-1", "1.2.3", "-."]
)
# the breaks a CSV line may end on, as str.splitlines reads them
CSV_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x1c", "\u2028"]
BLANK = st.sampled_from(["", " ", "\t"])


@st.composite
def csv_tables(draw):
    """(text, schema, missing_as_category): a CSV table, valid or with parse_csv's faults.

    Odd tables may hold numeric cells that are not plain decimals and empty
    nominal cells. Any table may get one row with an extra comma and a later
    row with one comma fewer, so that the cell total still balances, a blank
    line inside and blank lines after the last row.
    """
    n_cols = draw(st.integers(1, 4))
    names = draw(st.lists(simple_token, min_size=n_cols, max_size=n_cols, unique=True))
    roles = draw(st.lists(st.sampled_from([Role.NUMERIC, Role.NOMINAL]), min_size=n_cols, max_size=n_cols))
    schema = AttributeSchema(tuple(Column(n, r) for n, r in zip(names, roles)))
    numeric, nominal = numeric_cell, st.one_of(csv_token, csv_token.map(lambda t: f" {t}\t"))
    if draw(st.booleans()):  # an odd table
        numeric, nominal = st.one_of(numeric, odd_numeric_cell), st.one_of(nominal, BLANK)
    n_rows = draw(st.integers(1, 6))
    lines = [",".join(draw(numeric if r is Role.NUMERIC else nominal) for r in roles) for _ in range(n_rows)]
    if n_rows > 1 and draw(st.booleans()):
        i = draw(st.integers(0, n_rows - 2))
        j = draw(st.integers(i + 1, n_rows - 1))
        lines[i] += ","
        lines[j] = lines[j].replace(",", "", 1)
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, n_rows - 1)), draw(BLANK))
    lines = [",".join(names), *lines, *draw(st.lists(BLANK, max_size=3))]
    text = "".join(line + draw(st.sampled_from(CSV_BREAKS)) for line in lines[:-1]) + lines[-1]
    return text, schema, draw(st.sampled_from([None, "NA"]))


@given(csv_tables())
@example(("a,b\n1,x,\n2\n", make_schema(("a", "numeric"), ("b", "nominal")), None))
@example(("a,b\r\n1,x\u2028 \u20282,y\x0b\x1c \n", make_schema(("a", "numeric"), ("b", "nominal")), None))
@example(("a,b\n٣.5,\n.,y\n", make_schema(("a", "numeric"), ("b", "nominal")), "NA"))
# raw tokens that strip to one, and a missing cell that takes an existing token
@example(("a,b\n1, a\n2,a\n3,a\t\n", make_schema(("a", "numeric"), ("b", "nominal")), None))
@example(("a,b\n1,NA\n2,\n3, \n4,y\n", make_schema(("a", "numeric"), ("b", "nominal")), "NA"))
def test_parse_csv_matches_the_line_by_line_oracle(table):
    text, schema, missing = table

    def outcome(parse):
        try:
            return parse(text, schema, missing_as_category=missing)
        except DataError as exc:
            return f"DataError: {exc}"
    got, want = outcome(parse_csv), outcome(reference_parse_csv)
    assert type(got) is type(want) and (got == want if isinstance(got, str) else same_dataset(got, want))


@pytest.mark.parametrize("bad", ["1e3", "", "1_0"])
def test_one_bad_cell_at_the_end_of_a_long_numeric_column(bad):
    # the column check fails as a whole (float() alone would take "1_0"); the
    # row it names comes from the cell by cell scan
    schema = make_schema(("x", "numeric"), ("c", "nominal"))
    text = "x,c\n" + "".join(f"{r / 8!r},t\n" for r in range(49_999)) + f"{bad},t\n"
    with pytest.raises(DataError) as want:
        reference_parse_csv(text, schema)
    with pytest.raises(DataError) as got:
        parse_csv(text, schema)
    assert str(got.value) == str(want.value) == f"row 50000, column 1 ('x'): {bad!r} is not a plain decimal number"


NAN = float("nan")


@given(st.lists(st.sampled_from(["a", "b", "", 1, 1.0, True, 0, False, -0.0, NAN, float("nan"), np.int64(1)])))
def test_factorize_codes_by_first_occurrence(values):
    # the one-cell-at-a-time reference: equal values share a code, the first
    # of them names it; a NaN object only matches itself
    index = {}
    want = [index.setdefault(v, len(index)) for v in values]
    for given_as in (values, tuple(values), iter(values), np.array(values, dtype=object)):
        codes, distinct = factorize(given_as)
        assert codes.dtype == np.intp and codes.tolist() == want and not codes.flags.writeable
        assert len(distinct) == len(index) and all(a is b for a, b in zip(distinct, index))
