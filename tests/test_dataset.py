import math

import pytest
from hypothesis import given, strategies as st

from complexrank.dataset import (
    AttributeSchema,
    Column,
    DataError,
    Dataset,
    Role,
    parse_csv,
)


def make_schema(*pairs):
    return AttributeSchema.from_pairs(pairs)


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
        assert AttributeSchema.from_json(schema.to_json()) == schema

    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            make_schema(("a", "numeric"), ("a", "nominal"))

    def test_two_decision_columns_rejected(self):
        with pytest.raises(DataError, match="decision"):
            make_schema(("a", "numeric"), ("b", "decision"), ("c", "decision"))

    def test_schema_without_features_rejected(self):
        with pytest.raises(DataError, match="feature"):
            AttributeSchema((Column("only", Role.DECISION),))

    def test_unknown_role_rejected(self):
        with pytest.raises(DataError, match="role"):
            AttributeSchema.from_json('{"columns": [{"name": "a", "role": "float"}]}')


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
        assert ds.rows[0] == (1.0, "a")

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
        assert ds.rows == ((1.0, "a"),)

    def test_trailing_blank_line_is_not_a_missing_category_row(self):
        ds = parse_csv("y\na\n\n", make_schema(("y", "nominal")), missing_as_category="unknown")
        assert ds.rows == (("a",),)

    def test_inner_blank_line_is_a_row(self):
        ds = parse_csv("y\na\n\nb\n", make_schema(("y", "nominal")), missing_as_category="unknown")
        assert ds.column("y") == ["a", "unknown", "b"]

    def test_inner_blank_line_error_says_blank(self):
        with pytest.raises(DataError, match=r"row 2: expected 2 cells, the line is blank$"):
            parse_csv("x,y\n1,a\n\n2,b\n", make_schema(("x", "numeric"), ("y", "nominal")))

    def test_no_data_rows(self):
        with pytest.raises(DataError, match="no data rows"):
            parse_csv("x\n", make_schema(("x", "numeric")))


class TestDataset:
    def test_column_requires_known_name(self, cars):
        with pytest.raises(DataError, match="unknown column"):
            cars.column("Gearbox")

    def test_every_cell_belongs_to_exactly_one_column(self, cars):
        rebuilt = list(zip(*(cars.column(n) for n in cars.schema.names)))
        assert tuple(tuple(r) for r in rebuilt) == cars.rows

    def test_decision_labels(self, cars):
        labels = cars.decision_labels()
        assert len(labels) == 10
        assert set(labels) == {"Opel", "Nissan", "Ferrari"}

    def test_rows_validated_on_construction(self):
        schema = make_schema(("x", "numeric"))
        with pytest.raises(DataError, match="finite"):
            Dataset(schema, ((math.inf,),))


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
        again = parse_csv(cars.to_csv(), cars.schema)
        assert again == cars


@pytest.mark.parametrize("brk", [",", *"\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"])
def test_to_csv_refuses_tokens_parse_csv_would_split(brk):
    schema = make_schema(("x", "numeric"), ("c", "nominal"))
    ds = Dataset(schema, ((1.0, "ok"), (2.0, f"a{brk}b")))
    with pytest.raises(DataError, match=r"row 2, column 2 \('c'\): token .* without quoting"):
        ds.to_csv()


simple_token = st.text(alphabet="abcdefXYZ_.-", min_size=1, max_size=6)
# every line boundary str.splitlines() knows, plus the cell separator
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
csv_token = st.one_of(
    simple_token, st.text(alphabet="abXY" + LINE_BREAKS + ",", min_size=1, max_size=4)
)


@st.composite
def datasets(draw):
    n_cols = draw(st.integers(1, 4))
    names = draw(
        st.lists(simple_token, min_size=n_cols, max_size=n_cols, unique=True)
    )
    roles = [draw(st.sampled_from([Role.NUMERIC, Role.NOMINAL])) for _ in names]
    schema = AttributeSchema(tuple(Column(n, r) for n, r in zip(names, roles)))
    n_rows = draw(st.integers(1, 6))
    rows = []
    for _ in range(n_rows):
        row = []
        for role in roles:
            if role is Role.NUMERIC:
                row.append(draw(st.integers(-10**9, 10**9)) / 1000)
            else:
                row.append(draw(csv_token))
        rows.append(tuple(row))
    return Dataset(schema, tuple(rows))


@given(datasets())
def test_csv_round_trip_is_stable(ds):
    try:
        text = ds.to_csv()
    except DataError as exc:
        assert "cannot be written without quoting" in str(exc)
        assert any(
            "," in t or t.splitlines() != [t] for c in ds.schema.columns for t in ds.column(c.name)
            if isinstance(t, str)
        )
        return
    assert parse_csv(text, ds.schema) == ds
