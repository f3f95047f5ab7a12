import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from complexrank import (
    DataError,
    EncodeMode,
    adhoc_codebook,
    base_rank,
    build_codebook,
    coded_matrix_from_json_dict,
    coded_matrix_to_json,
    coded_matrix_to_json_dict,
    encode_dataset,
    root_of_unity,
    standardize,
)
from complexrank import coding
from complexrank.coding import (
    CodedColumn,
    CodedMatrix,
    ColumnSource,
    ComplexRank,
    NominalCodebook,
)
from complexrank.dataset import AttributeSchema, Column, Dataset, Role

from .oracles import encode_oracle, reference_encode_dataset, reference_encode_json

token_lists = st.lists(
    st.text(alphabet="abcdef", min_size=1, max_size=2), min_size=1, max_size=40
)


def onehot_block(values):
    """The one-hot block encode_dataset gives a one-column nominal dataset."""
    schema = AttributeSchema((Column("t", Role.NOMINAL),))
    return encode_dataset(Dataset(schema, [values]), EncodeMode.ONEHOT).data


class TestBaseRank:
    def test_small_values(self):
        assert base_rank(1) == 1.0
        assert base_rank(4) == 2.5
        assert base_rank(6) == 3.5

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            base_rank(0)
        with pytest.raises(ValueError):
            base_rank(-3)

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            base_rank(2.5)


class TestRootOfUnity:
    def test_axis_aligned_roots_are_exact(self):
        assert root_of_unity(0, 1) == 1 + 0j
        assert root_of_unity(1, 2) == -1 + 0j
        assert root_of_unity(1, 4) == 1j
        assert root_of_unity(3, 4) == -1j
        assert root_of_unity(2, 4) == -1 + 0j

    def test_generic_roots(self):
        z = root_of_unity(1, 3)
        assert z.real == pytest.approx(-0.5, abs=1e-12)
        assert z.imag == pytest.approx(math.sqrt(3) / 2, abs=1e-12)

    @given(st.integers(0, 30), st.integers(1, 30))
    def test_unit_modulus(self, j, k):
        assert abs(root_of_unity(j, k)) == pytest.approx(1.0, abs=1e-12)


class TestBuildCodebook:
    def test_distinct_frequencies_stay_real(self):
        # three classes with frequencies 6, 5, 4
        values = ["a"] * 6 + ["b"] * 5 + ["c"] * 4
        cb = build_codebook(values)
        assert cb.entries["a"].value == 3.5 + 0j
        assert cb.entries["b"].value == 3.0 + 0j
        assert cb.entries["c"].value == 2.5 + 0j
        for e in cb.entries.values():
            assert e.rank.group_size == 1
            assert e.rank.phase == 0.0

    def test_frequency_ties_spread_over_roots_of_unity(self):
        values = ["a"] * 3 + ["b"] * 3 + ["c"] * 3 + ["d"] * 6
        cb = build_codebook(values)
        a, b, c, d = (cb.entries[t].rank for t in "abcd")
        assert (a.modulus, b.modulus, c.modulus, d.modulus) == (2.0, 2.0, 2.0, 3.5)
        assert a.phase == 0.0
        assert b.phase == 2 * math.pi / 3
        assert c.phase == 2 * math.pi * 2 / 3
        assert d.phase == 0.0
        assert (a.group_index, b.group_index, c.group_index) == (0, 1, 2)
        assert all(r.group_size == 3 for r in (a, b, c))
        # printed two-decimal forms of the same codes
        assert a.value == pytest.approx(2.0, abs=0.005)
        assert b.value == pytest.approx(-1 + 1.73j, abs=0.005)
        assert c.value == pytest.approx(-1 - 1.73j, abs=0.005)
        assert d.value == pytest.approx(3.5, abs=0.005)

    def test_pair_tie_lands_on_plus_minus(self):
        # Blue and Black tie at 3, Red is alone at 4; first occurrence wins j=0
        values = ["Blue", "Black", "Black", "Red", "Red", "Red", "Red", "Black", "Blue", "Blue"]
        cb = build_codebook(values, attribute="Color")
        assert cb.entries["Blue"].value == 2 + 0j
        assert cb.entries["Black"].value == -2 + 0j  # exactly real, not -2 + tiny*i
        assert cb.entries["Red"].value == 2.5 + 0j
        assert cb.entries["Black"].rank.phase == math.pi

    def test_single_token_column(self):
        cb = build_codebook(["x"])
        assert cb.entries["x"].value == 1 + 0j

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_codebook([])

    @given(token_lists)
    def test_codes_are_injective(self, values):
        cb = build_codebook(values)
        codes = [e.rank.value for e in cb.entries.values()]
        assert len(set(codes)) == len(codes)

    @given(token_lists)
    def test_frequency_recoverable_from_modulus(self, values):
        cb = build_codebook(values)
        for e in cb.entries.values():
            assert 2 * e.rank.modulus - 1 == e.frequency

    @given(token_lists)
    def test_tie_groups_sum_to_zero(self, values):
        # roots of unity for k >= 2 cancel, so each tie group's codes sum to 0
        cb = build_codebook(values)
        groups = {}
        for e in cb.entries.values():
            if e.rank.group_size >= 2:
                groups.setdefault(e.frequency, []).append(e.rank.value)
        for group in groups.values():
            assert abs(sum(group)) < 1e-12 * max(1.0, max(abs(z) for z in group))

    @given(token_lists, st.randoms(use_true_random=False))
    def test_permuting_input_permutes_codes_within_groups_only(self, values, rnd):
        shuffled = list(values)
        rnd.shuffle(shuffled)
        cb1, cb2 = build_codebook(values), build_codebook(shuffled)
        group_sets1 = {}
        group_sets2 = {}
        for cb, acc in ((cb1, group_sets1), (cb2, group_sets2)):
            for e in cb.entries.values():
                acc.setdefault(e.frequency, set()).add(e.rank.value)
        assert group_sets1 == group_sets2

    @given(token_lists)
    def test_phase_step_reveals_group_size(self, values):
        cb = build_codebook(values)
        for e in cb.entries.values():
            r = e.rank
            if r.group_size > 1 and r.group_index == 1:
                assert r.phase == 2 * math.pi / r.group_size


class TestEncodeColumn:
    def test_applies_codebook_in_order(self):
        values = ["Petrol", "Diesel", "Petrol", "Petrol", "Petrol", "Diesel", "LPG",
                  "Petrol", "LPG", "Diesel"]
        cb = build_codebook(values, attribute="Fuel")
        assert [cb.entries[v].value for v in values] == [
            3, 2, 3, 3, 3, 2, 1.5, 3, 1.5, 2,
        ]


class TestBaselines:
    def test_adhoc_uses_first_occurrence_order(self):
        values = ["Blue", "Black", "Black", "Red", "Blue"]
        assert adhoc_codebook(values) == {"Blue": 1.0, "Black": 2.0, "Red": 3.0}

    def test_adhoc_single_value(self):
        assert adhoc_codebook(["x", "x", "x"]) == {"x": 1.0}

    def test_onehot_basis_vectors(self):
        m = onehot_block(["a", "b", "a"])
        assert m.tolist() == [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
        assert m.dtype == np.complex128 and np.all(m.imag == 0)

    @given(token_lists)
    def test_onehot_distinct_tokens_sit_sqrt2_apart(self, values):
        m = onehot_block(values)
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                d = float(np.linalg.norm(m[i] - m[j]))
                if values[i] == values[j]:
                    assert d == 0.0
                else:
                    assert d == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_onehot_adds_one_axis_per_token(self):
        m = onehot_block(["r", "g", "b", "g"])
        assert m.shape == (4, 3)


class TestEncodeDataset:
    def test_combined_reproduces_known_car_codes(self, cars):
        m = encode_dataset(cars, EncodeMode.COMBINED)
        assert m.column_names == ("Door", "Power", "Color", "Fuel", "Interior", "Wheel")
        assert m.column("Color").tolist() == [2, -2, -2, 2.5, 2.5, 2.5, 2.5, -2, 2, 2]
        assert m.column("Fuel").tolist() == [3, 2, 3, 3, 3, 2, 1.5, 3, 1.5, 2]
        assert m.column("Interior").tolist() == [3.5, 3.5, 2.5, 2.5, 3.5, 2.5, 3.5, 2.5, 3.5, 3.5]
        assert m.column("Wheel").tolist() == [3.5, 3.5, 2.5, 2.5, 3.5, 3.5, 3.5, 2.5, 3.5, 2.5]
        assert m.column("Door").tolist() == [2, 2, 2, 2, 2, 3, 3, 3, 4, 4]

    def test_decision_column_is_labels_not_a_feature(self, cars):
        m = encode_dataset(cars, EncodeMode.COMBINED)
        assert "Brand" not in m.column_names
        assert m.decision == tuple(cars.decision_labels())

    def test_numeric_only(self, cars):
        m = encode_dataset(cars, EncodeMode.NUMERIC)
        assert m.column_names == ("Door", "Power")
        assert m.data.shape == (10, 2)
        assert np.all(m.data.imag == 0)

    def test_nominal_only(self, cars):
        m = encode_dataset(cars, EncodeMode.NOMINAL)
        assert m.column_names == ("Color", "Fuel", "Interior", "Wheel")
        assert len(m.codebooks) == 4

    def test_complex_mode_is_an_alias_for_combined(self, cars):
        a = encode_dataset(cars, EncodeMode.COMPLEX)
        b = encode_dataset(cars, EncodeMode.COMBINED)
        assert a.column_names == b.column_names
        assert np.array_equal(a.data, b.data)

    def test_adhoc_mode(self, cars):
        m = encode_dataset(cars, EncodeMode.ADHOC)
        assert m.column_names == ("Door", "Power", "Color", "Fuel", "Interior", "Wheel")
        assert m.adhoc_codes["Color"] == {"Blue": 1.0, "Black": 2.0, "Red": 3.0}
        assert m.column("Color").tolist() == [1, 2, 2, 3, 3, 3, 3, 2, 1, 1]
        assert np.all(m.data.imag == 0)

    def test_onehot_mode_blocks_sit_in_column_position(self, cars):
        m = encode_dataset(cars, EncodeMode.ONEHOT)
        names = m.column_names
        assert names[:2] == ("Door", "Power")
        assert names[2:5] == ("Color=Blue", "Color=Black", "Color=Red")
        assert m.data.shape == (10, 2 + 3 + 3 + 2 + 2)
        assert np.all(m.data.imag == 0)

    def test_numeric_mode_needs_numeric_columns(self, cars):
        from complexrank.dataset import AttributeSchema, Dataset

        schema = AttributeSchema.from_pairs([("Color", "nominal")])
        ds = Dataset(schema, (["r", "g", "b"],))
        with pytest.raises(DataError, match="numeric"):
            encode_dataset(ds, EncodeMode.NUMERIC)

    def test_nominal_mode_needs_nominal_columns(self, cars):
        from complexrank.dataset import AttributeSchema, Dataset

        schema = AttributeSchema.from_pairs([("x", "numeric")])
        ds = Dataset(schema, ([1.0, 2.0],))
        for mode in (EncodeMode.NOMINAL, EncodeMode.ADHOC, EncodeMode.ONEHOT):
            with pytest.raises(DataError, match="nominal"):
                encode_dataset(ds, mode)

    @pytest.mark.parametrize("mode", list(EncodeMode))
    def test_a_modes_value_selects_that_mode(self, cars, mode):
        want = coded_matrix_to_json(encode_dataset(cars, mode), mode)
        assert coded_matrix_to_json(encode_dataset(cars, mode.value), mode) == want

    def test_an_unknown_mode_is_refused(self, cars):
        # it once fell through to the one-hot branch
        with pytest.raises(ValueError, match="fourier"):
            encode_dataset(cars, "fourier")

    def test_matrix_is_immutable(self, cars):
        m = encode_dataset(cars, EncodeMode.COMBINED)
        with pytest.raises(ValueError):
            m.data[0, 0] = 99


class TestSerialization:
    def test_codebook_json_shape(self, cars):
        cb = build_codebook([str(v) for v in cars.column("Color")], attribute="Color")
        doc = cb.to_json_dict()
        assert doc["attribute"] == "Color"
        black = doc["entries"]["Black"]
        assert black == {
            "n": 3,
            "modulus": 2.0,
            "phase": math.pi,
            "j": 1,
            "k": 2,
            "re": -2.0,
            "im": 0.0,
        }

    def test_codebook_json_round_trip(self, cars):
        from complexrank.coding import NominalCodebook

        cb = build_codebook([str(v) for v in cars.column("Fuel")], attribute="Fuel")
        again = NominalCodebook.from_json_dict(json.loads(json.dumps(cb.to_json_dict())))
        assert again == cb

    @pytest.mark.parametrize("mode", list(EncodeMode))
    def test_coded_matrix_json_round_trip(self, cars, mode):
        m = encode_dataset(cars, mode)
        doc = json.loads(json.dumps(coded_matrix_to_json_dict(m)))
        again = coded_matrix_from_json_dict(doc)
        assert again.columns == m.columns
        assert np.array_equal(again.data, m.data)
        assert again.decision == m.decision
        assert again.codebooks == m.codebooks
        assert again.adhoc_codes == m.adhoc_codes

    def test_scaled_matrix_json_round_trip(self, cars):
        from complexrank import standardize

        m = standardize(encode_dataset(cars, EncodeMode.COMBINED))
        again = coded_matrix_from_json_dict(coded_matrix_to_json_dict(m))
        assert again.scaling == m.scaling
        assert np.array_equal(again.data, m.data)

    def test_unequal_sigma_pair_rejected_on_read(self, cars):
        from complexrank import standardize

        doc = coded_matrix_to_json_dict(standardize(encode_dataset(cars, EncodeMode.COMBINED)))
        doc["scaling"][2]["sigma"]["im"] += 1e-9
        with pytest.raises(DataError, match=r"scaling of column 'Color': sigma\.im is .*, expected "):
            coded_matrix_from_json_dict(doc)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda sc: sc[2].update(sigma={"re": -1, "im": -1}),
             r"scaling of column 'Color': sigma -1.0 is not finite and positive"),
            (lambda sc: sc[2].update(mean={"re": math.nan, "im": 0.0}),
             r"scaling of column 'Color': mean .*nan.* is not finite"),
            (lambda sc: sc[2].update(name="Colour"),
             r"scaling of column 'Color': name is 'Colour', expected 'Color'"),
            (lambda sc: sc.__delitem__(slice(2, None)),
             r"scaling has 2 entries for 6 columns: column 'Color' has none"),
            (lambda sc: sc.append(sc[0]),
             r"scaling has 7 entries for 6 columns: entry 7 has no column"),
            (lambda sc: sc[0].update(sigma={"re": 0.0, "im": 0.0}),
             r"scaling of column 'Door': sigma 0.0 is not finite and positive"),
            (lambda sc: sc[0].update(sigma={"re": math.inf, "im": math.inf}),
             r"scaling of column 'Door': sigma inf is not finite and positive"),
            (lambda sc: sc[0].update(sigma={"re": math.nan, "im": math.nan}),
             r"scaling of column 'Door': sigma nan is not finite and positive"),
            (lambda sc: sc[0]["mean"].update(re=10**400),
             r"scaling of column 'Door', mean\.re: an int of 1329 bits does not fit a float"),
            (lambda sc: sc[0]["sigma"].update(re=-(10**400)),
             r"scaling of column 'Door', sigma\.re: an int of 1329 bits does not fit a float"),
            # the scaled map values overflow; a value that is not finite matches no cell
            (lambda sc: sc[2].update(mean={**sc[2]["mean"], "re": 1e308}, sigma={"re": 0.5, "im": 0.5}),
             r"coded cell at row 1, column 3 \('Color'\) is .*, which no entry of its map gives"),
            (lambda sc: sc[2].update(sigma={"re": 1e-320, "im": 1e-320}),
             r"coded cell at row 1, column 3 \('Color'\) is .*, which no entry of its map gives"),
        ],
        ids=["negative-sigma", "nan-mean", "unknown-name", "short-list", "long-list",
             "zero-sigma", "inf-sigma", "nan-sigma", "huge-int-mean", "huge-int-sigma",
             "overflowing-mean", "subnormal-sigma"],
    )
    def test_bad_scaling_entry_rejected_on_read(self, cars, edit, message):
        doc = coded_matrix_to_json_dict(standardize(encode_dataset(cars, EncodeMode.COMBINED)))
        edit(doc["scaling"])
        with pytest.raises(DataError, match=message):
            coded_matrix_from_json_dict(doc)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda rows: rows[3].pop(), r"coded row 4 must hold 6 cells, found 5 cells"),
            (lambda rows: rows[0].append(rows[0][0]), r"coded row 1 must hold 6 cells, found 7 cells"),
            (lambda rows: rows.__setitem__(2, None), r"coded row 3 must hold 6 cells, found NoneType"),
            (lambda rows: rows[3][1].update(re="100"),
             r"coded cell at row 4, column 2 \('Power'\), re: expected a number, got '100'"),
            (lambda rows: rows[3][1].update(re=True),
             r"coded cell at row 4, column 2 \('Power'\), re: expected a number, got True"),
            (lambda rows: rows[9][5].update(im=False),
             r"coded cell at row 10, column 6 \('Wheel'\), im: expected a number, got False"),
            (lambda rows: rows[3][1].pop("im"),
             r"coded cell at row 4, column 2 \('Power'\) is not a re/im pair"),
            (lambda rows: rows[3].__setitem__(1, [100.0, 0.0]),
             r"coded cell at row 4, column 2 \('Power'\) is not a re/im pair"),
            (lambda rows: rows[3][1].update(re=10**400),
             r"coded cell at row 4, column 2 \('Power'\), re: an int of 1329 bits does not fit a float"),
        ],
        ids=["short-row", "long-row", "null-row", "string-re", "true-re", "false-im",
             "missing-im", "list-cell", "huge-int"],
    )
    @pytest.mark.parametrize("rows_per_block", [None, 3])
    def test_bad_cell_rejected_on_read(self, monkeypatch, cars, edit, message, rows_per_block):
        # the reader takes the cells a block of rows at a time; three-row
        # blocks put rows 4 and 10 in later blocks
        if rows_per_block is not None:
            monkeypatch.setattr(coding, "_BLOCK_BYTES", 16 * 6 * rows_per_block)
        doc = coded_matrix_to_json_dict(encode_dataset(cars, EncodeMode.COMBINED))
        edit(doc["rows"])
        with pytest.raises(DataError, match=message):
            coded_matrix_from_json_dict(doc)

    @pytest.mark.parametrize("rows_per_block", [None, 1, 3])
    def test_read_cells_are_adopted_as_written(self, monkeypatch, cars, rows_per_block):
        if rows_per_block is not None:
            monkeypatch.setattr(coding, "_BLOCK_BYTES", 16 * 6 * rows_per_block)
        m = encode_dataset(cars, EncodeMode.COMBINED)
        data = coded_matrix_from_json_dict(coded_matrix_to_json_dict(m)).data
        assert data.flags.owndata and not data.flags.writeable
        assert data.tobytes() == m.data.tobytes()

    @pytest.mark.parametrize(
        "decision, message",
        [
            (["Opel"] * 3, r"decision must be null or one label per row: 10 rows, found 3 labels"),
            (["Opel"] * 11, r"decision must be null or one label per row: 10 rows, found 11 labels"),
            ("Opel" * 10, r"decision must be null or one label per row: 10 rows, found str"),
            ({"Opel": 10}, r"decision must be null or one label per row: 10 rows, found dict"),
            ([1] * 10, r"decision label at row 1 is not a string: 1"),
            (["Opel"] * 3 + [None] + ["Opel"] * 6, r"decision label at row 4 is not a string: None"),
        ],
        ids=["short", "long", "string", "object", "ints", "null-label"],
    )
    def test_bad_decision_rejected_on_read(self, cars, decision, message):
        doc = coded_matrix_to_json_dict(encode_dataset(cars, EncodeMode.COMBINED))
        doc["decision"] = decision
        with pytest.raises(DataError, match=message):
            coded_matrix_from_json_dict(doc)

    def test_null_decision_read_as_none(self, cars):
        doc = coded_matrix_to_json_dict(encode_dataset(cars, EncodeMode.COMBINED))
        doc["decision"] = None
        assert coded_matrix_from_json_dict(doc).decision is None
        del doc["decision"]
        assert coded_matrix_from_json_dict(doc).decision is None

    def test_int_and_float_subclass_cells_read_exactly(self, cars):
        m = encode_dataset(cars, EncodeMode.COMBINED)
        doc = coded_matrix_to_json_dict(m)
        doc["rows"][0][1] = {"re": 60, "im": 0}  # json.loads gives ints for "60"
        assert coded_matrix_from_json_dict(doc).data.tobytes() == m.data.tobytes()
        doc["rows"][0][1] = {"re": np.float64(60.0), "im": 0.0}
        assert coded_matrix_from_json_dict(doc).data.tobytes() == m.data.tobytes()
        big = 2**70 + 12345  # rounds on the way to float64
        doc["rows"][0][1] = {"re": big, "im": 0}
        assert coded_matrix_from_json_dict(doc).data[0, 1] == complex(big, 0)

    def test_sources_tagged_per_column(self, cars):
        m = encode_dataset(cars, EncodeMode.COMBINED)
        sources = {c.name: c.source for c in m.columns}
        assert sources["Door"] is ColumnSource.NUMERIC
        assert sources["Color"] is ColumnSource.COMPLEX_CODED

    def test_tampered_codebook_entry_is_rejected(self, cars):
        doc = build_codebook(cars.column("Color"), attribute="Color").to_json_dict()
        doc["entries"]["Black"].update(modulus=99, re=7)
        with pytest.raises(DataError, match=r"'Color', token 'Black': modulus is 99"):
            NominalCodebook.from_json_dict(doc)

    @pytest.mark.parametrize("key", ["modulus", "phase", "re", "im"])
    def test_each_derived_field_is_checked_on_read(self, cars, key):
        doc = build_codebook(cars.column("Color"), attribute="Color").to_json_dict()
        doc["entries"]["Black"][key] += 1e-9
        with pytest.raises(DataError, match=rf"token 'Black': {key} is"):
            NominalCodebook.from_json_dict(doc)

    @pytest.mark.parametrize("key, value", [("n", 0), ("j", 2), ("j", -1), ("k", 0)])
    def test_out_of_range_n_j_k_rejected_on_read(self, cars, key, value):
        doc = build_codebook(cars.column("Color"), attribute="Color").to_json_dict()
        doc["entries"]["Black"][key] = value
        with pytest.raises(DataError, match=rf"codebook 'Color', token 'Black': {key} is {value}"):
            NominalCodebook.from_json_dict(doc)

    @pytest.mark.parametrize(
        "entries, tokens",
        [
            ({"a": (3, 0, 1), "b": (3, 0, 1)}, "'a', 'b'"),  # both code to 2+0j
            ({"a": (3, 0, 2), "x": (1, 0, 1)}, "'a'"),  # a group of 2 with 1 entry
            ({"a": (3, 0, 1), "b": (3, 1, 2)}, "'a', 'b'"),  # sizes disagree
            ({"a": (3, 1, 2), "b": (3, 1, 2)}, "'a', 'b'"),  # j repeats, 0 missing
            ({"a": (3, 0, 2), "b": (3, 1, 2), "c": (3, 1, 3)}, "'a', 'b', 'c'"),
        ],
    )
    def test_inconsistent_tie_group_rejected_on_read(self, entries, tokens):
        doc = {
            "attribute": "Color",
            "entries": {t: ComplexRank(*njk).to_json_dict() for t, njk in entries.items()},
        }
        # the first token of the group is the first whose stored entry differs
        first = tokens.split(", ")[0]
        with pytest.raises(DataError, match=rf"codebook 'Color', token {first}: (phase|j|k) is "):
            NominalCodebook.from_json_dict(doc)

    def test_non_finite_cell_rejected_on_read(self, cars):
        doc = coded_matrix_to_json_dict(encode_dataset(cars, EncodeMode.COMBINED))
        doc["rows"][3][1]["re"] = math.nan
        doc = json.loads(json.dumps(doc))  # json writes and reads NaN
        with pytest.raises(DataError, match=r"row 4, column 2 \('Power'\) is not finite"):
            coded_matrix_from_json_dict(doc)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf)])
    def test_coded_matrix_rejects_non_finite_cells(self, bad):
        data = np.ones((3, 2), dtype=complex)
        data[2, 0] = bad
        with pytest.raises(DataError, match="not finite"):
            CodedMatrix((CodedColumn("a", ColumnSource.NUMERIC),
                         CodedColumn("b", ColumnSource.NUMERIC)), data)


TWO_COLUMNS = (CodedColumn("a", ColumnSource.NUMERIC), CodedColumn("b", ColumnSource.NUMERIC))


def frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class TestAdoption:
    """CodedMatrix keeps a frozen complex128 array that owns its data and
    copies anything else, so no caller can write to its cells."""

    def test_a_frozen_owning_complex_array_is_kept(self):
        arr = frozen(np.ones((3, 2), dtype=np.complex128))
        assert CodedMatrix(TWO_COLUMNS, arr).data is arr

    def test_a_matrix_rebuilt_from_another_shares_its_cells(self, cars):
        m = encode_dataset(cars, EncodeMode.ONEHOT)
        assert replace(m, decision=None).data is m.data

    def test_a_writable_array_is_copied(self):
        arr = np.ones((3, 2), dtype=np.complex128)
        m = CodedMatrix(TWO_COLUMNS, arr)
        arr[0, 0] = 7
        assert m.data is not arr and m.data[0, 0] == 1 and not m.data.flags.writeable

    def test_a_frozen_view_is_copied(self):
        base = np.ones((3, 4), dtype=np.complex128)
        m = CodedMatrix(TWO_COLUMNS, frozen(base[:, :2]))
        base[0, 0] = 7
        assert m.data[0, 0] == 1

    @pytest.mark.parametrize("dtype", [np.float64, np.complex64, np.dtype(">c16")])
    def test_another_dtype_is_copied(self, dtype):
        arr = frozen(np.ones((3, 2), dtype=dtype))
        m = CodedMatrix(TWO_COLUMNS, arr)
        arr.flags.writeable = True  # the caller owns it and may write again
        arr[0, 0] = 7
        assert m.data.dtype == np.complex128 and m.data[0, 0] == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf)])
    def test_an_adopted_array_with_a_non_finite_cell_is_refused(self, bad):
        arr = np.ones((3, 2), dtype=np.complex128)
        arr[2, 1] = bad
        with pytest.raises(DataError, match=r"row 3, column 2 \('b'\) is not finite"):
            CodedMatrix(TWO_COLUMNS, frozen(arr))


class TestBlockRule:
    """_spans is the one block rule of every blocked pass: slices of
    max(1, _BLOCK_BYTES // max(1, item_bytes)) items over range(total)."""

    @given(st.integers(0, 300), st.integers(0, 200), st.sampled_from([None, 1, 7, 64]))
    @example(total=0, item_bytes=0, block_bytes=None)
    @example(total=5, item_bytes=0, block_bytes=None)
    @example(total=0, item_bytes=8, block_bytes=1)
    def test_spans_tile_the_range_in_steps_of_the_rule(self, total, item_bytes, block_bytes):
        # block_bytes: a small block (None: the default), so that a few
        # hundred items take many spans
        with pytest.MonkeyPatch.context() as mp:
            if block_bytes is not None:
                mp.setattr(coding, "_BLOCK_BYTES", block_bytes)
            step = max(1, coding._BLOCK_BYTES // max(1, item_bytes))
            spans = list(coding._spans(total, item_bytes))
        covered = [i for s in spans for i in range(total)[s]]
        assert covered == list(range(total))  # in order, no gap, no overlap
        assert all(s.stop - s.start == step for s in spans[:-1])
        assert all(0 < len(range(total)[s]) <= step for s in spans)


def colliding_dataset() -> Dataset:
    """A numeric column named a=x beside a nominal column a with token x."""
    schema = AttributeSchema((Column("a=x", Role.NUMERIC), Column("a", Role.NOMINAL)))
    return Dataset(schema, [[1.0, 2.0, 3.0], ["x", "z", "x"]])


class TestDuplicateColumnNames:
    def test_a_repeated_name_is_refused_naming_both_positions(self):
        columns = (CodedColumn("a", ColumnSource.NUMERIC), CodedColumn("b", ColumnSource.NUMERIC),
                   CodedColumn("a", ColumnSource.ADHOC_CODED))
        with pytest.raises(DataError, match=r"coded columns 1 and 3 are both named 'a'"):
            CodedMatrix(columns, np.ones((2, 3)))

    def test_a_one_hot_name_that_repeats_a_numeric_one_is_refused(self):
        # it once gave ('a=x', 'a=x', 'a=z'), and column("a=x") the numeric column
        with pytest.raises(DataError, match=r"coded columns 1 and 2 are both named 'a=x'"):
            encode_dataset(colliding_dataset(), EncodeMode.ONEHOT)

    def test_the_other_modes_keep_distinct_names(self):
        for mode in (EncodeMode.COMBINED, EncodeMode.ADHOC):
            assert encode_dataset(colliding_dataset(), mode).column_names == ("a=x", "a")

    def test_the_reader_refuses_a_document_with_a_repeated_name(self, cars):
        doc = json.loads(coded_matrix_to_json(encode_dataset(cars, EncodeMode.NUMERIC), EncodeMode.NUMERIC))
        doc["columns"][1]["name"] = "Door"
        with pytest.raises(DataError, match=r"coded columns 1 and 2 are both named 'Door'"):
            coded_matrix_from_json_dict(doc)


def swap_cells(rows, a, b, c):
    """Swap the cells of rows a and b (0-based) in column c."""
    rows[a][c], rows[b][c] = rows[b][c], rows[a][c]


class TestReadBackAgainstCells:
    """The read-back refuses maps and cells that encode_dataset would not write together.

    In cars, Color holds Blue 3 times (2+0j), Black 3 times (-2+0j) and Red
    4 times (2.5+0j), first seen in that order.
    """

    @pytest.mark.parametrize(
        "mode, edit, message",
        [
            ("combined", lambda d: d["codebooks"][1].update(attribute="Nope"),
             r"the complex maps are for \['Color', 'Nope', 'Interior', 'Wheel'\], "
             r"but the complex columns are \['Color', 'Fuel', 'Interior', 'Wheel'\]"),
            ("combined", lambda d: d["codebooks"].pop(),
             r"the complex maps are for \['Color', 'Fuel', 'Interior'\], but the complex columns"),
            ("adhoc", lambda d: d["adhoc_codes"].pop("Fuel"),
             r"the adhoc maps are for \['Color', 'Interior', 'Wheel'\], but the adhoc columns"),
            ("combined", lambda d: d["rows"][0][2].update(re=7.0, im=0.0),
             r"coded cell at row 1, column 3 \('Color'\) is \(7\+0j\), which no entry of its map gives"),
            ("adhoc", lambda d: d["rows"][0][2].update(re=9.5),
             r"coded cell at row 1, column 3 \('Color'\) is \(9.5\+0j\), which no entry of its map gives"),
            ("adhoc", lambda d: d["adhoc_codes"]["Color"].update(Blue=9.5),
             r"ad hoc codes: Color\.Blue is 9.5, expected 1.0"),
            ("combined", lambda d: d["rows"][1][2].update(re=2.5),  # a Black cell becomes Red
             r"column 3 \('Color'\), token 'Black': 2 cells, but n is 3"),
            ("combined", lambda d: swap_cells(d["rows"], 0, 1, 2),
             r"row 1, column 3 \('Color'\): token 'Black' is first seen before 'Blue'"),
            ("adhoc", lambda d: swap_cells(d["rows"], 0, 1, 2),
             r"row 1, column 3 \('Color'\): token 'Black' is first seen before 'Blue'"),
            ("adhoc", lambda d: [row[2].update(re=1.0) for row in d["rows"] if row[2]["re"] == 3.0],
             r"column 3 \('Color'\): token 'Red' is in no cell"),
            ("combined", lambda d: d["rows"][4][0].update(im=0.5),
             r"coded cell at row 5, column 1 \('Door'\) has im 0.5, not 0"),
            ("adhoc", lambda d: d["rows"][4][3].update(im=-1.0),
             r"coded cell at row 5, column 4 \('Fuel'\) has im -1.0, not 0"),
            ("onehot", lambda d: d["rows"][4][2].update(im=1e-300),
             r"coded cell at row 5, column 3 \('Color=Blue'\) has im 1e-300, not 0"),
            # row 1 (Blue) gains a second 1, so Color=Black starts a block of its own
            ("onehot", lambda d: d["rows"][0][3].update(re=1.0),
             r"row 2, one-hot columns 3 \('Color=Blue'\) to 3 \('Color=Blue'\): 0 hot cells, not 1"),
            ("onehot", lambda d: d["rows"][4][4].update(re=0.0),  # row 5 is Red
             r"row 5, one-hot columns 3 \('Color=Blue'\) to 5 \('Color=Red'\): 0 hot cells, not 1"),
            ("onehot", lambda d: d["rows"][0][2].update(re=0.5),
             r"coded cell at row 1, column 3 \('Color=Blue'\) is \(0.5\+0j\), which no entry"),
            ("onehot", lambda d: [swap_cells(d["rows"], 1, 3, c) for c in (2, 3, 4)],  # Red before Black
             r"row 2, one-hot columns 3 \('Color=Blue'\) to 5 \('Color=Red'\): "
             r"token 'Color=Red' is first seen before 'Color=Black'"),
        ],
        ids=["unknown-codebook", "dropped-codebook", "dropped-adhoc-map", "cell-no-entry-gives",
             "adhoc-cell-no-code-gives", "adhoc-code-off", "count-not-n", "first-seen-order",
             "adhoc-first-seen-order", "adhoc-token-in-no-cell", "numeric-im", "adhoc-im", "onehot-im",
             "onehot-two-hot", "onehot-no-hot", "onehot-not-0-or-1", "onehot-first-seen-order"],
    )
    def test_maps_and_cells_must_agree(self, cars, mode, edit, message):
        doc = coded_matrix_to_json_dict(encode_dataset(cars, EncodeMode(mode)))
        edit(doc)
        with pytest.raises(DataError, match=message):
            coded_matrix_from_json_dict(doc)

    def test_scaled_cell_must_be_a_scaled_value(self, cars):
        doc = coded_matrix_to_json_dict(standardize(encode_dataset(cars, EncodeMode.COMBINED)))
        doc["rows"][0][2]["re"] = 2.0  # the unscaled value of Blue
        with pytest.raises(DataError, match=r"row 1, column 3 \('Color'\) is \(2\+0j\), which no entry"):
            coded_matrix_from_json_dict(doc)

    def test_scaled_onehot_row_must_hold_one_hot_cell(self, cars):
        doc = coded_matrix_to_json_dict(standardize(encode_dataset(cars, EncodeMode.ONEHOT)))
        doc["rows"][0][3] = doc["rows"][1][3]  # row 2 is Black: its scaled 1
        with pytest.raises(DataError, match=r"row 2, one-hot columns 3 \('Color=Blue'\) to 3 .*: 0 hot cells"):
            coded_matrix_from_json_dict(doc)

    @pytest.mark.parametrize(
        "mode, tampered, name",
        [("combined", [2], "Color"), ("adhoc", [2], "Color"), ("onehot", [2], "Color=Blue"),
         ("combined", [5], "Wheel"), ("onehot", [9], "Interior=Leather"),
         ("combined", [5, 3], "Fuel"), ("onehot", [11, 4], "Color=Red")],
        ids=["combined-Color", "adhoc-Color", "onehot-Color=Blue", "combined-Wheel", "onehot-Interior=Leather",
             "combined-Wheel-and-Fuel", "onehot-Wheel=Alloy-and-Color=Red"],
    )
    def test_scaling_must_be_the_one_the_decoded_cells_give(self, cars, mode, tampered, name):
        # the check takes every decoded column at once; the error names the
        # first tampered column in column order, not the first one edited
        raw = encode_dataset(cars, EncodeMode(mode))
        doc = coded_matrix_to_json_dict(standardize(raw))
        for i in tampered:
            scaling = doc["scaling"][i]
            scaling["mean"]["re"] += 1.0  # and the cells rescaled to match the shifted mean
            mean, sigma = complex(scaling["mean"]["re"], scaling["mean"]["im"]), scaling["sigma"]["re"]
            for row, z in zip(doc["rows"], ((raw.data[:, i] - mean) / sigma).tolist()):
                row[i] = {"re": z.real, "im": z.imag}
        with pytest.raises(DataError, match=rf"scaling of column {min(tampered) + 1} \('{name}'\): "
                                            r"\(mean, sigma\) is .*, but its decoded cells give"):
            coded_matrix_from_json_dict(doc)

    def test_onehot_column_without_rows_is_refused(self, cars):
        doc = coded_matrix_to_json_dict(encode_dataset(cars, EncodeMode.ONEHOT))
        doc.update(rows=[], decision=None)
        with pytest.raises(DataError, match=r"one-hot columns 3 \('Color=Blue'\) to 3 .*: token 'Color=Blue' is in no cell"):
            coded_matrix_from_json_dict(doc)

    @pytest.mark.parametrize("mode, i, name", [("combined", 0, "Door"), ("adhoc", 2, "Color"), ("onehot", 4, "Color=Red")])
    def test_real_column_scaling_mean_has_no_im(self, cars, mode, i, name):
        doc = coded_matrix_to_json_dict(standardize(encode_dataset(cars, EncodeMode(mode))))
        doc["scaling"][i]["mean"]["im"] = 0.5
        with pytest.raises(DataError, match=rf"scaling of column {i + 1} \('{name}'\): mean\.im is 0.5, not 0"):
            coded_matrix_from_json_dict(doc)

    @pytest.mark.parametrize(
        "mode, edit, message",
        [
            ("combined", lambda d: d.pop("columns"), r"coded matrix: columns is None, not a list"),
            ("combined", lambda d: d["codebooks"].__setitem__(0, ["Color"]),
             r"codebook is not an object: \['Color'\]"),
            ("combined", lambda d: d["columns"][2].update(source="polar"),
             r"column 3 \('Color'\): unknown source 'polar'"),
            ("combined", lambda d: d["codebooks"][0]["entries"]["Black"].update(n="x"),
             r"codebook 'Color', token 'Black': n is 'x', not an integer"),
            ("adhoc", lambda d: d["adhoc_codes"]["Color"].update(Blue="q"),
             r"ad hoc codes: Color\.Blue is 'q', expected 1.0"),
            ("combined", lambda d: d["codebooks"][0].update(entries={}), r"codebook 'Color' has no entries"),
            ("combined", lambda d: d["codebooks"][0]["entries"]["Black"].update(n=2**63),
             r"codebook 'Color', token 'Black': n is 9223372036854775808, not a count from 1"),
        ],
        ids=["missing-columns", "codebook-not-object", "unknown-source", "string-n", "string-adhoc-code",
             "empty-entries", "n-beyond-int64"],
    )
    def test_malformed_document_names_the_field(self, cars, mode, edit, message):
        doc = coded_matrix_to_json_dict(encode_dataset(cars, EncodeMode(mode)))
        edit(doc)
        with pytest.raises(DataError, match=message):
            coded_matrix_from_json_dict(doc)

    @pytest.mark.parametrize("njk", [(3, 4, 3), (3, -1, 2), (0, 0, 1), (2, 0, 0),
                                     (2, 0.5, 1), (3, 1, 2.0), (2.0, 0, 1), (True, 0, 1)])
    def test_complex_rank_refuses_a_triple_outside_the_range(self, njk):
        with pytest.raises(ValueError, match=r"needs n >= 1 and 0 <= j < k"):
            ComplexRank(*njk)


class TestJsonWriter:
    """`coded_matrix_to_json` against json.dumps of the dict form, byte for byte."""

    @pytest.mark.parametrize("mode", list(EncodeMode))
    def test_cars_every_mode_raw_and_scaled(self, cars, mode):
        m = encode_dataset(cars, mode)
        for a in (m, standardize(m)):
            assert coded_matrix_to_json(a, mode) == reference_encode_json(a, mode)

    def test_float_edge_cells(self):
        cells = [complex(-0.0, 5e-324), complex(1e300, -1e16), complex(0.1 + 0.2, -0.0),
                 complex(1e16, 2.5e-308), complex(-1.7976931348623157e308, 1 / 3)]
        m = CodedMatrix(tuple(CodedColumn(n, ColumnSource.NUMERIC) for n in "abcde"), [cells])
        text = coded_matrix_to_json(m, EncodeMode.NUMERIC)
        assert text == reference_encode_json(m, EncodeMode.NUMERIC)
        assert '"re": -0.0' in text and '"im": 5e-324' in text and '"re": 0.30000000000000004' in text

    @pytest.mark.parametrize("names", ["z", "azb"])
    def test_signed_zeros_keep_their_sign_in_both_halves(self, names):
        # 0.0 == -0.0, so only their bit patterns tell the two texts apart
        zeros = [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
        columns = tuple(CodedColumn(n, ColumnSource.NUMERIC) for n in names)
        data = np.zeros((8, len(names)), dtype=np.complex128)
        data[:, names.index("z")] = zeros + zeros[::-1]
        m = CodedMatrix(columns, data)
        text = coded_matrix_to_json(m, EncodeMode.NUMERIC)
        assert text == reference_encode_json(m, EncodeMode.NUMERIC)
        assert text.count('"re": -0.0') == text.count('"im": -0.0') == 4

    def test_one_column(self, cars):
        # with d = 1 the row's opening and closing texts sit on the one column's two halves
        ds = Dataset(AttributeSchema((Column("c", Role.NOMINAL),)), [cars.column("Color")])
        for mode in (EncodeMode.NOMINAL, EncodeMode.ADHOC):
            m = encode_dataset(ds, mode)
            assert m.data.shape[1] == 1
            for a in (m, standardize(m)):
                assert coded_matrix_to_json(a, mode) == reference_encode_json(a, mode)

    def test_many_duplicated_rows(self, cars):
        m = encode_dataset(cars, EncodeMode.COMBINED)
        m = CodedMatrix(m.columns, np.tile(m.data, (300, 1))[::-1])
        assert coded_matrix_to_json(m, EncodeMode.COMBINED) == reference_encode_json(m, EncodeMode.COMBINED)

    def test_all_distinct_values(self):
        # every cell of both halves distinct: no value is shared within a float position
        rng = np.random.default_rng(5)
        columns = tuple(CodedColumn(n, ColumnSource.NUMERIC) for n in "abc")
        m = CodedMatrix(columns, rng.normal(size=(200, 3)) + 1j * rng.normal(size=(200, 3)))
        assert coded_matrix_to_json(m, EncodeMode.NUMERIC) == reference_encode_json(m, EncodeMode.NUMERIC)

    @pytest.mark.parametrize("shape", [(1, 3), (4, 0), (1, 0), (0, 2), (0, 0)])
    def test_degenerate_shapes(self, shape):
        rows, cols = shape
        columns = tuple(CodedColumn(f"c{i}", ColumnSource.NUMERIC) for i in range(cols))
        m = CodedMatrix(columns, (np.arange(rows * cols) * (1 - 1j)).reshape(shape))
        assert coded_matrix_to_json(m, EncodeMode.NUMERIC) == reference_encode_json(m, EncodeMode.NUMERIC)

    @pytest.mark.parametrize("labels", [None, (), ("a", "a", "b"), ("ñ", 'q"', "ñ", "✓\t", "\\")])
    def test_decision_lists(self, labels):
        # the list is gathered from each distinct label's text
        n = 3 if labels is None else len(labels)
        m = CodedMatrix((CodedColumn("x", ColumnSource.NUMERIC),), np.arange(n).reshape(n, 1), decision=labels)
        assert coded_matrix_to_json(m, EncodeMode.NUMERIC) == reference_encode_json(m, EncodeMode.NUMERIC)

    def test_fortran_ordered_data(self):
        columns = tuple(CodedColumn(n, ColumnSource.NUMERIC) for n in "abc")
        m = CodedMatrix(columns, np.asfortranarray(np.arange(12).reshape(4, 3) * (1 + 2j)))
        assert not m.data.flags.c_contiguous
        assert coded_matrix_to_json(m, EncodeMode.NUMERIC) == reference_encode_json(m, EncodeMode.NUMERIC)

    def test_names_and_tokens_that_need_escaping(self):
        odd = ['"rows": []', 'q"uote', "back\\slash", "ünïcödé ✓", "tab\tbell\x07", "{", "]"]
        schema = AttributeSchema((
            Column('num "rows": [] \\ é', Role.NUMERIC),
            Column('"rows": []', Role.NOMINAL),
            Column("naïve\\", Role.NOMINAL),
            Column("label", Role.DECISION),
        ))
        rows = [(float(i), odd[i % len(odd)], odd[(i * 3) % len(odd)], odd[i % 3]) for i in range(9)]
        ds = Dataset(schema, tuple(zip(*rows)))
        for mode in EncodeMode:
            m = encode_dataset(ds, mode)
            for a in (m, standardize(m)):
                text = coded_matrix_to_json(a, mode)
                assert text == reference_encode_json(a, mode)
                again = coded_matrix_from_json_dict(json.loads(text))
                assert again.data.tobytes() == a.data.tobytes() and again.columns == a.columns


@st.composite
def tied_datasets(draw):
    """Small tables whose nominal columns carry a forced frequency tie group.

    Each nominal column holds `ties` tokens seen `reps` times each, plus a
    few extra draws that may join, break or add to the ties, shuffled.
    """
    ties, reps, extra = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(0, 5))
    n_rows = ties * reps + extra
    roles = draw(st.lists(st.sampled_from([Role.NUMERIC, Role.NOMINAL]), min_size=1, max_size=4))
    if draw(st.booleans()):
        roles.append(Role.DECISION)
    columns = []
    for role in roles:
        if role is Role.NUMERIC:
            ints = draw(st.lists(st.integers(-4, 4), min_size=n_rows, max_size=n_rows))
            columns.append([i / 2 for i in ints])
            continue
        cells = [f"g{i}" for i in range(ties) for _ in range(reps)]
        cells += draw(st.lists(st.sampled_from(["a", "b", "c", "g0"]), min_size=extra, max_size=extra))
        columns.append(draw(st.permutations(cells)))
    schema = AttributeSchema(tuple(Column(f"c{i}", r) for i, r in enumerate(roles)))
    return Dataset(schema, columns)


@st.composite
def encodable_datasets(draw):
    """Small tables for the in-place encoder: numeric cells that include -0.0,
    nominal columns of one to four tokens, nominal-only schemas and an
    optional decision column."""
    n_rows = draw(st.integers(1, 12))
    roles = draw(st.lists(st.sampled_from([Role.NUMERIC, Role.NOMINAL]), min_size=1, max_size=4))
    if draw(st.booleans()):
        roles.append(Role.DECISION)
    numbers = st.one_of(st.just(-0.0), st.floats(allow_nan=False, allow_infinity=False))
    columns = []
    for role in roles:
        if role is Role.NUMERIC:
            columns.append(draw(st.lists(numbers, min_size=n_rows, max_size=n_rows)))
        else:
            tokens = draw(st.sampled_from(["x", "xy", "wxyz"]))
            columns.append(draw(st.lists(st.sampled_from(tokens), min_size=n_rows, max_size=n_rows)))
    schema = AttributeSchema(tuple(Column(f"c{i}", r) for i, r in enumerate(roles)))
    return Dataset(schema, columns)


def table(roles, *columns) -> Dataset:
    return Dataset(AttributeSchema(tuple(Column(f"c{i}", r) for i, r in enumerate(roles))), columns)


def encoded(ds: Dataset, mode: EncodeMode, encode):
    """What an encoder gives: the matrix's fields, or the DataError's message."""
    try:
        m = encode(ds, mode)
    except DataError as exc:
        return str(exc)
    return (m.data.dtype, m.data.shape, m.data.tobytes(), m.columns, m.decision,
            repr(m.codebooks), repr(m.adhoc_codes))


class TestInPlaceEncodeAgainstOracle:
    """`encode_dataset` writes each column into one preallocated array; the
    matrix must be the per-column blocks and column_stack of the old code, bit for bit."""

    @given(encodable_datasets())
    @example(table([Role.NUMERIC, Role.NOMINAL, Role.DECISION], [-0.0, 0.0, -0.0], ["x"] * 3, list("LLM")))
    @example(table([Role.NOMINAL, Role.NOMINAL], list("xyx"), list("zzz")))
    @example(table([Role.NOMINAL], ["x"]))
    def test_every_mode_matches_the_column_stack_encoder(self, ds):
        for mode in EncodeMode:
            assert encoded(ds, mode, encode_dataset) == encoded(ds, mode, reference_encode_dataset)


def bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


class TestArrayPathAgainstOracle:
    @given(tied_datasets())
    def test_encode_matches_token_by_token_oracle(self, ds):
        roles = {c.role for c in ds.schema.columns}
        for mode in EncodeMode:
            data, names, codebooks, adhoc = encode_oracle(ds, mode.value)
            needs = {"numeric": Role.NUMERIC, "combined": None, "complex": None}.get(
                mode.value, Role.NOMINAL)
            if needs is not None and needs not in roles:
                with pytest.raises(DataError, match=needs.value):
                    encode_dataset(ds, mode)
                continue
            m = encode_dataset(ds, mode)
            assert m.column_names == tuple(names)
            assert m.data.tobytes() == data.tobytes()
            assert m.decision == (None if ds.decision_labels() is None
                                  else tuple(ds.decision_labels()))
            assert [cb.attribute for cb in m.codebooks] == [a for a, _ in codebooks]
            for cb, (_, want) in zip(m.codebooks, codebooks):
                got = {t: (e.frequency, e.rank.group_index, e.rank.group_size, bits(e.rank.value))
                       for t, e in cb.entries.items()}
                assert list(got.items()) == [
                    (t, (n, j, k, bits(z))) for t, (n, j, k, z) in want.items()
                ]
            assert repr(m.adhoc_codes) == repr(adhoc)

    @given(tied_datasets())
    def test_json_writer_matches_json_dumps(self, ds):
        for mode in EncodeMode:
            try:
                m = encode_dataset(ds, mode)
            except DataError:
                continue
            matrices = [m]
            try:
                matrices.append(standardize(m))
            except DataError:  # fewer than 2 rows or a constant column
                pass
            for a in matrices:
                assert coded_matrix_to_json(a, mode) == reference_encode_json(a, mode)

    @given(tied_datasets())
    def test_json_round_trip_is_bit_identical(self, ds):
        for mode in EncodeMode:
            try:
                m = encode_dataset(ds, mode)
            except DataError:
                continue
            matrices = [m]
            try:
                matrices.append(standardize(m))
            except DataError:  # fewer than 2 rows or a constant column
                pass
            for a in matrices:
                b = coded_matrix_from_json_dict(json.loads(json.dumps(coded_matrix_to_json_dict(a))))
                assert b.columns == a.columns
                assert b.data.tobytes() == a.data.tobytes()
                assert b.decision == a.decision
                assert repr((b.codebooks, b.adhoc_codes, b.scaling)) == repr(
                    (a.codebooks, a.adhoc_codes, a.scaling))

    @given(tied_datasets())
    def test_read_back_inverts_to_the_nominal_columns(self, ds):
        nominal = {c.name: ds.column(c.name) for c in ds.schema.columns if c.role is Role.NOMINAL}
        if not nominal:
            return
        for mode in (EncodeMode.COMBINED, EncodeMode.NOMINAL, EncodeMode.ADHOC, EncodeMode.ONEHOT):
            m = encode_dataset(ds, mode)
            matrices = [m]
            try:
                matrices.append(standardize(m))
            except DataError:  # fewer than 2 rows or a constant column
                pass
            for a in matrices:
                b = coded_matrix_from_json_dict(json.loads(coded_matrix_to_json(a, mode)))
                assert {name: decoded_tokens(b, name) for name in nominal} == nominal


def decoded_tokens(m: CodedMatrix, name: str) -> list[str]:
    """A nominal column's tokens, read off the cells of a coded matrix.

    A complex or ad hoc cell gives the token whose (scaled) map value lies
    nearest; a one-hot block gives the token of its largest cell.
    """
    names = list(m.column_names)
    if name not in names:  # one-hot: the block of columns "name=token"
        block = [i for i, n in enumerate(names) if n.startswith(f"{name}=")]
        tokens = [names[i][len(name) + 1:] for i in block]
        return [tokens[i] for i in np.argmax(m.data[:, block].real, axis=1)]
    i = names.index(name)
    codes = m.adhoc_codes.get(name) or next(
        {t: e.value for t, e in cb.entries.items()} for cb in m.codebooks if cb.attribute == name)
    values = np.array(list(codes.values()), dtype=complex)
    if m.scaling is not None:
        values = (values - m.scaling[i].mean) / m.scaling[i].sigma
    nearest = np.argmin(np.abs(m.data[:, i, None] - values[None, :]), axis=1)
    return [list(codes)[k] for k in nearest]
