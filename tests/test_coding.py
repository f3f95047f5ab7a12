import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from complexrank import (
    DataError,
    EncodeMode,
    adhoc_codebook,
    base_rank,
    build_codebook,
    coded_matrix_from_json_dict,
    coded_matrix_to_json_dict,
    encode_dataset,
    onehot_encode,
    root_of_unity,
    standardize,
)
from complexrank.coding import (
    CodedColumn,
    CodedMatrix,
    ColumnSource,
    ComplexRank,
    NominalCodebook,
)
from complexrank.dataset import AttributeSchema, Column, Dataset, Role

from .oracles import encode_oracle

token_lists = st.lists(
    st.text(alphabet="abcdef", min_size=1, max_size=2), min_size=1, max_size=40
)


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
        assert cb.code("a") == 3.5 + 0j
        assert cb.code("b") == 3.0 + 0j
        assert cb.code("c") == 2.5 + 0j
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
        assert cb.code("Blue") == 2 + 0j
        assert cb.code("Black") == -2 + 0j  # exactly real, not -2 + tiny*i
        assert cb.code("Red") == 2.5 + 0j
        assert cb.entries["Black"].rank.phase == math.pi

    def test_single_token_column(self):
        cb = build_codebook(["x"])
        assert cb.code("x") == 1 + 0j

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_codebook([])

    def test_total_records_column_length(self):
        cb = build_codebook(["a", "b", "a"])
        assert cb.total == 3

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
        assert cb.encode(values) == [
            3, 2, 3, 3, 3, 2, 1.5, 3, 1.5, 2,
        ]

    def test_unseen_token_rejected(self):
        cb = build_codebook(["a", "b"])
        with pytest.raises(DataError, match="'c'"):
            cb.encode(["a", "c"])


class TestBaselines:
    def test_adhoc_uses_first_occurrence_order(self):
        values = ["Blue", "Black", "Black", "Red", "Blue"]
        assert adhoc_codebook(values) == {"Blue": 1.0, "Black": 2.0, "Red": 3.0}

    def test_adhoc_single_value(self):
        assert adhoc_codebook(["x", "x", "x"]) == {"x": 1.0}

    def test_onehot_basis_vectors(self):
        m = onehot_encode(["a", "b", "a"])
        assert m.tolist() == [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]

    @given(token_lists)
    def test_onehot_distinct_tokens_sit_sqrt2_apart(self, values):
        m = onehot_encode(values)
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                d = float(np.linalg.norm(m[i] - m[j]))
                if values[i] == values[j]:
                    assert d == 0.0
                else:
                    assert d == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_onehot_adds_one_axis_per_token(self):
        m = onehot_encode(["r", "g", "b", "g"])
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
        ds = Dataset(schema, tuple((c,) for c in ["r", "g", "b"]))
        with pytest.raises(DataError, match="numeric"):
            encode_dataset(ds, EncodeMode.NUMERIC)

    def test_nominal_mode_needs_nominal_columns(self, cars):
        from complexrank.dataset import AttributeSchema, Dataset

        schema = AttributeSchema.from_pairs([("x", "numeric")])
        ds = Dataset(schema, ((1.0,), (2.0,)))
        for mode in (EncodeMode.NOMINAL, EncodeMode.ADHOC, EncodeMode.ONEHOT):
            with pytest.raises(DataError, match="nominal"):
                encode_dataset(ds, mode)

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
        with pytest.raises(DataError, match=r"scaling of column 'Color': sigma re .* and im .* differ"):
            coded_matrix_from_json_dict(doc)

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
        with pytest.raises(DataError, match=r"token 'Black'.*needs n >= 1 and 0 <= j < k"):
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
        with pytest.raises(DataError, match=rf"codebook 'Color', n = 3: tokens {tokens} "):
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
    return Dataset(schema, tuple(zip(*columns)))


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
