import errno
import json
import os
from pathlib import Path

import numpy as np
import pytest

from complexrank import coded_matrix_from_json_dict, encode_dataset, EncodeMode
from complexrank.cli import build_parser, format_complex, main
from complexrank.cluster import DEFAULT_CONDITIONS, ExperimentReport
from complexrank.dataset import cars_csv_path, cars_schema_path

from .oracles import broadcast_kmeans, per_column_standardize, reference_encode_json

CARS = str(cars_csv_path())
SCHEMA = str(cars_schema_path())


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# literal tables as the column renderer prints them for the bundled cars data
EXPERIMENT_TABLE_SEED_0 = """\
Accuracy of 20 clustering runs per condition (count of runs by highest threshold reached)
Condition                       >=90%  >=80%  >=70%  >=60%  >=50%   <50%
------------------------------------------------------------------------
Numeric + ad hoc integer codes      4      3      7      5      1      -
Numeric only                        -      4      -     14      2      -
Coded nominal only                  -     11      2      7      -      -
Numeric + coded nominal             -      6      8      3      3      -
"""

ENCODE_TABLES = {
    "combined": """\
Door  Power  Color  Fuel  Interior  Wheel  (decision)
   2     60      2     3       3.5    3.5        Opel
   2    100     -2     2       3.5    3.5      Nissan
   2    200     -2     3       2.5    2.5     Ferrari
   2    200    2.5     3       2.5    2.5     Ferrari
   2    200    2.5     3       3.5    3.5        Opel
   3    100    2.5     2       2.5    3.5        Opel
   3    100    2.5   1.5       3.5    3.5        Opel
   3    200     -2     3       2.5    2.5     Ferrari
   4    100      2   1.5       3.5    3.5      Nissan
   4    100      2     2       3.5    2.5      Nissan
""",
    "numeric": """\
Door  Power  (decision)
   2     60        Opel
   2    100      Nissan
   2    200     Ferrari
   2    200     Ferrari
   2    200        Opel
   3    100        Opel
   3    100        Opel
   3    200     Ferrari
   4    100      Nissan
   4    100      Nissan
""",
    "nominal": """\
Color  Fuel  Interior  Wheel  (decision)
    2     3       3.5    3.5        Opel
   -2     2       3.5    3.5      Nissan
   -2     3       2.5    2.5     Ferrari
  2.5     3       2.5    2.5     Ferrari
  2.5     3       3.5    3.5        Opel
  2.5     2       2.5    3.5        Opel
  2.5   1.5       3.5    3.5        Opel
   -2     3       2.5    2.5     Ferrari
    2   1.5       3.5    3.5      Nissan
    2     2       3.5    2.5      Nissan
""",
    "adhoc": """\
Door  Power  Color  Fuel  Interior  Wheel  (decision)
   2     60      1     1         1      1        Opel
   2    100      2     2         1      1      Nissan
   2    200      2     1         2      2     Ferrari
   2    200      3     1         2      2     Ferrari
   2    200      3     1         1      1        Opel
   3    100      3     2         2      1        Opel
   3    100      3     3         1      1        Opel
   3    200      2     1         2      2     Ferrari
   4    100      1     3         1      1      Nissan
   4    100      1     2         1      2      Nissan
""",
    "onehot": """\
Door  Power  Color=Blue  Color=Black  Color=Red  Fuel=Petrol  Fuel=Diesel  Fuel=LPG  Interior=Fabric  Interior=Leather  Wheel=Steel  Wheel=Alloy  (decision)
   2     60           1            0          0            1            0         0                1                 0            1            0        Opel
   2    100           0            1          0            0            1         0                1                 0            1            0      Nissan
   2    200           0            1          0            1            0         0                0                 1            0            1     Ferrari
   2    200           0            0          1            1            0         0                0                 1            0            1     Ferrari
   2    200           0            0          1            1            0         0                1                 0            1            0        Opel
   3    100           0            0          1            0            1         0                0                 1            1            0        Opel
   3    100           0            0          1            0            0         1                1                 0            1            0        Opel
   3    200           0            1          0            1            0         0                0                 1            0            1     Ferrari
   4    100           1            0          0            0            0         1                1                 0            1            0      Nissan
   4    100           1            0          0            0            1         0                1                 0            0            1      Nissan
""",
}
ENCODE_TABLES["complex"] = ENCODE_TABLES["combined"]


class TestFormatComplex:
    def test_real_values_drop_trailing_zeros(self):
        assert format_complex(2 + 0j) == "2"
        assert format_complex(-2 + 0j) == "-2"
        assert format_complex(2.5 + 0j) == "2.5"
        assert format_complex(0j) == "0"

    def test_complex_values_use_i_suffix(self):
        assert format_complex(-1 + 1.7320508j) == "-1+1.73i"
        assert format_complex(-1 - 1.7320508j) == "-1-1.73i"

    def test_negative_zero_normalized(self):
        assert format_complex(complex(-0.0, 0.0)) == "0"


class TestRankCommand:
    def test_text_output_pairs_value_with_rank(self, capsys):
        code, out, _ = run(
            capsys, ["rank", "--input", CARS, "--schema", SCHEMA, "--column", "Power"]
        )
        assert code == 0
        assert out.splitlines() == [
            "60\t1",
            "100\t4",
            "200\t8.5",
            "200\t8.5",
            "200\t8.5",
            "100\t4",
            "100\t4",
            "200\t8.5",
            "100\t4",
            "100\t4",
        ]

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, ["rank", "--input", CARS, "--column", "Power", "--json"]
        )
        assert code == 0
        assert json.loads(out) == [1.0, 4.0, 8.5, 8.5, 8.5, 4.0, 4.0, 8.5, 4.0, 4.0]

    def test_schema_is_optional(self, capsys, tmp_path, monkeypatch):
        f = tmp_path / "d.csv"
        f.write_text("x,note\n3,a\n1,b\n2,c\n")
        reads = []
        read_text = Path.read_text
        monkeypatch.setattr(Path, "read_text", lambda p, **kw: reads.append(p) or read_text(p, **kw))
        code, out, _ = run(capsys, ["rank", "--input", str(f), "--column", "x", "--json"])
        assert code == 0
        assert json.loads(out) == [3.0, 1.0, 2.0]
        assert reads == [f]  # the header comes from the same read as the rows

    def test_nominal_column_is_a_data_error(self, capsys):
        code, _, err = run(
            capsys, ["rank", "--input", CARS, "--schema", SCHEMA, "--column", "Color"]
        )
        assert code == 2
        assert "data error" in err and "Color" in err

    def test_unknown_column(self, capsys):
        code, _, err = run(capsys, ["rank", "--input", CARS, "--column", "Missing"])
        assert code == 2
        assert "Missing" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, ["rank", "--input", str(tmp_path / "nope.csv"), "--column", "x"]
        )
        assert code == 2
        assert "data error" in err

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_schema_less_header_drops_a_bom_as_parse_csv_does(self, capsys, tmp_path, fmt):
        text = cars_csv_path().read_text(encoding="utf-8")
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        bom.write_text("\ufeff" + text, encoding="utf-8")
        with_bom = run(capsys, ["rank", "--input", str(bom), "--column", "Door", *fmt])
        assert with_bom == run(capsys, ["rank", "--input", str(plain), "--column", "Door", *fmt])
        assert with_bom[0] == 0

    @pytest.mark.parametrize(
        "text, message",
        [("", "input is empty"), ("\ufeff", "input is empty"), ("\nx,note\n3,a\n", "bad column name: ''")],
        ids=["empty", "bom-only", "blank-first-line"],
    )
    def test_schema_less_header_faults_are_data_errors(self, capsys, tmp_path, text, message):
        f = tmp_path / "d.csv"
        f.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, ["rank", "--input", str(f), "--column", "x"])
        assert (code, out, err) == (2, "", f"complexrank: data error: {message}\n")

    def test_output_flag_writes_json(self, capsys, tmp_path):
        out_file = tmp_path / "ranks.json"
        code, out, _ = run(
            capsys,
            ["rank", "--input", CARS, "--column", "Door", "--output", str(out_file)],
        )
        assert code == 0
        assert json.loads(out_file.read_text()) == [
            3.0, 3.0, 3.0, 3.0, 3.0, 7.0, 7.0, 7.0, 9.5, 9.5,
        ]


class TestEncodeCommand:
    def test_table_shows_coded_cells(self, capsys):
        code, out, _ = run(
            capsys, ["encode", "--input", CARS, "--schema", SCHEMA, "--table"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == [
            "Door", "Power", "Color", "Fuel", "Interior", "Wheel", "(decision)",
        ]
        assert lines[1].split() == ["2", "60", "2", "3", "3.5", "3.5", "Opel"]
        assert lines[2].split() == ["2", "100", "-2", "2", "3.5", "3.5", "Nissan"]
        assert lines[3].split() == ["2", "200", "-2", "3", "2.5", "2.5", "Ferrari"]

    @pytest.mark.parametrize("mode", list(EncodeMode))
    def test_table_layout_is_pinned(self, capsys, mode):
        code, out, _ = run(capsys, ["encode", "--input", CARS, "--schema", SCHEMA, "--table", "--mode", mode.value])
        assert (code, out) == (0, ENCODE_TABLES[mode.value])

    def test_table_alone_builds_no_json_document(self, capsys, monkeypatch):
        argv = ["encode", "--input", CARS, "--schema", SCHEMA, "--table"]
        _, table, _ = run(capsys, argv)
        built = []
        monkeypatch.setattr("complexrank.cli.coded_matrix_to_json", lambda *a: built.append(a) or "")
        assert run(capsys, argv) == (0, table, "")
        assert not built

    def test_three_way_tie_prints_complex_cells(self, capsys, tmp_path):
        csv = tmp_path / "t.csv"
        csv.write_text("c,y\na,P\nb,P\nc,Q\n")
        schema = tmp_path / "t.schema.json"
        schema.write_text(
            json.dumps(
                {
                    "columns": [
                        {"name": "c", "role": "nominal"},
                        {"name": "y", "role": "decision"},
                    ]
                }
            )
        )
        code, out, _ = run(
            capsys,
            ["encode", "--input", str(csv), "--schema", str(schema), "--table",
             "--mode", "nominal"],
        )
        assert code == 0
        cells = [line.split()[0] for line in out.splitlines()[1:]]
        assert cells == ["1", "-0.5+0.87i", "-0.5-0.87i"]

    def test_default_json_round_trips_to_the_same_matrix(self, capsys, cars):
        code, out, _ = run(capsys, ["encode", "--input", CARS, "--schema", SCHEMA])
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "combined"
        matrix = coded_matrix_from_json_dict(doc)
        want = encode_dataset(cars, EncodeMode.COMBINED)
        assert matrix.columns == want.columns
        assert np.array_equal(matrix.data, want.data)
        assert matrix.decision == want.decision
        assert matrix.codebooks == want.codebooks

    @pytest.mark.parametrize("mode", list(EncodeMode))
    def test_json_and_output_bytes_match_json_dumps(self, capsys, cars, tmp_path, mode):
        want = reference_encode_json(encode_dataset(cars, mode), mode)
        out_file = tmp_path / "m.json"
        for flag in ("--json", "--table"):
            code, out, _ = run(capsys, ["encode", "--input", CARS, "--schema", SCHEMA,
                                        "--mode", mode.value, flag, "--output", str(out_file)])
            assert code == 0
            assert out_file.read_bytes() == want.encode()
            if flag == "--json":
                assert out == want

    def test_mode_with_no_matching_columns_is_a_data_error(self, capsys, tmp_path):
        csv = tmp_path / "n.csv"
        csv.write_text("x,y\n1,2\n3,4\n")
        schema = tmp_path / "n.schema.json"
        schema.write_text(
            json.dumps(
                {
                    "columns": [
                        {"name": "x", "role": "numeric"},
                        {"name": "y", "role": "numeric"},
                    ]
                }
            )
        )
        code, _, err = run(
            capsys,
            ["encode", "--input", str(csv), "--schema", str(schema), "--mode", "nominal"],
        )
        assert code == 2
        assert "nominal" in err

    def test_colliding_coded_column_names_are_a_data_error(self, capsys, tmp_path):
        # numeric "a=x" and the one-hot column of nominal a's token x
        csv = tmp_path / "c.csv"
        csv.write_text("a=x,a\n1,x\n2,z\n3,x\n")
        schema = tmp_path / "c.schema.json"
        schema.write_text(json.dumps({"columns": [{"name": "a=x", "role": "numeric"},
                                                  {"name": "a", "role": "nominal"}]}))
        argv = ["encode", "--input", str(csv), "--schema", str(schema), "--mode", "onehot"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert "coded columns 1 and 2 are both named 'a=x'" in err
        code, _, _ = run(capsys, argv[:-1] + ["adhoc"])
        assert code == 0

    def test_json_and_table_flags_conflict(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["encode", "--input", CARS, "--schema", SCHEMA, "--json", "--table"])
        assert exc.value.code == 1

    def test_missing_as_category_fills_blanks(self, capsys, tmp_path):
        csv = tmp_path / "m.csv"
        csv.write_text("c,y\na,P\n,P\na,Q\n")
        schema = tmp_path / "m.schema.json"
        schema.write_text(
            json.dumps(
                {
                    "columns": [
                        {"name": "c", "role": "nominal"},
                        {"name": "y", "role": "decision"},
                    ]
                }
            )
        )
        args = ["encode", "--input", str(csv), "--schema", str(schema), "--mode", "nominal"]
        code, _, err = run(capsys, args)
        assert code == 2 and "empty" in err
        code, out, _ = run(capsys, args + ["--missing-as-category", "unknown"])
        assert code == 0
        doc = json.loads(out)
        assert "unknown" in doc["codebooks"][0]["entries"]


class TestClusterCommand:
    def test_seed_zero_regression(self, capsys):
        code, out, _ = run(
            capsys,
            ["cluster", "--input", CARS, "--schema", SCHEMA, "--seed", "0", "--json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "combined"
        assert doc["k"] == 3
        assert doc["assignments"] == [2, 2, 0, 0, 2, 2, 2, 0, 2, 1]
        assert doc["inertia"] == pytest.approx(27.342603616529814, rel=1e-12)
        assert doc["iterations"] == 3
        assert doc["accuracy"] == pytest.approx(0.8)

    @pytest.mark.parametrize("mode", list(EncodeMode))
    @pytest.mark.parametrize("seed", [0, 2**64 - 1, 2**64, 2**200])
    def test_any_non_negative_seed_starts_as_numpy_would(self, capsys, cars, seed, mode):
        # the one CLI path through standardize, against the per-column oracle
        # rather than the library's own scaling
        code, out, _ = run(
            capsys,
            ["cluster", "--input", CARS, "--schema", SCHEMA, "--mode", mode.value, "--seed", str(seed), "--json"],
        )
        assert code == 0
        doc = json.loads(out)
        cells = per_column_standardize(encode_dataset(cars, mode))[0]
        assignments, _, inertia, iterations = broadcast_kmeans(cells, 3, seed=seed)
        assert doc["seed"] == seed
        assert doc["assignments"] == assignments.tolist()
        assert doc["inertia"] == inertia
        assert doc["iterations"] == iterations

    def test_text_output_lists_clusters_one_based(self, capsys):
        code, out, _ = run(
            capsys, ["cluster", "--input", CARS, "--schema", SCHEMA, "--seed", "0"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "assignments: 2 2 0 0 2 2 2 0 2 1"
        assert lines[1] == "cluster 0 (3 rows): 3 4 8"
        assert lines[2] == "cluster 1 (1 rows): 10"
        assert lines[3] == "cluster 2 (6 rows): 1 2 5 6 7 9"
        assert lines[4] == "inertia: 27.342604"
        assert lines[5] == "iterations: 3"
        assert lines[6] == "accuracy: 0.80"

    def test_explicit_k_overrides_label_count(self, capsys):
        code, out, _ = run(
            capsys,
            ["cluster", "--input", CARS, "--schema", SCHEMA, "--k", "2", "--json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["k"] == 2
        assert set(doc["assignments"]) == {0, 1}
        # two clusters cannot be matched injectively to three brands
        assert "accuracy" not in doc

    def test_k_above_label_count_still_scores(self, capsys):
        code, out, _ = run(
            capsys,
            ["cluster", "--input", CARS, "--schema", SCHEMA, "--k", "5", "--json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["k"] == 5
        assert 0.0 <= doc["accuracy"] <= 1.0

    def test_no_decision_and_no_k_is_a_usage_error(self, capsys, tmp_path):
        csv = tmp_path / "p.csv"
        csv.write_text("x\n1\n2\n9\n10\n")
        schema = tmp_path / "p.schema.json"
        schema.write_text(json.dumps({"columns": [{"name": "x", "role": "numeric"}]}))
        code, _, err = run(
            capsys, ["cluster", "--input", str(csv), "--schema", str(schema)]
        )
        assert code == 1
        assert "--k" in err

    @pytest.mark.filterwarnings("error")
    def test_overflowing_column_is_a_data_error(self, capsys, tmp_path):
        big = "1" + "0" * 300
        csv = tmp_path / "o.csv"
        csv.write_text(f"x,y\n{big},1\n-{big},2\n{big},3\n-{big},4\n")
        schema = tmp_path / "o.schema.json"
        schema.write_text(json.dumps({"columns": [
            {"name": "x", "role": "numeric"}, {"name": "y", "role": "numeric"}]}))
        code, out, err = run(
            capsys, ["cluster", "--input", str(csv), "--schema", str(schema), "--k", "2"]
        )
        assert (code, out) == (2, "")
        assert err == "complexrank: data error: column 'x' is too spread out: its scatter overflows\n"

    def test_k_zero_is_rejected_by_the_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cluster", "--input", CARS, "--schema", SCHEMA, "--k", "0"])
        assert exc.value.code == 1

    def test_unknown_mode_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cluster", "--input", CARS, "--schema", SCHEMA, "--mode", "fourier"])
        assert exc.value.code == 1


class TestExperimentCommand:
    def test_defaults_run_the_bundled_dataset(self, capsys):
        code, out, _ = run(capsys, ["experiment"])
        assert code == 0
        assert "Numeric + ad hoc integer codes" in out
        assert "Coded nominal only" in out
        assert ">=90%" in out

    def test_master_seed_zero_table_regression(self, capsys):
        assert run(capsys, ["experiment", "--seed", "0", "--repeats", "20"]) == (0, EXPERIMENT_TABLE_SEED_0, "")

    def test_json_output_is_reproducible_byte_for_byte(self, capsys):
        args = ["experiment", "--json", "--seed", "3", "--repeats", "5"]
        code1, out1, _ = run(capsys, args)
        code2, out2, _ = run(capsys, args)
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["master_seed"] == 3
        assert [c["name"] for c in doc["conditions"]] == [
            "adhoc", "numeric", "nominal", "combined",
        ]

    def test_largest_master_seed_runs(self, capsys):
        code, out, _ = run(capsys, ["experiment", "--json", "--seed", str(2**64 - 1), "--repeats", "2"])
        assert code == 0
        assert json.loads(out)["master_seed"] == 2**64 - 1

    def test_output_file_matches_stdout_json(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        args = [
            "experiment", "--json", "--repeats", "3", "--output", str(out_file),
        ]
        code, out, _ = run(capsys, args)
        assert code == 0
        assert out_file.read_text() == out

    def test_table_alone_builds_no_json_report(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(ExperimentReport, "to_json", lambda self: built.append(self) or "")
        assert run(capsys, ["experiment", "--seed", "0", "--repeats", "20"]) == (0, EXPERIMENT_TABLE_SEED_0, "")
        assert not built

    def test_table_with_output_writes_the_json_report(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, out, _ = run(capsys, ["experiment", "--seed", "0", "--repeats", "20", "--output", str(out_file)])
        assert (code, out) == (0, EXPERIMENT_TABLE_SEED_0)
        assert out_file.read_text() == run(capsys, ["experiment", "--json", "--seed", "0", "--repeats", "20"])[1]

    def test_conditions_subset(self, capsys):
        code, out, _ = run(
            capsys,
            ["experiment", "--json", "--repeats", "2", "--conditions", "numeric,onehot"],
        )
        assert code == 0
        doc = json.loads(out)
        assert [c["name"] for c in doc["conditions"]] == ["numeric", "onehot"]

    def test_schema_without_decision_is_a_data_error(self, capsys, tmp_path):
        csv = tmp_path / "x.csv"
        csv.write_text("x\n1\n2\n")
        schema = tmp_path / "x.schema.json"
        schema.write_text(json.dumps({"columns": [{"name": "x", "role": "numeric"}]}))
        code, _, err = run(
            capsys, ["experiment", "--input", str(csv), "--schema", str(schema)]
        )
        assert code == 2
        assert "decision" in err

    @pytest.mark.parametrize("given", ["--input", "--schema"])
    def test_input_or_schema_alone_is_a_usage_error(self, capsys, tmp_path, given):
        # either one alone was read against the bundled cars file of the other
        csv = tmp_path / "x.csv"
        csv.write_text("x,t,y\n1,p,A\n2,q,B\n3,p,A\n")
        schema = tmp_path / "x.schema.json"
        schema.write_text(json.dumps({"columns": [{"name": "x", "role": "numeric"}, {"name": "t", "role": "nominal"},
                                                  {"name": "y", "role": "decision"}]}))
        path = csv if given == "--input" else schema
        assert run(capsys, ["experiment", given, str(path)]) == (
            1, "", "complexrank: error: --input and --schema go together; "
            "the bundled cars table is used only when both are left out\n"
        )
        code, out, _ = run(capsys, ["experiment", "--input", str(csv), "--schema", str(schema), "--repeats", "2"])
        assert code == 0 and out.startswith("Accuracy of 2 clustering runs")

    def test_colliding_coded_column_names_are_a_data_error(self, capsys, tmp_path):
        # numeric "a=x" and the one-hot column of nominal a's token x
        csv = tmp_path / "c.csv"
        csv.write_text("a=x,a,y\n1,x,P\n2,z,Q\n3,x,P\n")
        schema = tmp_path / "c.schema.json"
        schema.write_text(json.dumps({"columns": [{"name": "a=x", "role": "numeric"},
                                                  {"name": "a", "role": "nominal"},
                                                  {"name": "y", "role": "decision"}]}))
        argv = ["experiment", "--input", str(csv), "--schema", str(schema), "--conditions", "onehot"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert "coded columns 1 and 2 are both named 'a=x'" in err
        code, _, _ = run(capsys, argv[:-1] + ["adhoc"])
        assert code == 0

    def test_empty_conditions_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--conditions", ","])
        assert exc.value.code == 1

    def test_repeated_condition_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--conditions", "combined,combined"])
        assert exc.value.code == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "complexrank experiment: error: argument --conditions: each condition may be given once, "
            "got 'combined,combined'"
        )

    def test_alias_condition_runs_beside_combined(self, capsys):
        code, out, _ = run(capsys, ["experiment", "--repeats", "2", "--conditions", "combined,complex"])
        assert code == 0
        assert out.splitlines()[3].startswith("Numeric + coded nominal    ")
        assert out.splitlines()[4].startswith("Numeric + coded nominal (complex)  ")

    def test_default_conditions_are_the_library_default(self, capsys):
        assert build_parser().parse_args(["experiment"]).conditions == list(DEFAULT_CONDITIONS)
        with pytest.raises(SystemExit):
            main(["experiment", "--help"])
        assert "(default: adhoc,numeric,nominal,combined)" in " ".join(capsys.readouterr().out.split())


class TestOutputFile:
    COMMANDS = {
        "rank": ["rank", "--input", CARS, "--column", "Door"],
        "encode": ["encode", "--input", CARS, "--schema", SCHEMA],
        "cluster": ["cluster", "--input", CARS, "--schema", SCHEMA],
        "experiment": ["experiment", "--repeats", "2"],
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize("target", ["directory", "missing-directory"])
    def test_unwritable_output_is_a_data_error(self, capsys, tmp_path, command, target):
        path, code = (tmp_path, errno.EISDIR) if target == "directory" else (tmp_path / "no" / "out.json", errno.ENOENT)
        assert run(capsys, [*self.COMMANDS[command], "--output", str(path)]) == (
            2, "", f"complexrank: data error: cannot write {path}: {os.strerror(code)}\n"
        )


class TestTopLevel:
    def test_no_subcommand_prints_usage(self, capsys):
        code = main([])
        captured = capsys.readouterr()
        assert code == 1
        assert "usage" in captured.err

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cluster", "--input", CARS, "--schema", SCHEMA, "--k", "0"],
             "complexrank cluster: error: argument --k: expected a positive integer, got 0"),
            (["cluster", "--input", CARS, "--schema", SCHEMA, "--seed", "-1"],
             "complexrank cluster: error: argument --seed: seed must be non-negative, got -1"),
            (["experiment", "--repeats", "x"],
             "complexrank experiment: error: argument --repeats: 'x' is not an integer"),
            (["experiment", "--seed", "18446744073709551616"],
             "complexrank experiment: error: argument --seed: master seed must be in [0, 2**64), "
             "got 18446744073709551616"),
            (["experiment", "--seed", "-1"],
             "complexrank experiment: error: argument --seed: master seed must be in [0, 2**64), got -1"),
        ],
        ids=["k-zero", "seed-negative", "repeats-not-int", "master-seed-2**64", "master-seed-negative"],
    )
    def test_integer_flags_name_the_bad_value(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert capsys.readouterr().err.splitlines()[-1] == message

    def test_one_parser_serves_every_call_in_a_process(self, capsys):
        # the parser is built once; a call's flags never leak into the next
        assert build_parser() is build_parser()
        code, out, _ = run(capsys, ["experiment", "--conditions", "nominal", "--json"])
        assert code == 0 and [c["name"] for c in json.loads(out)["conditions"]] == ["nominal"]
        code, out, _ = run(capsys, ["experiment", "--json"])
        assert code == 0 and [c["name"] for c in json.loads(out)["conditions"]] == [m.value for m in DEFAULT_CONDITIONS]
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--bogus"])
        assert exc.value.code == 1
        assert capsys.readouterr().err == (
            "usage: complexrank [-h] command ...\ncomplexrank: error: unrecognized arguments: --bogus\n"
        )
        assert run(capsys, ["experiment", "--json"]) == (0, out, "")

    def test_entry_point_is_installed(self):
        import shutil

        assert shutil.which("complexrank") is not None
