"""Malformed outside input only ever gives an exit code or a DataError.

The CLI reads CSV and schema files, and the read-back reads encode
documents. Mutated copies of the cars files and documents must give exit
0, 1 or 2 with no traceback, and the read-back must raise nothing but
DataError. Both properties are derandomized, so the suite stays
deterministic.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from complexrank import DataError, EncodeMode, coded_matrix_from_json_dict, encode_dataset, standardize
from complexrank.cli import main
from complexrank.coding import coded_matrix_to_json
from complexrank.dataset import cars_csv_path, cars_schema_path

def fuzz(examples):
    return settings(derandomize=True, deadline=None, max_examples=examples)

# bytes that matter to the CSV and JSON syntax, then any byte
SYNTAX = st.sampled_from(b',\n\r"{}[]:-+.eE 0159')
edits = st.lists(
    st.tuples(st.floats(0, 1), st.sampled_from(["replace", "insert", "delete"]), st.one_of(SYNTAX, st.integers(0, 255))),
    min_size=1,
    max_size=4,
)


def mutated(text: bytes, changes) -> bytes:
    """text with each (position, kind, byte) edit applied in turn."""
    for where, kind, byte in changes:
        i = min(int(where * len(text)), len(text) - 1)
        if kind == "replace":
            text = text[:i] + bytes([byte]) + text[i + 1:]
        elif kind == "insert":
            text = text[:i] + bytes([byte]) + text[i:]
        else:
            text = text[:i] + text[i + 1:]
    return text


COMMANDS = st.sampled_from([
    *(["encode", "--mode", m.value] for m in EncodeMode),
    ["encode", "--table"],
    *(["cluster", "--mode", m.value, "--seed", "1"] for m in EncodeMode),
    ["rank", "--column", "Power"],
    ["experiment", "--repeats", "2"],
])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@fuzz(300)
@given(COMMANDS, edits, st.sampled_from(["csv", "schema", "both"]))
def test_cli_on_mutated_files_exits_cleanly(workdir, command, changes, target):
    csv, schema = cars_csv_path().read_bytes(), cars_schema_path().read_bytes()
    if target in ("csv", "both"):
        csv = mutated(csv, changes)
    if target in ("schema", "both"):
        schema = mutated(schema, changes)
    (workdir / "t.csv").write_bytes(csv)
    (workdir / "t.schema.json").write_bytes(schema)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([*command, "--input", str(workdir / "t.csv"), "--schema", str(workdir / "t.schema.json")])
        except SystemExit as exc:  # argparse
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


ODD = [None, True, 10**400, 1e308, -0.0, "", [], {}]


@pytest.fixture(scope="module")
def documents(cars):
    """The encode documents of cars in every mode, raw and standardized."""
    texts = []
    for mode in EncodeMode:
        m = encode_dataset(cars, mode)
        texts += [coded_matrix_to_json(m, mode), coded_matrix_to_json(standardize(m), mode)]
    return texts


def replace_subtree(doc, data):
    """doc with one subtree, reached by a random walk from the root, replaced by an odd value."""
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and data.draw(st.integers(0, 9), label="descend"):
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))), label="key")
        parent, node = node, node[key]
    value = data.draw(st.sampled_from(ODD), label="value")
    if parent is None:
        return value
    parent[key] = value
    return doc


# an int beyond float range in a scaling entry is reached by about 1 walk
# in 500, so a smaller run may miss it
@fuzz(1000)
@given(st.data())
def test_read_back_of_mutated_document_raises_only_data_error(documents, data):
    doc = json.loads(data.draw(st.sampled_from(documents), label="document"))
    for _ in range(data.draw(st.integers(1, 2), label="mutations")):
        doc = replace_subtree(doc, data)
    try:
        coded_matrix_from_json_dict(doc)
    except DataError:
        pass
