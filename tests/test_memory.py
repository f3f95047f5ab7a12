"""The two-array rule: encode, standardize, the Lloyd loop and the encode
document's reader each hold at most two n x c complex arrays at once, plus
a fixed slack; encode alone holds one.

The peaks are traced with tracemalloc, which counts every numpy data buffer
the package allocates, on a seeded one-hot table wide enough that one n x c
array (20,000 x 66 complex cells, 21.1 MB) dwarfs every per-row scratch.
"""

import json
import tracemalloc

import numpy as np
import pytest

from complexrank import (
    EncodeMode,
    coded_matrix_from_json_dict,
    coded_matrix_to_json,
    encode_dataset,
    run_experiment,
    standardize,
)
from complexrank import coding
from complexrank.dataset import AttributeSchema, Column, Dataset, Role

ROWS = 20_000
CARDINALITIES = (8, 16, 40)
# slack over the n x c arrays: standardize's two squares of at most 1 MiB
# each and per-row scratch (the k-means distance scratch is smaller on
# this table)
SLACK = 6 << 20


def wide_table() -> Dataset:
    """Two numeric columns, nominal columns of the stated cardinalities and
    three labels, seeded."""
    rng = np.random.default_rng(19)
    labels = rng.integers(0, 3, ROWS)
    columns = [rng.normal(labels * 4.0, 1.0).tolist(), rng.normal(size=ROWS).tolist()]
    for v in CARDINALITIES:
        # tokens lean on the label, so the loop converges in a few steps
        codes = (labels * (v // 3) + rng.integers(0, v // 3 + 1, ROWS)) % v
        columns.append([f"t{c}" for c in codes])
    columns.append([f"L{c}" for c in labels])
    roles = [Role.NUMERIC, Role.NUMERIC] + [Role.NOMINAL] * len(CARDINALITIES) + [Role.DECISION]
    schema = AttributeSchema(tuple(Column(f"c{i}", r) for i, r in enumerate(roles)))
    return Dataset(schema, columns)


@pytest.fixture(scope="module")
def wide():
    return wide_table()


def traced_peak(f) -> int:
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def array_bytes(wide):
    """Bytes of one n x c array: the one-hot matrix of the table."""
    return encode_dataset(wide, EncodeMode.ONEHOT).data.nbytes


def test_encode_writes_into_the_array_the_matrix_keeps(wide, array_bytes):
    peak = traced_peak(lambda: encode_dataset(wide, EncodeMode.ONEHOT))
    assert peak <= array_bytes + SLACK


def test_encode_and_standardize_hold_two_arrays(wide, array_bytes):
    peak = traced_peak(lambda: standardize(encode_dataset(wide, EncodeMode.ONEHOT)))
    assert peak <= 2 * array_bytes + SLACK


def test_standardize_holds_only_its_output(wide, array_bytes):
    # standardize scales a block of columns at a time in a scratch of at
    # most one block, not in a second array
    matrix = encode_dataset(wide, EncodeMode.ONEHOT)
    peak = traced_peak(lambda: standardize(matrix))
    assert peak <= array_bytes + SLACK


def test_an_experiment_holds_two_arrays(wide, array_bytes):
    peak = traced_peak(lambda: run_experiment(wide, [EncodeMode.ONEHOT], repeats=1))
    assert peak <= 2 * array_bytes + SLACK


def test_an_experiment_of_one_restart_per_batch_holds_two_arrays(wide, array_bytes):
    # one restart's distance block dwarfs a block here, so each restart is a
    # batch of its own, and the second transposes the working matrix again
    # for its channel rows
    k, d = 3, 2 * array_bytes // (16 * ROWS)
    assert len(list(coding._spans(2, 8 * k * d * ROWS))) == 2
    peak = traced_peak(lambda: run_experiment(wide, [EncodeMode.ONEHOT], repeats=2))
    assert peak <= 2 * array_bytes + SLACK


def test_the_reader_fills_the_array_the_matrix_keeps(wide, array_bytes):
    # the document's cells land in one array; the matrix adopts it
    doc = json.loads(coded_matrix_to_json(encode_dataset(wide, EncodeMode.ONEHOT), EncodeMode.ONEHOT))
    peak = traced_peak(lambda: coded_matrix_from_json_dict(doc))
    assert peak <= 2 * array_bytes + SLACK
