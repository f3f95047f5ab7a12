"""Checks of the benchmark itself: generator, correctness gate and tracing.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

from complexrank import AttributeSchema, build_codebook, parse_csv  # noqa: E402
from complexrank.cli import main as cli_main  # noqa: E402
from complexrank.coding import EncodeMode, encode_dataset  # noqa: E402

SMALL = gen.TableSpec(400, 2, (4, 6, 8, 12), 5)
CARS_ARGV = ["experiment", "--json", "--repeats", "2", "--seed", "0"]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_same_seed_gives_identical_bytes():
    assert gen.generate(SMALL, 7) == gen.generate(SMALL, 7)
    assert gen.generate(SMALL, 7) != gen.generate(SMALL, 8)


@pytest.mark.parametrize("spec", [SMALL, run.MIXED_SPEC, run.ENCODE_SPEC], ids=["small", "mixed", "encode"])
def test_generated_columns_plant_both_kinds_of_tie(spec):
    csv_text, schema_text = gen.generate(spec, 3)
    dataset = parse_csv(csv_text, AttributeSchema.from_json(schema_text))
    sizes = set()
    for col in dataset.schema.feature_columns:
        if col.role.value == "nominal":
            cb = build_codebook([str(v) for v in dataset.column(col.name)], col.name)
            assert len(cb.entries) == spec.cardinalities[int(col.name[1:])]
            sizes |= {e.rank.group_size for e in cb.entries.values()}
    assert 2 in sizes
    assert max(sizes) >= 3
    assert len(set(dataset.decision_labels())) == spec.labels


def corrupting(main):
    """A CLI whose stdout has its last digit changed."""

    def corrupt(argv):
        real = sys.stdout
        buf = io.StringIO()
        sys.stdout = buf
        try:
            code = main(argv)
        finally:
            sys.stdout = real
        text = buf.getvalue()
        i = max(i for i, ch in enumerate(text) if ch.isdigit())
        sys.stdout.write(text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:])
        return code

    return corrupt


def failing(code: int, err: str):
    def fake(argv):
        sys.stderr.write(err)
        return code

    return fake


def test_clean_output_passes_and_corrupted_output_fails():
    expected = sha(child.call_cli(cli_main, CARS_ARGV)["out"])
    call = {"argv": CARS_ARGV, "sha256": expected}
    for main, fails in [
        (cli_main, False),
        (corrupting(cli_main), True),
        (failing(2, "complexrank: data error: x\n"), True),
        (failing(0, "warning\n"), True),
    ]:
        loop = child.Loop(main, [[call]], {})
        loop.run_pass([call])
        assert loop.attempted == 1
        assert bool(loop.failures) is fails, loop.failures


def test_read_back_that_differs_from_encode_dataset_fails(tmp_path):
    csv, schema = gen.write(SMALL, 1, tmp_path)
    argv = ["encode", "--input", str(csv), "--schema", str(schema), "--json"]
    dataset = parse_csv(csv.read_text(), AttributeSchema.from_json(schema.read_text()))
    refs = {"t": encode_dataset(dataset, EncodeMode.COMBINED)}
    bad = corrupting(cli_main)
    # the digest matches each CLI's own output, so only the read-back can fail
    for main, fails in [(cli_main, False), (bad, True)]:
        call = {"argv": argv, "roundtrip": "t", "sha256": sha(child.call_cli(main, argv)["out"])}
        loop = child.Loop(main, [[call]], refs)
        loop.run_pass([call])
        assert bool(loop.failures) is fails, loop.failures
        assert not fails or "read-back" in loop.failures[0]


def test_traced_child_spans_account_for_the_pass(tmp_path):
    call = {"argv": CARS_ARGV, "sha256": sha(child.call_cli(cli_main, CARS_ARGV)["out"])}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"cycle": [[call, call]], "references": {}, "seconds": 0.2, "trace": True}))
    out = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    subprocess.run([sys.executable, str(HERE / "child.py"), str(config), str(out)],
                   env=env, check=True, timeout=120)
    result = json.loads(out.read_text())
    assert result["failures"] == [] and result["missing_trace_points"] == []
    metrics = run.layer_metrics(result)
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {k: u for k, (_, u) in metrics.items()} == {m["name"]: m["unit"] for m in declared}
    layers = {k: v for k, (v, _) in metrics.items()}
    assert layers["cluster.kmeans.calls"] == 2 * 4 * 2  # 2 calls x 4 conditions x 2 repeats
    assert layers["cluster.purity_accuracy.perms"] == 2 * 4 * 2 * 6  # P(3, 3) per run
    assert layers["cluster.kmeans.peak_mb"] > 0
    # self times partition the traced pass time; the harness keeps a sliver
    self_s = run.self_times(result["spans"], result["traced_passes"])
    passes = result["traced_passes"]
    assert sum(self_s.values()) / passes == pytest.approx(layers["trace.pass_s"], rel=1e-9)
    assert self_s["bench.pass"] < 0.05 * sum(self_s.values())
