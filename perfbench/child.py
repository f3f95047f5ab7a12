"""Workload child: one caller driving complexrank.cli.main in a closed loop.

run.py starts this file in a fresh interpreter with PYTHONPATH pointing at
the checkout's src/ and the BLAS thread caps in its environment, so the
measured process holds nothing but the program and this loop. A pass is
the list of CLI calls (plus, for encode round trips, the read-back) that
make one unit of work; passes run back to back with stdout and stderr
captured, and a cycle is the list of passes that repeats. Every output is
checked after its pass, outside the timed interval.

Untraced, the loop runs whole cycles until --seconds have passed. Traced,
it runs untraced cycles for half the time, wrapped cycles for the other
half, then one cycle under tracemalloc for per-layer peaks; spans stay in
memory and are written with the results when the child ends.

    python3 perfbench/child.py CONFIG.json RESULT.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

# (module, attribute path, span name): public names wrapped where callers
# look them up, so the CLI and run_experiment call the wrapper
TRACE_POINTS = (
    ("complexrank.cli", "parse_csv", "dataset.parse_csv"),
    ("complexrank.cli", "encode_dataset", "coding.encode_dataset"),
    ("complexrank.cli", "coded_matrix_to_json_dict", "coding.coded_matrix_to_json_dict"),
    ("complexrank.cli", "run_experiment", "cluster.run_experiment"),
    ("complexrank.cluster", "encode_dataset", "coding.encode_dataset"),
    ("complexrank.cluster", "standardize", "space.standardize"),
    ("complexrank.cluster", "kmeans", "cluster.kmeans"),
    ("complexrank.cluster", "purity_accuracy", "cluster.purity_accuracy"),
    ("complexrank.cluster", "ExperimentReport.to_json", "cluster.ExperimentReport.to_json"),
)


def _kmeans_attrs(args, kwargs, result) -> dict:
    data = args[0] if args else kwargs["data"]
    k = args[1] if len(args) > 1 else kwargs["k"]
    a = getattr(data, "data", data)
    d = a.shape[1] * (2 if a.dtype.kind == "c" else 1)
    max_it = args[3] if len(args) > 3 else kwargs.get("max_iterations", 100)
    return {"n": a.shape[0], "k": k, "d": d, "iterations": result.iterations,
            "max_iterations": max_it}


def _purity_attrs(args, kwargs, result) -> dict:
    assignments = args[0] if args else kwargs["assignments"]
    labels = args[1] if len(args) > 1 else kwargs["labels"]
    return {"clusters": len(set(assignments)), "labels": len(set(labels))}


def _encode_attrs(args, kwargs, result) -> dict:
    mode = args[1] if len(args) > 1 else kwargs["mode"]
    return {"mode": mode.value}


ATTRS = {
    "cluster.kmeans": _kmeans_attrs,
    "cluster.purity_accuracy": _purity_attrs,
    "coding.encode_dataset": _encode_attrs,
}


class Tracer:
    """Spans (name, start, end, parent, pass id, attrs) kept in a list.

    With memory on, each span also records the tracemalloc peak above the
    allocation level at its start.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.pass_id = -1
        self.memory = False

    def wrap(self, fn, name: str):
        attrs_of = ATTRS.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            span = [name, 0.0, 0.0, parent, self.pass_id, {}]
            self.spans.append(span)
            self.stack.append(index)
            if self.memory:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if self.memory:
                span[5]["peak_b"] = tracemalloc.get_traced_memory()[1] - base
            if attrs_of is not None:
                span[5].update(attrs_of(args, kwargs, result))
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every trace point; return the ones this program lacks."""
        missing = []
        for module, path, name in TRACE_POINTS:
            owner = sys.modules.get(module)
            *owners, attr = path.split(".")
            for o in owners:
                owner = getattr(owner, o, None)
            if owner is None or not callable(getattr(owner, attr, None)):
                missing.append(f"{module}.{path}")
                continue
            setattr(owner, attr, self.wrap(getattr(owner, attr), name))
        return missing


def call_cli(main, argv: list[str]) -> dict:
    """Run main(argv) with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed pass, not a dead benchmark
            code = None
            err.write(traceback.format_exc())
    return {"code": code, "out": out.getvalue(), "err": err.getvalue()}


def decode(text: str):
    """Read an encode document back: json.loads + coded_matrix_from_json_dict."""
    from complexrank.coding import coded_matrix_from_json_dict

    return coded_matrix_from_json_dict(json.loads(text))


def same_matrix(a, b) -> bool:
    """Bit-for-bit equality of data, columns, decision and codebooks."""
    return (
        a.data.shape == b.data.shape
        and a.data.tobytes() == b.data.tobytes()
        and a.columns == b.columns
        and a.decision == b.decision
        and repr(a.codebooks) == repr(b.codebooks)
    )


def check_call(result: dict, expected_sha256: str, reference=None) -> str | None:
    """Return why a captured call failed, or None when it passed."""
    if result["code"] != 0:
        return f"exit code {result['code']}"
    if result["err"]:
        return "stderr: " + result["err"].strip().splitlines()[-1][:200]
    digest = hashlib.sha256(result["out"].encode("utf-8")).hexdigest()
    if digest != expected_sha256:
        return f"sha256 {digest[:16]} != recorded {expected_sha256[:16]}"
    if reference is not None:
        decoded = result["decoded"]
        if isinstance(decoded, str):
            return f"read-back failed: {decoded}"
        if not same_matrix(decoded, reference):
            return "read-back differs from encode_dataset"
    return None


class Loop:
    """Runs passes of CLI calls and checks them."""

    def __init__(self, main, cycle: list[list[dict]], references: dict) -> None:
        self.main = main
        self.cycle = cycle
        self.references = references
        self.attempted = 0
        self.failures: list[str] = []
        self.tracer: Tracer | None = None

    def run_pass(self, calls: list[dict]) -> float:
        """One timed pass; returns its seconds. Checks run after the clock stops."""
        tracer = self.tracer
        main = tracer.wrap(self.main, "cli.main") if tracer else self.main
        read = tracer.wrap(decode, "coding.read_json") if tracer else decode
        results = []
        t0 = time.perf_counter()
        if tracer:
            root = ["bench.pass", t0, 0.0, -1, tracer.pass_id, {}]
            tracer.spans.append(root)
            tracer.stack.append(len(tracer.spans) - 1)
        for call in calls:
            r = call_cli(main, call["argv"])
            if call.get("roundtrip") and r["code"] == 0:
                try:
                    r["decoded"] = read(r["out"])
                except Exception as exc:  # checked below as a failure
                    r["decoded"] = f"{type(exc).__name__}: {exc}"
            results.append(r)
        t1 = time.perf_counter()
        if tracer:
            root[2] = t1
            tracer.stack.pop()
            root[5]["json_bytes"] = sum(
                len(r["out"].encode("utf-8")) for c, r in zip(calls, results) if c.get("roundtrip")
            )
        self.attempted += 1
        for call, r in zip(calls, results):
            ref = self.references.get(call.get("roundtrip"))
            why = check_call(r, call["sha256"], ref)
            if why is not None:
                self.failures.append(f"{call['argv'][0]}: {why}")
                break
        return t1 - t0

    def run_cycles(self, seconds: float) -> list[list[float]]:
        """Whole cycles until `seconds` have passed; per-pass seconds each."""
        cycles = []
        start = time.perf_counter()
        while not cycles or time.perf_counter() - start < seconds:
            times = []
            for calls in self.cycle:
                if self.tracer:
                    self.tracer.pass_id += 1
                times.append(self.run_pass(calls))
            cycles.append(times)
        return cycles


def runtime_info() -> dict:
    """Interpreter, numpy and BLAS as this process loaded them."""
    import platform

    import numpy as np

    info = {"python": platform.python_version(), "numpy": np.__version__, "blas": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy older than 1.25 has no dict mode
        pass
    return info


def main() -> int:
    config = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    import complexrank.cli as cli
    from complexrank.coding import EncodeMode, encode_dataset
    from complexrank.dataset import AttributeSchema, parse_csv

    # read-back references: the matrix encode_dataset gives for each table
    references = {}
    for key, (csv_path, schema_path) in config["references"].items():
        schema = AttributeSchema.from_json(Path(schema_path).read_text(encoding="utf-8"))
        dataset = parse_csv(Path(csv_path).read_text(encoding="utf-8"), schema)
        references[key] = encode_dataset(dataset, EncodeMode.COMBINED)
        del dataset

    loop = Loop(cli.main, config["cycle"], references)
    loop.run_pass(config["cycle"][0])  # warm-up, checked but not timed
    out: dict = {"module": cli.__file__, "env": runtime_info()}
    seconds = config["seconds"]
    if not config["trace"]:
        out["cycles"] = loop.run_cycles(seconds)
    else:
        out["cycles"] = loop.run_cycles(seconds / 2)
        tracer = Tracer()
        out["missing_trace_points"] = tracer.install()
        loop.tracer = tracer
        out["traced_cycles"] = loop.run_cycles(seconds / 2)
        out["traced_passes"] = tracer.pass_id + 1
        tracer.memory = True
        tracer.pass_id += 1
        tracemalloc.start()
        loop.run_pass(config["cycle"][0])
        tracemalloc.stop()
        out["spans"] = tracer.spans
    out["attempted"] = loop.attempted
    out["failures"] = loop.failures
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(sys.argv[2], "w", encoding="utf-8") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
