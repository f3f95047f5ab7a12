"""complexrank benchmark: three CLI workloads, end to end or traced by layer.

    python3 perfbench/run.py --workload cars-sweep --seed 0 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's src/ and nothing is installed. Inputs are generated from --seed
into perfbench/.work/ before the measured child starts. Each workload runs
in its own child process (child.py), one caller with passes back to back.

Workloads (why each exists is in BENCHMARK.json and README.md):
  cars-sweep        experiment --json --repeats 200 on the bundled 10-car
                    table for 10 master seeds: 8000 scored k-means runs a pass
  mixed-cluster     experiment --conditions combined,onehot --repeats 1 on
                    synthetic 3e4-row tables; a cycle visits 4 tables
  encode-roundtrip  encode --json on a synthetic 5e4-row table with
                    high-cardinality tie groups, read back and compared

Every CLI call must exit 0, write nothing to stderr and print bytes whose
SHA-256 matches digests.json, which record.py filled from the seed commit.
A workload seed selects one of POOL recorded input variants.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
from a traced run. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Without src/complexrank in
the checkout it exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
DIGESTS = HERE / "digests.json"

sys.path.insert(0, str(HERE))
import gen  # noqa: E402

# input variants per workload that digests.json covers; seed % POOL picks one
POOL = 64
CARS_MASTERS = 10  # master seeds per cars-sweep pass
CARS_REPEATS = 200
CARS_CONDITIONS = 4  # the experiment's default conditions
MIXED_TABLES = 4  # tables one mixed-cluster cycle visits
MIXED_SPEC = gen.TableSpec(30_000, 2, (4, 6, 8, 12), 9, numeric_noise=2.0, token_noise=0.2)
ENCODE_SPEC = gen.TableSpec(50_000, 2, (12, 60, 250, 600), 9)
SETUP_SAMPLES = 3  # before the child, and as many again after it
CHILD_DEADLINE_S = 170.0

# a fresh interpreter doing what every CLI invocation does before any work
SETUP_SNIPPET = """
import sys
import complexrank, complexrank.cli
complexrank.cli.build_parser()
for path in sys.argv[1:]:
    with open(path, "rb") as f:
        f.read()
print(complexrank.__file__)
"""


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def table(spec: gen.TableSpec, name: str, variant: int) -> tuple[Path, Path]:
    return gen.write(spec, variant, WORK / "inputs" / f"{name}-{variant}")


def build(workload: str, seed: int) -> dict:
    """Calls, inputs and unit of work for one workload seed.

    A call's "key" names its digest in digests.json. Tables are written
    here, before the child starts, so generator memory is not measured.
    """
    v = seed % POOL
    if workload == "cars-sweep":
        fixtures = SRC / "complexrank" / "fixtures"
        calls = [
            {"key": f"cars-sweep/{m}",
             "argv": ["experiment", "--json", "--repeats", str(CARS_REPEATS), "--seed", str(m)]}
            for m in range(CARS_MASTERS * v, CARS_MASTERS * (v + 1))
        ]
        return {"cycle": [calls], "inputs": [fixtures / "cars.csv", fixtures / "cars.schema.json"],
                "references": {}, "per_pass": CARS_MASTERS * CARS_CONDITIONS * CARS_REPEATS,
                "work": "runs", "note": f"master seeds {calls[0]['argv'][-1]}..{calls[-1]['argv'][-1]}"}
    if workload == "mixed-cluster":
        cycle, inputs = [], []
        variants = [(MIXED_TABLES * seed + i) % POOL for i in range(MIXED_TABLES)]
        for t in variants:
            csv, schema = table(MIXED_SPEC, workload, t)
            inputs = inputs or [csv, schema]
            cycle.append([{"key": f"mixed-cluster/{t}", "argv": [
                "experiment", "--input", str(csv), "--schema", str(schema),
                "--conditions", "combined,onehot", "--repeats", "1", "--json", "--seed", str(t)]}])
        return {"cycle": cycle, "inputs": inputs, "references": {}, "per_pass": MIXED_SPEC.rows,
                "work": "rows", "note": f"tables {variants}"}
    if workload == "encode-roundtrip":
        csv, schema = table(ENCODE_SPEC, workload, v)
        call = {"key": f"encode-roundtrip/{v}", "roundtrip": str(v),
                "argv": ["encode", "--input", str(csv), "--schema", str(schema), "--json"]}
        return {"cycle": [[call]], "inputs": [csv, schema],
                "references": {str(v): [str(csv), str(schema)]},
                "per_pass": ENCODE_SPEC.rows, "work": "rows", "note": f"table {v}"}
    raise BenchError(f"unknown workload {workload!r}")


WORKLOADS = ("cars-sweep", "mixed-cluster", "encode-roundtrip")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    threads = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def check_source() -> None:
    if not (SRC / "complexrank" / "cli.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'complexrank'} is missing")


def measure_setup(inputs: list[Path], env: dict) -> list[float]:
    """Wall seconds of fresh interpreters importing, building the parser and reading inputs."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, *map(str, inputs)],
                              env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0 or proc.stderr:
            raise BenchError(f"set-up interpreter failed: {proc.stderr.strip()[-500:]}")
        if not Path(proc.stdout.strip()).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"complexrank imported from {proc.stdout.strip()}, not {SRC}")
    return samples


def run_child(config: dict, run_dir: Path, env: dict, deadline: float) -> dict:
    config_path, result_path = run_dir / "config.json", run_dir / "result.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(config_path),
                               str(result_path)], env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(10.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("workload child ran past the deadline and was killed") from None
    if proc.returncode != 0:
        raise BenchError(f"workload child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if not Path(result["module"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"complexrank imported from {result['module']}, not {SRC}")
    return result


def pass_seconds(cycles: list[list[float]]) -> float:
    """Seconds per pass: the lower quartile of all passes of the run.

    On a shared host the noise only ever slows a pass, and it comes in
    phases from seconds to minutes, so a run's pass times have a long slow
    tail. Scored three ways on the same ten seeds, the lower quartile spread
    least: 12-13% of the median, against 14-18% for the median and 17-25%
    for the fastest pass of each cycle position.
    """
    times = [t for cycle in cycles for t in cycle]
    return statistics.quantiles(times, n=4)[0] if len(times) > 1 else times[0]


def environment() -> dict:
    """Host and source identity; the child adds interpreter, numpy and BLAS."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sha = dirty = None
    try:
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        if head.returncode == 0:
            sha = head.stdout.strip()
            status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                    capture_output=True, text=True, timeout=30)
            dirty = bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "complexrank").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"nproc": nproc(), "cpu": cpu, "git_sha": sha, "git_dirty": dirty,
            "src_sha256": digest.hexdigest()}


def self_times(spans: list, passes: int) -> dict[str, float]:
    """Total self seconds by span name over the first `passes` passes: each
    span's duration minus the durations of its direct children."""
    child_s = defaultdict(float)
    for name, start, end, parent, pass_id, attrs in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out = defaultdict(float)
    for i, (name, start, end, parent, pass_id, attrs) in enumerate(spans):
        if pass_id < passes:
            out[name] += end - start - child_s[i]
    return out


def layer_metrics(result: dict) -> dict[str, tuple[float, str]]:
    """Per-pass means over the traced passes, from the child's spans."""
    spans = result["spans"]
    timed = result["traced_passes"]
    self_s = self_times(spans, timed)
    total = defaultdict(float)  # inclusive seconds by name (encode split by mode)
    calls = defaultdict(int)
    kmeans = {"iterations": 0, "dist_evals": 0, "converged": 0, "scratch_b": 0}
    perms = 0
    json_bytes = 0
    peak_b = defaultdict(int)
    for name, start, end, parent, pass_id, attrs in spans:
        if pass_id >= timed:  # the tracemalloc pass: peaks only
            if "peak_b" in attrs:
                peak_b[name] = max(peak_b[name], attrs["peak_b"])
            continue
        key = f"{name}.{attrs['mode']}" if name == "coding.encode_dataset" else name
        total[key] += end - start
        calls[name] += 1
        if name == "cluster.kmeans":
            kmeans["iterations"] += attrs["iterations"]
            kmeans["dist_evals"] += attrs["n"] * attrs["k"] * attrs["iterations"]
            kmeans["converged"] += attrs["iterations"] < attrs["max_iterations"]
            kmeans["scratch_b"] = max(kmeans["scratch_b"], attrs["n"] * attrs["k"] * attrs["d"] * 8)
        elif name == "cluster.purity_accuracy":
            perms += math.perm(attrs["clusters"], attrs["labels"])
        elif name == "bench.pass":
            json_bytes += attrs["json_bytes"]

    def per_pass(x):
        return x / timed

    def ratio(a, b):
        return a / b if b else 0.0

    mb = 1 << 20
    km_s, km_n = total["cluster.kmeans"], calls["cluster.kmeans"]
    pu_s, pu_n = total["cluster.purity_accuracy"], calls["cluster.purity_accuracy"]
    traced = pass_seconds(result["traced_cycles"])
    untraced = pass_seconds(result["cycles"])
    return {
        "dataset.parse_csv.s": (per_pass(total["dataset.parse_csv"]), "s"),
        "dataset.parse_csv.peak_mb": (peak_b["dataset.parse_csv"] / mb, "MB"),
        "coding.encode_dataset.combined.s": (per_pass(total["coding.encode_dataset.combined"]), "s"),
        "coding.encode_dataset.onehot.s": (per_pass(total["coding.encode_dataset.onehot"]), "s"),
        "coding.encode_dataset.peak_mb": (peak_b["coding.encode_dataset"] / mb, "MB"),
        "coding.coded_matrix_to_json_dict.s": (
            per_pass(total["coding.coded_matrix_to_json_dict"]), "s"),
        "coding.read_json.s": (per_pass(total["coding.read_json"]), "s"),
        "coding.json_bytes": (per_pass(json_bytes), "bytes"),
        "space.standardize.s": (per_pass(total["space.standardize"]), "s"),
        "cluster.kmeans.s": (per_pass(km_s), "s"),
        "cluster.kmeans.calls": (per_pass(km_n), "count"),
        "cluster.kmeans.s_per_call": (ratio(km_s, km_n), "s"),
        "cluster.kmeans.iterations": (per_pass(kmeans["iterations"]), "count"),
        "cluster.kmeans.s_per_iter": (ratio(km_s, kmeans["iterations"]), "s"),
        "cluster.kmeans.dist_evals": (per_pass(kmeans["dist_evals"]), "count-computed"),
        "cluster.kmeans.scratch_mb": (kmeans["scratch_b"] / mb, "MB-computed"),
        "cluster.kmeans.peak_mb": (peak_b["cluster.kmeans"] / mb, "MB"),
        "cluster.kmeans.converged_ratio": (ratio(kmeans["converged"], km_n), "ratio"),
        "cluster.purity_accuracy.s": (per_pass(pu_s), "s"),
        "cluster.purity_accuracy.calls": (per_pass(pu_n), "count"),
        "cluster.purity_accuracy.s_per_call": (ratio(pu_s, pu_n), "s"),
        "cluster.purity_accuracy.perms": (per_pass(perms), "count-computed"),
        "cluster.run_experiment.self_s": (per_pass(self_s["cluster.run_experiment"]), "s"),
        "cluster.ExperimentReport.to_json.s": (
            per_pass(total["cluster.ExperimentReport.to_json"]), "s"),
        "cli.main.self_s": (per_pass(self_s["cli.main"]), "s"),
        "trace.pass_s": (per_pass(total["bench.pass"]), "s"),
        "trace.unaccounted_s": (per_pass(self_s["bench.pass"]), "s"),
        "trace_overhead_s": (traced - untraced, "s"),
    }


def report(metrics: dict[str, tuple[float, str, str]]) -> None:
    width = max(map(len, metrics))
    for name, (value, unit, note) in metrics.items():
        print(f"  {name.ljust(width)}  {value:>14.6g} {unit:<14} {note}")


def run(args) -> dict:
    check_source()
    started = time.monotonic()
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    spec = build(args.workload, args.seed)
    for calls in spec["cycle"]:
        for call in calls:
            if call["key"] not in digests:
                raise BenchError(f"no recorded digest for {call['key']}; run record.py")
            call["sha256"] = digests[call["key"]]
    env = child_env()
    setup = measure_setup(spec["inputs"], env)
    config = {"cycle": spec["cycle"], "references": spec["references"],
              "seconds": args.seconds, "trace": bool(args.trace)}
    result = run_child(config, run_dir, env, started + CHILD_DEADLINE_S)
    setup += measure_setup(spec["inputs"], env)
    info = {**environment(), **result["env"]}
    attempted, failed = result["attempted"], len(result["failures"])

    print(f"complexrank benchmark: workload {args.workload}, seed {args.seed}, {spec['note']}, "
          f"{spec['per_pass']} {spec['work']} per pass, trace {args.trace}")
    print("env " + json.dumps(info, sort_keys=True))
    for why in result["failures"][:10]:
        print(f"  FAILED pass: {why}")
    if args.trace:
        if result["missing_trace_points"]:
            print("  trace points not in this program: " + ", ".join(result["missing_trace_points"]))
        layers = layer_metrics(result)
        passes = result["traced_passes"]
        report({k: (v, u, f"per traced pass, {passes} passes") for k, (v, u) in layers.items()})
        accounted = layers["trace.pass_s"][0] - layers["trace.unaccounted_s"][0]
        print(f"  span self times account for {accounted:.6f} s of the {layers['trace.pass_s'][0]:.6f} s "
              f"traced pass; unattributed {layers['trace.unaccounted_s'][0]:.6f} s, "
              f"trace overhead {layers['trace_overhead_s'][0]:.6f} s")
        metrics = layers
    else:
        cycles = result["cycles"]
        passes = sorted(t for c in cycles for t in c)
        wall = pass_seconds(cycles)
        rate_name = "runs_per_s" if spec["work"] == "runs" else "rows_per_s"
        shown = {
            "wall_s": (wall, "s", f"lower quartile of {len(passes)} passes; fastest "
                                  f"{passes[0]:.4f} s, median {statistics.median(passes):.4f} s, "
                                  f"slowest {passes[-1]:.4f} s"),
            rate_name: (spec["per_pass"] / wall, "1/s",
                        f"{spec['per_pass']} {spec['work']} per pass; reported as work_per_s"),
            "peak_rss_mb": (result["maxrss_kb"] / 1024, "MB", "ru_maxrss of the workload child"),
            "setup_s": (statistics.median(setup), "s",
                        f"median of {len(setup)} fresh interpreters"),
            "fail_ratio": (failed / attempted, "ratio", f"{failed} of {attempted} passes failed"),
        }
        report(shown)
        metrics = {
            "wall_s": shown["wall_s"][:2],
            "work_per_s": shown[rate_name][:2],
            "peak_rss_mb": shown["peak_rss_mb"][:2],
            "setup_s": shown["setup_s"][:2],
        }
    (run_dir / "summary.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": info,
         "setup_s": setup, "cycles": result["cycles"], "failures": result["failures"],
         "metrics": metrics}, indent=2), encoding="utf-8")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    p = argparse.ArgumentParser(description="complexrank benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be non-negative and --seconds positive")
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
