"""Run the benchmark over several seeds and report each metric's spread.

For every workload and end-to-end metric this prints the median of the
runs and the distance between the first and third quartile as a share of
the median (statistics.quantiles(values, n=4)), next to the bound from
BENCHMARK.json. With --out it also writes the runs and summaries as JSON,
which is how baseline.json was made.

    python3 perfbench/spread.py --seeds 0-9 [--workloads cars-sweep,...] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    summary: dict = {"seconds": bench["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **result})
            summary.setdefault("env", json.loads(
                (HERE / ".work" / f"{workload}-seed{seed}-trace{args.trace}" / "summary.json")
                .read_text(encoding="utf-8"))["env"])
            print(workload, seed, json.dumps(result), flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            metrics[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "unit": runs[0]["metrics"][name]["unit"]}
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}" + (
                "" if spread < bound / 3 else "  SPREAD ABOVE A THIRD OF THE BOUND")
            print(f"  {workload} {name}: median {median:.6g}, spread {spread:.4f}{flag}")
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": metrics,
            "runs": runs,
        }
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
