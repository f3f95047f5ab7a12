"""Record the SHA-256 of every benchmark call's stdout into digests.json.

The digests pin the output bytes of the commit they were recorded at; the
benchmark counts any pass whose bytes differ as failed. Re-record only in
a change whose purpose is to change those bytes, and say so.

    PYTHONPATH=src python3 perfbench/record.py
"""

from __future__ import annotations

import hashlib
import json
import sys

import run

sys.path.insert(0, str(run.SRC))
import complexrank.cli  # noqa: E402
from child import call_cli  # noqa: E402


def main() -> int:
    digests: dict[str, str] = {}
    for workload in run.WORKLOADS:
        # a mixed-cluster seed visits MIXED_TABLES variants, so fewer seeds cover the pool
        seeds = run.POOL // run.MIXED_TABLES if workload == "mixed-cluster" else run.POOL
        for seed in range(seeds):
            for calls in run.build(workload, seed)["cycle"]:
                for call in calls:
                    r = call_cli(complexrank.cli.main, call["argv"])
                    if r["code"] != 0 or r["err"]:
                        print(f"{call['key']}: exit {r['code']}: {r['err']}", file=sys.stderr)
                        return 1
                    digests[call["key"]] = hashlib.sha256(r["out"].encode("utf-8")).hexdigest()
            print(f"{workload} seed {seed}: {len(digests)} digests", flush=True)
    with open(run.DIGESTS, "w", encoding="utf-8") as f:
        json.dump(digests, f, indent=0)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
