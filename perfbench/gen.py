"""Seeded synthetic mixed tables for the benchmark.

A table has numeric columns, nominal columns of fixed cardinality and one
decision column. Every nominal column is built from exact token counts, so
the frequency tie groups the complex-rank coding depends on are planted, not
left to chance: each column holds at least one tie group of size 2 (coded as
+r and -r) and, when the cardinality allows it, one of size 3 or more (coded
on non-axis roots of unity). The decision signal is planted by tying the
numeric centres and the token order of each column to the row's label.

Only the Python standard library is used, so the bytes depend on the seed
alone, not on the numpy version.

    python3 perfbench/gen.py --seed 3 --rows 1000 --out tables/
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class TableSpec:
    rows: int
    numeric: int
    cardinalities: tuple[int, ...]
    labels: int
    # standard deviation of the numeric noise around label centres spread
    # over [0, 100], and of the label-to-token jitter in token-order units
    numeric_noise: float = 6.0
    token_noise: float = 0.6


def _tie_groups(rng: random.Random, m: int) -> list[int]:
    """Split m tokens into tie-group sizes: a 3 when m is 4, otherwise a 2
    and, if m >= 6, one group of 3 or more; the rest random, and always a
    singleton first, which absorbs the count remainder."""
    if m < 3:
        raise ValueError(f"cardinality must be at least 3, got {m}")
    sizes = [1, 3] if m == 4 else [1, 2]
    if m >= 6:
        sizes.append(3 + rng.randrange(min(m - 5, 8)))
    left = m - sum(sizes)
    while left > 0:
        s = min(left, rng.choice((1, 1, 2, 3, 4, 5, 6, 7, 9, 12)))
        sizes.append(s)
        left -= s
    return sizes


def _token_counts(rng: random.Random, rows: int, m: int) -> list[int]:
    """Exact per-token counts summing to rows; tokens in one tie group share
    a count, and distinct groups never share one."""
    sizes = _tie_groups(rng, m)
    # groups after the first draw distinct counts around a mean that leaves
    # about a tenth of the rows to the first (singleton) group
    top = max(len(sizes), int(2 * 0.9 * rows / (m - 1)))
    while True:
        counts = rng.sample(range(1, top + 1), len(sizes) - 1)
        rest = rows - sum(s * c for s, c in zip(sizes[1:], counts))
        if rest >= 1 and rest not in counts:
            break
    out = [rest]
    for s, c in zip(sizes[1:], counts):
        out.extend([c] * s)
    rng.shuffle(out)
    return out


def generate(spec: TableSpec, seed: int) -> tuple[str, str]:
    """Return (csv_text, schema_json_text) for one seeded table."""
    rng = random.Random(seed)
    n, L = spec.rows, spec.labels
    label_names = [f"L{i}" for i in range(L)]
    labels = [rng.randrange(L) for _ in range(n)]
    centres = [[rng.uniform(0.0, 100.0) for _ in range(L)] for _ in range(spec.numeric)]
    columns: list[list[str]] = []
    for centre in centres:
        columns.append(
            [f"{centre[lab] + rng.gauss(0.0, spec.numeric_noise):.3f}" for lab in labels]
        )
    for ci, m in enumerate(spec.cardinalities):
        counts = _token_counts(rng, n, m)
        tokens = [f"c{ci}v{t}" for t in range(m)]
        # rows sorted by a label-driven score take the token multiset in
        # order, so each label lands mostly on its own stretch of tokens
        place = list(range(L))
        rng.shuffle(place)
        score = [place[lab] + rng.gauss(0.0, spec.token_noise) for lab in labels]
        order = sorted(range(n), key=score.__getitem__)
        stream = [tok for tok, c in zip(tokens, counts) for _ in range(c)]
        cells = [""] * n
        for row, tok in zip(order, stream):
            cells[row] = tok
        columns.append(cells)
    columns.append([label_names[lab] for lab in labels])

    names = [f"x{i}" for i in range(spec.numeric)]
    names += [f"c{i}" for i in range(len(spec.cardinalities))]
    names.append("label")
    roles = ["numeric"] * spec.numeric + ["nominal"] * len(spec.cardinalities) + ["decision"]
    lines = [",".join(names)]
    lines.extend(",".join(row) for row in zip(*columns))
    schema = {"columns": [{"name": a, "role": r} for a, r in zip(names, roles)]}
    return "\n".join(lines) + "\n", json.dumps(schema, indent=2) + "\n"


def write(spec: TableSpec, seed: int, out_dir: Path) -> tuple[Path, Path]:
    """Write table.csv and table.schema.json under out_dir."""
    csv_text, schema_text = generate(spec, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path, schema_path = out_dir / "table.csv", out_dir / "table.schema.json"
    csv_path.write_text(csv_text, encoding="utf-8")
    schema_path.write_text(schema_text, encoding="utf-8")
    return csv_path, schema_path


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rows", type=int, default=1000)
    p.add_argument("--numeric", type=int, default=2)
    p.add_argument("--cardinalities", default="4,6,8,12")
    p.add_argument("--labels", type=int, default=9)
    p.add_argument("--out", type=Path, required=True)
    a = p.parse_args()
    cards = tuple(int(c) for c in a.cardinalities.split(","))
    paths = write(TableSpec(a.rows, a.numeric, cards, a.labels), a.seed, a.out)
    print(*paths)


if __name__ == "__main__":
    main()
