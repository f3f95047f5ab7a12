"""Command line interface: rank, encode, cluster, experiment.

Exit codes: 0 on success, 1 for usage errors (bad flags or arguments),
2 for data or validation errors (malformed input, schema mismatches).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import json
import sys
from pathlib import Path

from .cluster import DEFAULT_CONDITIONS, _grid, kmeans, purity_accuracy, run_experiment
from .coding import (
    CodedMatrix,
    EncodeMode,
    coded_matrix_to_json,
    coded_matrix_to_json_dict,  # noqa: F401 -- perfbench traces it under this module
    encode_dataset,
    standardize,
)
from .dataset import (
    AttributeSchema,
    DataError,
    Dataset,
    Role,
    cars_csv_path,
    cars_schema_path,
    csv_header,
    parse_csv,
)
from .ranking import ranks


class UsageError(Exception):
    """A runtime condition that is really a misuse of the command line."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags by default; this tool reserves 2
    # for data errors, so usage problems exit 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int, message: str, below: int | None = None):
    """An argparse type for integers >= low (and < below, if given); `message` formats one outside."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < low or below is not None and value >= below:
            raise argparse.ArgumentTypeError(message.format(value))
        return value
    return parse


_positive_int = _int_at_least(1, "expected a positive integer, got {}")
_seed = _int_at_least(0, "seed must be non-negative, got {}")
# run seeds mix the master seed as a 64-bit word; a wider one would alias
_master_seed = _int_at_least(0, "master seed must be in [0, 2**64), got {}", below=2**64)


def _mode(text: str) -> EncodeMode:
    try:
        return EncodeMode(text)
    except ValueError:
        valid = ", ".join(m.value for m in EncodeMode)
        raise argparse.ArgumentTypeError(f"unknown mode {text!r} (choose from: {valid})") from None


def _conditions(text: str) -> list[EncodeMode]:
    modes = []
    for token in text.split(","):
        token = token.strip()
        if token:
            modes.append(_mode(token))
    if not modes:
        raise argparse.ArgumentTypeError("at least one condition is required")
    if len(set(modes)) < len(modes):
        raise argparse.ArgumentTypeError(f"each condition may be given once, got {text!r}")
    return modes


@functools.cache  # one parser per process; parsing leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="complexrank",
        description="Complex-number frequency ranks for nominal data.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add_io(p, *, input_required=True, schema_required=False):
        p.add_argument("--input", type=Path, required=input_required, help="CSV input path")
        p.add_argument(
            "--schema",
            type=Path,
            required=schema_required,
            help="JSON schema path ({'columns': [{'name', 'role'}]})",
        )
        p.add_argument(
            "--missing-as-category",
            metavar="TOKEN",
            help="treat empty nominal cells as this token instead of failing",
        )
        p.add_argument("--output", type=Path, help="also write the JSON result to this file")

    p_rank = sub.add_parser("rank", parents=[], help="tied ranks of one numeric column")
    add_io(p_rank)
    p_rank.add_argument("--column", required=True, help="numeric column to rank")
    p_rank.add_argument("--json", action="store_true", help="print a JSON array of ranks")

    p_encode = sub.add_parser("encode", help="code a dataset into a complex matrix")
    add_io(p_encode, schema_required=True)
    p_encode.add_argument("--mode", type=_mode, default=EncodeMode.COMBINED,
                          help="|".join(m.value for m in EncodeMode))
    fmt = p_encode.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="print the JSON document (default)")
    fmt.add_argument("--table", action="store_true", help="print a readable table instead")

    p_cluster = sub.add_parser("cluster", help="k-means over an encoded dataset")
    add_io(p_cluster, schema_required=True)
    p_cluster.add_argument("--mode", type=_mode, default=EncodeMode.COMBINED)
    p_cluster.add_argument("--k", type=_positive_int,
                           help="cluster count (default: number of decision labels)")
    p_cluster.add_argument("--seed", type=_seed, default=0)
    p_cluster.add_argument("--json", action="store_true", help="print JSON instead of text")

    p_exp = sub.add_parser("experiment", help="repeated clustering across encodings")
    add_io(p_exp, input_required=False)
    p_exp.add_argument("--repeats", type=_positive_int, default=20)
    p_exp.add_argument("--seed", type=_master_seed, default=0, help="master seed, below 2**64")
    p_exp.add_argument(
        "--conditions",
        type=_conditions,
        default=list(DEFAULT_CONDITIONS),
        help=f"comma-separated encode modes (default: {','.join(m.value for m in DEFAULT_CONDITIONS)})",
    )
    p_exp.add_argument("--json", action="store_true", help="print the JSON report instead of the table")

    return parser


def _load_dataset(args, column: str | None = None) -> Dataset:
    """Parse --input against --schema. Without one (only rank allows that) the
    header names the columns: `column` is numeric and all others nominal."""
    schema = None if args.schema is None else AttributeSchema.from_json(_read_text(args.schema))
    text = _read_text(args.input)
    if schema is None:
        roles = [(name, Role.NUMERIC if name == column else Role.NOMINAL) for name in csv_header(text)]
        schema = AttributeSchema.from_pairs(roles)
    return parse_csv(text, schema, missing_as_category=args.missing_as_category)


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _format_real(v: float) -> str:
    s = f"{v:.2f}".rstrip("0").rstrip(".")
    return "0" if s in ("-0", "") else s


def format_complex(z: complex) -> str:
    """Render a complex cell the way the tables do: 2.5, -2, -1+1.73i."""
    if z.imag == 0:
        return _format_real(z.real)
    sign = "+" if z.imag > 0 else "-"
    return f"{_format_real(z.real)}{sign}{_format_real(abs(z.imag))}i"


def cmd_rank(args) -> tuple[str, str]:
    values = _load_dataset(args, args.column).numeric(args.column).tolist()
    ranked = ranks(values)
    json_text = json.dumps(ranked) + "\n"
    if args.json:
        return json_text, json_text
    return "".join(f"{_format_real(v)}\t{_format_real(r)}\n" for v, r in zip(values, ranked)), json_text


def _encode_table(matrix: CodedMatrix) -> str:
    headers = [c.name for c in matrix.columns]
    rows = [[format_complex(z) for z in row] for row in matrix.data.tolist()]
    if matrix.decision is not None:
        headers.append("(decision)")
        rows = [[*row, label] for row, label in zip(rows, matrix.decision)]
    return "\n".join(_grid(headers, rows)) + "\n"


def cmd_encode(args) -> tuple[str, str | None]:
    matrix = encode_dataset(_load_dataset(args), args.mode)
    # the document is built only where it is printed or written (main writes it only with --output)
    json_text = None if args.table and args.output is None else coded_matrix_to_json(matrix, args.mode)
    return _encode_table(matrix) if args.table else json_text, json_text


def cmd_cluster(args) -> tuple[str, str]:
    dataset = _load_dataset(args)
    matrix = standardize(encode_dataset(dataset, args.mode))
    labels = dataset.decision_labels()
    k = args.k
    if k is None:
        if labels is None:
            raise UsageError("--k is required when the schema has no decision column")
        k = len(set(labels))
    result = kmeans(matrix, k, seed=args.seed)
    assignments = result.assignments.tolist()
    doc = {
        "mode": args.mode.value,
        "k": k,
        "seed": args.seed,
        "assignments": assignments,
        "inertia": result.inertia,
        "iterations": result.iterations,
    }
    # injective purity needs at least as many clusters as labels; with a
    # forced smaller k the score is undefined, so it is simply omitted
    if labels is not None and k >= len(set(labels)):
        doc["accuracy"] = purity_accuracy(assignments, labels)
    json_text = json.dumps(doc, indent=2) + "\n"
    if args.json:
        return json_text, json_text
    lines = [f"assignments: {' '.join(str(a) for a in assignments)}"]
    for c in range(k):
        members = [str(i + 1) for i, a in enumerate(assignments) if a == c]
        lines.append(f"cluster {c} ({len(members)} rows): {' '.join(members)}")
    lines.append(f"inertia: {result.inertia:.6f}")
    lines.append(f"iterations: {result.iterations}")
    if "accuracy" in doc:
        lines.append(f"accuracy: {doc['accuracy']:.2f}")
    return "\n".join(lines) + "\n", json_text


def cmd_experiment(args) -> tuple[str, str | None]:
    if (args.input is None) != (args.schema is None):
        raise UsageError("--input and --schema go together; the bundled cars table is used only when both are left out")
    if args.input is None:
        args.input, args.schema = cars_csv_path(), cars_schema_path()
    report = run_experiment(
        _load_dataset(args),
        conditions=args.conditions,
        repeats=args.repeats,
        master_seed=args.seed,
    )
    # the report is written as JSON only where it is printed or written (main writes it only with --output)
    json_text = report.to_json() if args.json or args.output is not None else None
    return json_text if args.json else report.render_table(), json_text


_COMMANDS = {
    "rank": cmd_rank,
    "encode": cmd_encode,
    "cluster": cmd_cluster,
    "experiment": cmd_experiment,
}


def main(argv: list[str] | None = None) -> int:
    # glibc raises its mmap threshold to each large block freed; freed whole-table
    # arrays then stay resident in the heap, and a call's peak RSS depends on the
    # tables run before it (88 or 102 MB at 30,000 rows). Fixed, they go back.
    with contextlib.suppress(AttributeError, OSError, TypeError):  # not glibc
        ctypes.CDLL(None).mallopt(-3, 8 << 20)  # M_MMAP_THRESHOLD
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        text, json_text = _COMMANDS[args.command](args)
        if args.output is not None:
            try:
                args.output.write_text(json_text, encoding="utf-8")
            except OSError as exc:
                raise DataError(f"cannot write {args.output}: {exc.strerror or exc}") from exc
    except UsageError as exc:
        print(f"complexrank: error: {exc}", file=sys.stderr)
        return 1
    except (DataError, ValueError) as exc:
        print(f"complexrank: data error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
