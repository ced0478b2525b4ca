"""Command line interface and benchmark harness.

Subcommands: solve (approximation, optionally scaled), exact (brute-force
oracle), fpt-maxmin (vertex-cover-parameterized exact solver), gen
(instance generator), validate (partition checker) and bench (CSV harness).

Exit codes: 0 success, 1 output pipe closed early, 2 input error (a file
that cannot be read, decoded or written included), 3 budget exceeded,
4 internal error (a solver broke its own invariant: a bug, not bad input).
The environment variable BCP_BUDGET_SECONDS caps oracle and fpt-maxmin
run time per instance; every solving command rejects a malformed value.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .errors import BudgetExceeded, ContractViolation, InputError, InternalError, ParseError
from .fpt import FptModel, solve_fpt_maxmin
from .graph import WeightedGraph
from .instances import FAMILIES, generate, parse_instance, parse_rational, write_instance
from .minmax import minmax_bcpk
from .oracle import exact_maxmin, exact_minmax
from .partition import (
    Partition,
    average_weight_bound,
    cut_vertex_bound,
    sort_classes,
    validate,
    w_plus,
)
from .scaling import eps_minmax_bcpk

BUDGET_ENV = "BCP_BUDGET_SECONDS"
ALGORITHMS = ("minmax-bcpk", "eps-minmax-bcpk", "exact-minmax", "exact-maxmin", "fpt-maxmin")
BENCH_COLUMNS = (
    "instance_id", "n", "m", "k", "algorithm", "value", "bound_kind", "bound", "ratio",
    "iterations", "cuts", "wall_ms",
)


@dataclass
class RunReport:
    """One solver run; classes in `sort_classes` order, iterations counts
    min-max moves or FPT search nodes."""

    value: int
    classes: Partition
    certificate: str
    bound_kind: str
    bound: Fraction
    wall_ms: float
    iterations: int = 0
    cuts: int = 0
    model: FptModel | None = None


def _budget_seconds() -> float | None:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return None
    try:
        if float(raw) >= 0:  # false for NaN, which would never pass a deadline
            return float(raw)
    except ValueError:
        pass
    raise InputError(f"{BUDGET_ENV} must be a number >= 0, got {raw!r}")


def _parse_fraction(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"cannot parse {text!r} as a rational") from None


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    """Write text as given, without newline translation."""
    try:
        Path(path).write_text(text, newline="")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _refuse_unwritable(path: str) -> None:
    """Fail before any solving when the output path is a directory or its
    directory is missing; `_write_text` reports every other write error."""
    if Path(path).is_dir() or not Path(path).parent.is_dir():
        raise InputError(f"cannot write {path}: not a file in an existing directory")


def _load_graph(path: str) -> WeightedGraph:
    return parse_instance(_read_text(path))


def _print_run(
    report: RunReport, head: Sequence[str],
    after_certificate: Sequence[str] = (), after_partition: Sequence[str] = (),
) -> None:
    """Print one solve: header, value, certificate, the command's own lines,
    the classes one a line in the report's order, its counters, the time."""
    lines = [*head, f"value: {report.value}", f"certificate: {report.certificate}"]
    lines += [*after_certificate, "partition:"]
    lines += (" ".join(map(str, sorted(c))) for c in report.classes)
    lines += [*after_partition, f"time-ms: {report.wall_ms:.1f}"]
    print("\n".join(lines))


def _run(
    g: WeightedGraph,
    k: int,
    algorithm: str,
    epsilon: Fraction | None = None,
    cover: list[int] | None = None,
) -> RunReport:
    """Run one of ALGORITHMS under the BCP_BUDGET_SECONDS budget and time
    the solver call.  A min-max solve is scaled when epsilon is given, and
    bounded by the average weight, or by a star certificate's cut-vertex
    bound when it meets the value; an exact solve by its own value."""
    max_seconds = _budget_seconds()
    if algorithm in ("minmax-bcpk", "eps-minmax-bcpk") and k == 2:
        raise InputError(
            "k=2 is not supported by the approximation pipeline; "
            "use 'exact' or 'fpt-maxmin'"
        )
    start = time.perf_counter()
    if algorithm == "fpt-maxmin":
        fpt = solve_fpt_maxmin(g, k, cover, max_seconds=max_seconds)
        wall_ms = (time.perf_counter() - start) * 1000
        return RunReport(
            fpt.value, fpt.classes, "optimal", "oracle", Fraction(fpt.value),
            wall_ms, fpt.nodes, fpt.cuts_added, fpt.model,
        )
    if algorithm.startswith("exact-"):
        exact = exact_minmax if algorithm == "exact-minmax" else exact_maxmin
        value, classes = exact(g, k, max_seconds)
        wall_ms = (time.perf_counter() - start) * 1000
        return RunReport(
            value, sort_classes(g, classes), "optimal", "oracle", Fraction(value), wall_ms
        )
    result = minmax_bcpk(g, k) if epsilon is None else eps_minmax_bcpk(g, k, epsilon)
    wall_ms = (time.perf_counter() - start) * 1000
    value = w_plus(g, result.classes)
    bound_kind = "average"
    bound: Fraction = average_weight_bound(g, k)
    # The cut-vertex bound when it meets the value: it is the weight of the
    # star center's class, so it does exactly when that class is heaviest.
    if result.star is not None and cut_vertex_bound(g, k, result.star) == value:
        bound_kind = "cut-vertex"
        bound = Fraction(value)
    return RunReport(
        value, result.classes, result.certificate.value, bound_kind, bound,
        wall_ms, result.iterations,
    )


def _cmd_solve(args: argparse.Namespace) -> int:
    g = _load_graph(args.instance)
    epsilon = _parse_fraction(args.epsilon) if args.epsilon is not None else None
    algorithm = "minmax-bcpk" if epsilon is None else "eps-minmax-bcpk"
    report = _run(g, args.k, algorithm, epsilon)
    head = [f"instance: {args.instance} (n={g.n}, m={g.m}, W={g.total_weight})",
            "objective: minmax", f"k: {args.k}"]
    if epsilon is not None:
        head.append(f"epsilon: {epsilon}")
    ratio = Fraction(report.value) / report.bound
    _print_run(report, head, [
        f"bound ({report.bound_kind}): {report.bound}",
        f"ratio: {ratio.numerator}/{ratio.denominator} ({float(ratio):.6f})",
    ], [f"iterations: {report.iterations}"])
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    g = _load_graph(args.instance)
    report = _run(g, args.k, f"exact-{args.objective}")
    head = f"instance: {args.instance} (n={g.n}, m={g.m}, W={g.total_weight})"
    _print_run(report, [head, f"objective: {args.objective}", f"k: {args.k}"])
    return 0


def _cmd_fpt_maxmin(args: argparse.Namespace) -> int:
    g = _load_graph(args.instance)
    cover = None
    if args.cover is not None:
        try:
            cover = [int(tok) for tok in args.cover.split(",") if tok]
        except ValueError:
            raise InputError(f"bad cover list {args.cover!r}") from None
    if args.dump_model:
        _refuse_unwritable(args.dump_model)
    report = _run(g, args.k, "fpt-maxmin", cover=cover)
    _print_run(report, [
        f"instance: {args.instance} (n={g.n}, m={g.m})", "objective: maxmin (unweighted)",
        f"k: {args.k}", f"cover: {' '.join(map(str, report.model.dec.cover))}",
    ], after_partition=[f"nodes: {report.iterations}", f"cuts: {report.cuts}"])
    if args.dump_model:
        _write_text(args.dump_model, report.model.dump())
        print(f"model dumped to {args.dump_model}")
    return 0


def _parse_weight_range(text: str) -> tuple[int, int]:
    try:
        lo, _, hi = text.partition(":")
        return int(lo), int(hi or lo)
    except ValueError:
        raise InputError(f"weights must look like LO:HI, got {text!r}") from None


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        g = generate(args.family, args.n, _parse_weight_range(args.weights), args.seed)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    text = write_instance(g)
    if args.out:
        _write_text(args.out, text)
        print(f"wrote {args.out} (n={g.n}, m={g.m}, W={g.total_weight})")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    g = _load_graph(args.instance)
    classes = []
    for line_no, raw in enumerate(_read_text(args.partition).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        try:
            vertices = [int(tok) for tok in line.split()]
        except ValueError:
            raise ParseError("partition lines must hold vertex ids", line_no) from None
        if len(set(vertices)) != len(vertices):
            raise ParseError("a partition line lists a vertex twice", line_no)
        classes.append(frozenset(vertices))
    report = validate(g, classes, len(classes))
    if report:
        for item in report:
            print(f"invalid: {item}")
        return 2
    weights = sorted(g.weight(c) for c in classes)
    print(f"valid connected {len(classes)}-partition; class weights {weights}")
    return 0


def _bench_one(entry: object, index: int) -> list[object]:
    """One CSV row in BENCH_COLUMNS order."""
    if not isinstance(entry, dict):
        raise InputError(f"suite entry {index} must be an object")
    for key in ("family", "n", "k", "algorithm"):
        if key not in entry:
            raise InputError(f"suite entry {index} misses {key!r}")
    family = entry["family"]
    numbers = [entry["n"], entry["k"], entry.get("seed", 0)]
    weights = entry.get("weights", [1, 1])
    if type(weights) is list and len(weights) == 2:
        numbers += weights
    if len(numbers) != 5 or any(type(x) is not int for x in numbers):  # bool is not int
        raise InputError(f"suite entry {index}: n, k, seed and a weights pair must be integers")
    n, k, seed, lo, hi = numbers
    algorithm = entry["algorithm"]
    if algorithm not in ALGORITHMS:
        raise InputError(f"suite entry {index}: unknown algorithm {algorithm!r}")
    instance_id = entry.get("id", f"{family}-n{n}-s{seed}")
    if not isinstance(instance_id, str):
        raise InputError(f"suite entry {index}: id must be a string")
    try:
        g = generate(family, n, (lo, hi), seed)
    except ValueError as exc:
        raise InputError(f"suite entry {index}: {exc}") from exc

    epsilon = None
    if algorithm == "eps-minmax-bcpk":
        epsilon = _parse_fraction(str(entry.get("epsilon", "1/2")))
    report = _run(g, k, algorithm, epsilon)
    return [
        instance_id, g.n, g.m, k, algorithm, report.value, report.bound_kind, report.bound,
        f"{float(report.value / report.bound):.6f}", report.iterations, report.cuts,
        f"{report.wall_ms:.1f}",
    ]


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        suite = json.loads(_read_text(args.suite))
    except json.JSONDecodeError as exc:
        raise InputError(f"suite is not valid JSON: {exc}") from exc
    entries = suite.get("entries") if isinstance(suite, dict) else None
    if not isinstance(entries, list):
        raise InputError("suite must hold an 'entries' list")
    _refuse_unwritable(args.out)
    rows = [_bench_one(entry, i) for i, entry in enumerate(entries)]
    table = io.StringIO()
    csv.writer(table).writerows([BENCH_COLUMNS, *rows])
    _write_text(args.out, table.getvalue())
    print(f"wrote {len(rows)} records to {args.out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `bcp` argument parser, built once per process and shared by every
    `run_cli` call; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="bcp", description="Balanced connected k-partition toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="min-max approximation (k >= 3)")
    p.add_argument("instance")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--epsilon", help="rational p/q or decimal; enables scaling")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("exact", help="brute-force exact optimum")
    p.add_argument("instance")
    p.add_argument("--objective", choices=("minmax", "maxmin"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("fpt-maxmin", help="exact unweighted max-min via vertex cover")
    p.add_argument("instance")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cover", help="comma-separated vertex ids of a cover")
    p.add_argument("--dump-model", help="write model and cut pool to this path")
    p.set_defaults(func=_cmd_fpt_maxmin)

    p = sub.add_parser("gen", help="generate an instance")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weights", default="1:1", help="LO:HI inclusive range")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("validate", help="check a partition file")
    p.add_argument("instance")
    p.add_argument("partition")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("bench", help="run a benchmark suite to CSV")
    p.add_argument("--suite", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bench)

    return parser


def run_cli(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (InputError, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    try:
        status = run_cli(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Point it at devnull, so that the
        # interpreter's final flush does not raise again, and exit 1.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)


if __name__ == "__main__":
    main()
