"""Command-line front end: rule | search | orbit | table | experiment | pad | diagnose.

Each command is a function from its parsed flags to its exit code and report
text; `main` writes the text, to stdout or to the file named by --out, which
every command takes.  So the output is a pure function of the flags (plus the
seed where one applies); no environment variables are consulted.  Exit codes
are a stable contract: 0 success, 1 input error, 2 not applicable, 64 usage.

CSV output is UTF-8 with LF line endings; reals are written with 17
significant digits so parsing the file back reproduces the exact doubles.
JSON uses the same field names, with null where CSV leaves a cell empty.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from itertools import repeat
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .core_model import (
    DEFAULT_EPSILON,
    angles_of,
    error_bound,
    failure_kernel,
    failure_probabilities,
    make_instance,
    rotation_angles,
    valid_counts,
)
from .diophantine import (
    default_horizon,
    horizon_for_bound,
    minimal_odd_l,
    orbit_coords,
    scan_rows,
    target_distance,
)
from .statevector import RNG_ALGORITHM, run_discrimination
from .stopping_rule import (
    Applicability,
    certified_rules,
    certify,
    check_applicability,
    construct_rule,
)
from .transforms import applicability_flags, l_bound_of, pad_for_ratio

__all__ = ["main", "entry", "TABLE_FIELDS"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_APPLICABLE = 2
EXIT_USAGE = 64


# (name, type) of each `table` column, in CSV order; a cell is None or of its
# column's type.  gamma is None where M = 0, the pair where no l was found or
# certified, and p, s and l_constructive where the rule is not fully certified.
_TABLE_COLUMNS = [
    ("N", int), ("M", int), ("K", int), ("theta_M", float), ("theta_K", float),
    ("gamma", float), ("applicable", bool), ("p", int), ("s", int),
    ("l_constructive", int), ("l_minimal", int), ("l_bound", float), ("fail_K", float),
    ("fail_M", float),
]
TABLE_FIELDS = [name for name, _ in _TABLE_COLUMNS]
_DIAGNOSE_FIELDS = ["N", "M", "K", "l_minimal", "l_bound", "ratio", "exhausted", "horizon"]
_ORBIT_COLUMNS = [
    ("l", int), ("x_K", float), ("x_M", float), ("strict_distance", float),
    ("relaxed_score", float),
]


class _Parser(argparse.ArgumentParser):
    """argparse with the BSD-style usage exit code."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


_CELL_FORMAT = {int: "%d", float: "%.17g"}
# A cell's part of its row's pattern, two bits per column.
_NUMBER, _TRUE, _FALSE, _NONE = range(4)


def _row_format(columns: Sequence[tuple[str, type]], pattern: int) -> tuple[str, list[int]]:
    """The %-format of rows with this pattern, and the columns whose cells it takes."""
    specs, present = [], []
    for i, (_, kind) in enumerate(columns):
        cell = pattern >> 2 * i & 3
        if cell == _NONE:
            spec = ""
        elif kind is bool:
            spec = "true" if cell == _TRUE else "false"
        else:
            spec = _CELL_FORMAT[kind]
            present.append(i)
        specs.append(spec)
    return ",".join(specs), present


def _csv_text(columns: Sequence[tuple[str, type]], cells: Sequence[np.ndarray]) -> str:
    """CSV of columns whose cells are None or of their column's type: int, float or bool.

    ``cells`` holds one array per column; only an object array holds None.
    Each row is written by one %-format, chosen by its pattern (which of its
    cells are None, and its bool cells) and built once per pattern.  The rows
    of a pattern are formatted together from their present cells, in place.
    No cell holds a comma, quote or newline, so none needs quoting.
    """
    n = len(cells[0])
    patterns = np.zeros(n, dtype=np.int64)
    for i, ((_, kind), column) in enumerate(zip(columns, cells)):
        key = np.where(np.equal(column, True), _TRUE, _FALSE) if kind is bool else _NUMBER
        if column.dtype == object:
            key = np.where(np.equal(column, None), _NONE, key)
        patterns |= np.left_shift(key, 2 * i)
    lines = np.empty(n, dtype=object)
    distinct, which = np.unique(patterns, return_inverse=True)
    for group, pattern in enumerate(distinct.tolist()):
        rows = np.flatnonzero(which == group)
        fmt, present = _row_format(columns, pattern)
        args = zip(*[cells[i][rows].tolist() for i in present]) if present else repeat(())
        lines[rows] = np.fromiter(map(fmt.__mod__, args), dtype=object, count=rows.size)
    return "\n".join([",".join(name for name, _ in columns), *lines.tolist()]) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _parse_range(spec: str) -> range:
    """START:STOP[:STEP] with inclusive STOP and STEP >= 1, or a single integer.

    A range with no values is an input error.
    """
    parts = spec.split(":")
    if len(parts) > 3:
        raise ValueError(f"bad range spec {spec!r}; expected START:STOP[:STEP]")
    start = int(parts[0])
    stop = int(parts[1]) if len(parts) > 1 else start
    step = int(parts[2]) if len(parts) > 2 else 1
    if step < 1:
        raise ValueError(f"range {spec!r}: STEP must be >= 1")
    values = range(start, stop + 1, step)
    if not values:
        raise ValueError(f"range {spec!r} holds no values")
    return values


def _refusal(app: Applicability) -> tuple[str, str] | None:
    """(reason, error) for the first applicability flag that fails, or None."""
    if not app.ordering_ok:
        return "ordering", "applicability flag failed: ordering"
    if not app.size_condition_ok:
        return "size_condition", "applicability flag failed: size_condition"
    if not app.gamma_small_ok:
        return "gamma_too_large", "gamma - 1 > 1/4; retry with --best-effort or search"
    return None


def cmd_rule(args: argparse.Namespace) -> tuple[int, str]:
    instance = make_instance(args.N, args.M, args.K)
    bound = error_bound(args.epsilon)
    app = check_applicability(instance)
    report: dict[str, Any] = {
        "instance": asdict(instance),
        "applicability": asdict(app),
        "epsilon": args.epsilon,
    }
    if instance.M == 0:
        # Degenerate hypothesis pair (0 vs K): plain Grover, answered by search.
        search = minimal_odd_l(angles_of(instance), bound, default_horizon(instance))
        report["path"] = "plain-grover"
        report["search"] = asdict(search)
        return EXIT_OK, _json_dump(report)
    report["path"] = "constructive"
    refusal = None if args.best_effort else _refusal(app)
    if refusal:
        report["reason"], report["error"] = refusal
        return EXIT_NOT_APPLICABLE, _json_dump(report)
    rule = construct_rule(instance)
    report["rule"] = asdict(rule)
    report["certificate"] = asdict(certify(rule, instance, args.epsilon))
    return EXIT_OK, _json_dump(report)


def cmd_search(args: argparse.Namespace) -> tuple[int, str]:
    instance = make_instance(args.N, args.M, args.K)
    _check_horizon(args.horizon)
    if not 0.0 < args.tol < 1.0:  # also false for NaN
        raise ValueError(f"--tol must lie in (0, 1), got {args.tol}")
    horizon = args.horizon if args.horizon is not None else default_horizon(instance)
    report = minimal_odd_l(angles_of(instance), args.tol, horizon, args.mode)
    return EXIT_OK, _json_dump({"instance": asdict(instance), "search": asdict(report)})


def cmd_orbit(args: argparse.Namespace) -> tuple[int, str]:
    if args.l_max < 1 or args.l_max % 2 == 0:
        raise ValueError(f"--l-max must be odd and >= 1, got {args.l_max}")
    instance = make_instance(args.N, args.M, args.K)
    angles = angles_of(instance)
    ls = np.arange(1, args.l_max + 1, 2)
    x_K, x_M = orbit_coords(ls, angles.theta_K, angles.theta_M)
    distance = target_distance(x_K, x_M)
    scores = np.maximum(*failure_kernel(ls, angles.theta_K, angles.theta_M))
    return EXIT_OK, _csv_text(_ORBIT_COLUMNS, [ls, x_K, x_M, distance, scores])


def build_table_rows(
    counts: np.ndarray, epsilon: float, horizon: int | None = None
) -> list[np.ndarray]:
    """The table's columns, in ``TABLE_FIELDS`` order, for the counts' triples.

    ``counts`` holds the validated int64 columns N, M, K, as ``_triple_columns``
    returns them.  Each column is computed across all rows at once, by the
    elementwise formulas that the instance-level functions call, and the scans
    of all rows run together.  The transcendentals come from libm, one call
    per row: asin for the angles, and cos and sin for the rules that pass
    every other certificate flag.  The failure pair is the array
    ``failure_kernel``'s at l_minimal, else the certified rule's.  A column
    whose cells may be None is an object array of Python numbers.
    """
    N, M, K = counts
    n, bound = N.size, error_bound(epsilon)
    angles = rotation_angles(N, M, K)
    l_bound = l_bound_of(N, M, K)
    # The ordering flag is ProblemInstance.strict_regime, M < K < N/2.
    applicable = (2 * K < N) & np.logical_and(*applicability_flags(N, K, angles.gamma))
    ruled = np.flatnonzero(M > 0)
    at, p, s, l, fails = certified_rules(ruled, angles, l_bound, epsilon)
    horizons = horizon_for_bound(l_bound) if horizon is None else np.full(n, horizon)
    horizons[at] = np.maximum(horizons[at], l)
    found, _ = scan_rows(angles.theta_K, angles.theta_M, bound, horizons)
    hits = np.flatnonzero(found)
    fail_K, fail_M = np.full(n, np.nan), np.full(n, np.nan)
    fail_K[at], fail_M[at] = fails.T
    fail_K[hits], fail_M[hits] = failure_kernel(
        found[hits], angles.theta_K[hits], angles.theta_M[hits]
    )
    paired = np.flatnonzero(~np.isnan(fail_K))
    return [
        N, M, K, angles.theta_M, angles.theta_K, _cells(n, ruled, angles.gamma[ruled]),
        applicable, _cells(n, at, p), _cells(n, at, s), _cells(n, at, l),
        _cells(n, hits, found[hits]), l_bound,
        _cells(n, paired, fail_K[paired]), _cells(n, paired, fail_M[paired]),
    ]


def _cells(n: int, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """An object column of n cells: the values, as Python numbers, at the rows, else None."""
    column = np.full(n, None, dtype=object)
    column[rows] = values
    return column


def _grid_corners(ns: range, ms: range, ks: range) -> Iterator[tuple[int, int, int]]:
    """The valid triples of a grid product: its corners with 0 <= m < k <= n."""
    return ((n, m, k) for n in ns for m in ms for k in ks if 0 <= m < k <= n)


def _read_triples(path: str) -> list[list[str]]:
    """The tokens of each 'N M K' line of a file; a file with none is an input error.

    Blank lines and lines that start with '#' are skipped, commas count as
    spaces, and a leading byte-order mark is dropped.
    """
    with open(path, encoding="utf-8-sig") as fh:
        rows = [
            line.replace(",", " ").split()
            for line in map(str.strip, fh)
            if line and not line.startswith("#")
        ]
    if not rows:
        raise ValueError("empty grid")
    return rows


def _triple_columns(rows: Iterable[Iterable]) -> np.ndarray:
    """The validated int64 columns N, M, K of rows of three integers, in row order.

    Each row must hold exactly three values, each taken by ``int()``.  The
    first bad row, malformed or invalid, is the input error: a malformed row
    raises its parse error, an invalid one ``make_instance``'s.  Validity is
    judged on Python ints, so a value outside int64 is an invalid row too.
    """
    values: list[int] = []
    malformed = None
    for row in rows:
        try:
            n, m, k = map(int, row)
        except ValueError as exc:
            malformed = exc
            break
        values += n, m, k
    counts = np.array(values, dtype=object).reshape(-1, 3).T
    valid = valid_counts(*counts)
    if not valid.all():
        make_instance(*counts[:, valid.argmin()])  # raises the first invalid row's error
    if malformed:
        raise malformed
    return counts.astype(np.int64)


def _check_horizon(horizon: int | None) -> None:
    # No scan gets past 2**53, where odd l stop being exact doubles, so a
    # report would claim a horizon it did not scan.
    if horizon is not None and not 1 <= horizon <= 2**53:
        raise ValueError(f"--horizon must lie in [1, 2**53], got {horizon}")


def _table_counts(args: argparse.Namespace) -> np.ndarray:
    """The columns N, M, K of every --triples row, or of the valid corners of the range product.

    A bad --triples row is an input error, while a product's invalid corners
    are skipped.  With --reduced, only the first triple of each scaled family
    is kept.
    """
    if args.triples:
        counts = _triple_columns(_read_triples(args.triples))
    elif args.N_range and args.M_range and args.K_range:
        ranges = [_parse_range(spec) for spec in (args.N_range, args.M_range, args.K_range)]
        counts = _triple_columns(_grid_corners(*ranges))
    else:
        raise ValueError("provide --triples or all of --N-range/--M-range/--K-range")
    if args.reduced:
        _, first = np.unique(counts // np.gcd.reduce(counts), axis=1, return_index=True)
        counts = counts[:, np.sort(first)]
    return counts


def cmd_table(args: argparse.Namespace) -> tuple[int, str]:
    # Bad flags fail even when every triple of the grid is skipped.
    error_bound(args.epsilon)
    _check_horizon(args.horizon)
    columns = build_table_rows(_table_counts(args), args.epsilon, args.horizon)
    if args.format == "json":
        rows = zip(*[column.tolist() for column in columns])
        return EXIT_OK, _json_dump([dict(zip(TABLE_FIELDS, row)) for row in rows])
    return EXIT_OK, _csv_text(_TABLE_COLUMNS, columns)


def cmd_experiment(args: argparse.Namespace) -> tuple[int, str]:
    instance = make_instance(args.N, args.M, args.K)
    outcomes = {}
    for truth in ("M", "K"):
        outcome = run_discrimination(
            instance, truth, args.l, args.trials, args.seed, args.epsilon
        )
        outcomes[truth] = asdict(outcome)
    expected = failure_probabilities(args.l, angles_of(instance))
    return EXIT_OK, _json_dump(
        {
            "instance": asdict(instance),
            "l": args.l,
            "trials": args.trials,
            "seed": args.seed,
            "epsilon": args.epsilon,
            "rng_algorithm": RNG_ALGORITHM,
            "expected": asdict(expected),
            "outcomes": outcomes,
        }
    )


def cmd_pad(args: argparse.Namespace) -> tuple[int, str]:
    padded = pad_for_ratio(args.M, args.N, args.a, args.epsilon)
    return EXIT_OK, _json_dump(asdict(padded))


def cmd_diagnose(args: argparse.Namespace) -> tuple[int, str]:
    make_instance(args.N, 0, 1)  # rejects a bad N even when no (M, K) pair fits under it
    bound = error_bound(args.epsilon)
    _check_horizon(args.horizon)
    if math.isnan(args.threshold):
        # NaN compares false with every ratio and would silently drop each found row.
        raise ValueError("--threshold must not be NaN")
    ranges = range(args.N, args.N + 1), _parse_range(args.M_range), _parse_range(args.K_range)
    N, M, K = _triple_columns(_grid_corners(*ranges))
    n = N.size
    angles = rotation_angles(N, M, K)
    l_bound = l_bound_of(N, M, K)
    horizons = horizon_for_bound(l_bound) if args.horizon is None else np.full(n, args.horizon)
    found, _ = scan_rows(angles.theta_K, angles.theta_M, bound, horizons)
    exhausted, hits = found == 0, np.flatnonzero(found)
    # Exhausted scans get their lower-bound ratio from the horizon itself.
    ratio = np.where(exhausted, horizons, found) / l_bound
    order = np.lexsort((K, M, -ratio))
    rows = order[(exhausted | (ratio > args.threshold))[order]]
    columns = [N, M, K, _cells(n, hits, found[hits]), l_bound, ratio, exhausted, horizons]
    entries = zip(*[column[rows].tolist() for column in columns])
    return EXIT_OK, _json_dump([dict(zip(_DIAGNOSE_FIELDS, row)) for row in entries])


def _add_instance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--N", type=int, required=True)
    parser.add_argument("--M", type=int, required=True)
    parser.add_argument("--K", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="groverstop", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the report to this file, not stdout")

    def command(name: str, func: Callable, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=summary)
        p.set_defaults(func=func)
        return p

    p_rule = command("rule", cmd_rule, "constructive stopping rule with certificate")
    _add_instance_flags(p_rule)
    p_rule.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p_rule.add_argument("--best-effort", action="store_true")

    p_search = command("search", cmd_search, "exhaustive minimal odd-l search")
    _add_instance_flags(p_search)
    p_search.add_argument("--tol", type=float, default=0.25)
    p_search.add_argument("--horizon", type=int)
    p_search.add_argument("--mode", choices=["relaxed", "strict"], default="relaxed")

    p_orbit = command("orbit", cmd_orbit, "torus orbit trace as CSV")
    _add_instance_flags(p_orbit)
    p_orbit.add_argument("--l-max", type=int, required=True, dest="l_max")

    p_table = command("table", cmd_table, "stopping-rule table over a grid")
    p_table.add_argument("--triples", help="file of 'N M K' lines")
    p_table.add_argument("--N-range", dest="N_range", help="START:STOP[:STEP], inclusive")
    p_table.add_argument("--M-range", dest="M_range")
    p_table.add_argument("--K-range", dest="K_range")
    p_table.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p_table.add_argument("--horizon", type=int)
    p_table.add_argument("--reduced", action="store_true", help="skip proportional triples")
    p_table.add_argument("--format", choices=["csv", "json"], default="csv")

    p_exp = command("experiment", cmd_experiment, "Monte Carlo discrimination experiment")
    _add_instance_flags(p_exp)
    p_exp.add_argument("--l", type=int, required=True)
    p_exp.add_argument("--trials", type=int, required=True)
    p_exp.add_argument("--seed", type=int, required=True)
    p_exp.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)

    p_pad = command("pad", cmd_pad, "pad the database to shrink the size ratio")
    p_pad.add_argument("--M", type=int, required=True)
    p_pad.add_argument("--N", type=int, required=True)
    p_pad.add_argument("--a", type=float, default=2.0, help="ratio K = a*M")
    p_pad.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)

    p_diag = command("diagnose", cmd_diagnose, "find slow (small-divisor) instances")
    p_diag.add_argument("--N", type=int, required=True)
    p_diag.add_argument("--M-range", dest="M_range", required=True)
    p_diag.add_argument("--K-range", dest="K_range", required=True)
    p_diag.add_argument("--threshold", type=float, required=True,
                        help="report rows with l_minimal/l_bound above this")
    p_diag.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p_diag.add_argument("--horizon", type=int)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Parsing does not change the parser, so one per process serves every call.
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code, text = args.func(args)
        _emit(text, args.out)
    except (ValueError, TypeError, OSError) as exc:
        print(f"groverstop: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
