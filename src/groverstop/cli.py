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
from dataclasses import asdict, dataclass, fields
from operator import attrgetter
from itertools import chain, compress
from typing import Any, Callable, Iterable, Iterator, Sequence, get_args, get_type_hints

import numpy as np

from .core_model import (
    GroverAngles,
    angles_of,
    error_bound,
    failure_kernel,
    failure_probabilities,
    make_instance,
    rotation_angles,
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
    DEFAULT_EPSILON,
    GammaTooLarge,
    NotApplicable,
    certified_rules,
    certify,
    check_applicability,
    construct_rule,
    require_applicable,
)
from .transforms import (
    applicability_flags,
    l_bound_of,
    pad_for_ratio,
    reduce_common_divisor,
)

__all__ = ["main", "entry", "TABLE_FIELDS", "TableRow"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_APPLICABLE = 2
EXIT_USAGE = 64


@dataclass
class TableRow:
    """One `table` row; the field order is the CSV column order.

    The constructive fields (p, s, l_constructive) are set only when the rule
    is fully certified.
    """

    N: int
    M: int
    K: int
    theta_M: float
    theta_K: float
    gamma: float | None
    applicable: bool
    p: int | None
    s: int | None
    l_constructive: int | None
    l_minimal: int | None
    l_bound: float
    fail_K: float | None
    fail_M: float | None


TABLE_FIELDS = [f.name for f in fields(TableRow)]
# (name, type) of each column: the field's type, without None if it is optional.
_TABLE_COLUMNS = [
    (name, next(t for t in get_args(hint) or (hint,) if t is not type(None)))
    for name, hint in get_type_hints(TableRow).items()
]
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

# A cell's key: 0 for None, 1 for True, 2 for False, None for any other value.
# An int or float equal to 1 or 0 gets True's or False's key; its column's type
# still decides its format, so that only caches a few more formats.
_cell_key = {None: 0, True: 1, False: 2}.get


def _row_format(columns: Sequence[tuple[str, type]], key: tuple) -> tuple[str, tuple]:
    """The %-format of rows with this key, and which of their cells it takes."""
    specs, takes = [], []
    for (_, kind), cell in zip(columns, key):
        if cell == 0:
            spec = ""
        elif kind is bool:
            spec = "true" if cell == 1 else "false"
        else:
            spec = _CELL_FORMAT[kind]
        specs.append(spec)
        takes.append(spec.startswith("%"))
    return ",".join(specs), tuple(takes)


def _csv_text(columns: Sequence[tuple[str, type]], rows: Iterable[Sequence[Any]]) -> str:
    """CSV of rows whose cells are None or of their column's type: int, float or bool.

    Each row is written by one %-format, chosen by which of its cells are None
    and by its bool cells, and built once per choice.  No cell holds a comma,
    quote or newline, so none needs quoting.
    """
    formats: dict[tuple, tuple[str, tuple]] = {}
    lines = [",".join(name for name, _ in columns)]
    for row in rows:
        # (*...,) builds each tuple at its final size.  tuple() of an iterator
        # resizes a guess, which moves tuples between CPython's per-size free
        # lists until one holds 2000 of them: 0.3 MiB more peak RSS on 4000 rows.
        key = (*map(_cell_key, row),)
        fmt, takes = formats.get(key) or formats.setdefault(key, _row_format(columns, key))
        lines.append(fmt % (*compress(row, takes),))
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _parse_range(spec: str) -> range:
    """START:STOP[:STEP] with inclusive STOP, or a single integer."""
    parts = spec.split(":")
    if len(parts) == 1:
        start = int(parts[0])
        return range(start, start + 1)
    if len(parts) == 2:
        return range(int(parts[0]), int(parts[1]) + 1)
    if len(parts) == 3:
        return range(int(parts[0]), int(parts[1]) + 1, int(parts[2]))
    raise ValueError(f"bad range spec {spec!r}; expected START:STOP[:STEP]")


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
    try:
        if not args.best_effort:
            require_applicable(app)
    except (NotApplicable, GammaTooLarge) as exc:
        report["reason"] = exc.reason
        report["error"] = str(exc)
        return EXIT_NOT_APPLICABLE, _json_dump(report)
    rule = construct_rule(instance, best_effort=True)
    report["rule"] = asdict(rule)
    report["certificate"] = asdict(certify(rule, instance, args.epsilon))
    return EXIT_OK, _json_dump(report)


def cmd_search(args: argparse.Namespace) -> tuple[int, str]:
    instance = make_instance(args.N, args.M, args.K)
    horizon = args.horizon if args.horizon is not None else default_horizon(instance)
    report = minimal_odd_l(angles_of(instance), args.tol, horizon, args.mode)
    return EXIT_OK, _json_dump({"instance": asdict(instance), "search": asdict(report)})


def cmd_orbit(args: argparse.Namespace) -> tuple[int, str]:
    if args.l_max < 1 or args.l_max % 2 == 0:
        raise ValueError(f"--l-max must be odd and >= 1, got {args.l_max}")
    instance = make_instance(args.N, args.M, args.K)
    angles = angles_of(instance)
    ls = np.arange(1, args.l_max + 1, 2)
    x_K, x_M = orbit_coords(ls, angles)
    distance = target_distance(x_K, x_M)
    scores = np.maximum(*failure_kernel(ls, angles))
    rows = zip(ls.tolist(), x_K.tolist(), x_M.tolist(), distance.tolist(), scores.tolist())
    return EXIT_OK, _csv_text(_ORBIT_COLUMNS, rows)


def build_table_rows(
    triples: Iterable[tuple[int, int, int]], epsilon: float, horizon: int | None = None
) -> list[tuple]:
    """Table rows, as tuples in ``TABLE_FIELDS`` order.

    Each triple is validated by ``make_instance``.  Then each column is
    computed across all rows at once, by the elementwise formulas that the
    instance-level functions call, and the scans of all rows run together.
    The transcendentals come from libm, one call per row: asin for the
    angles, and cos and sin for the rules that pass every other certificate
    flag.  The failure pair is the array ``failure_kernel``'s at l_minimal,
    else the certified rule's.
    """
    # Flat, so the tuples die one at a time: CPython keeps up to 2000 freed
    # tuples of each size, and a list of them all would fill that free list
    # and hold its memory for the life of the process.
    N, M, K, ordering_ok = np.fromiter(
        chain.from_iterable(_COUNTS(make_instance(*triple)) for triple in triples),
        dtype=np.int64,
    ).reshape(-1, 4).T
    n, bound = N.size, error_bound(epsilon)
    angles = rotation_angles(N, M, K)
    l_bound = l_bound_of(N, M, K)
    applicable = ordering_ok.astype(bool) & np.logical_and(
        *applicability_flags(N, K, angles.gamma)
    )
    ruled = np.flatnonzero(M > 0)
    at, p, s, l, fails = certified_rules(ruled, angles, l_bound, epsilon)
    horizons = horizon_for_bound(l_bound) if horizon is None else np.full(n, horizon)
    horizons[at] = np.maximum(horizons[at], l)
    found, _ = scan_rows(angles.theta_K, angles.theta_M, bound, horizons)
    hits = np.flatnonzero(found)
    fail_K, fail_M = np.full(n, np.nan), np.full(n, np.nan)
    fail_K[at], fail_M[at] = fails.T
    fail_K[hits], fail_M[hits] = failure_kernel(
        found[hits],
        GroverAngles(theta_M=angles.theta_M[hits], theta_K=angles.theta_K[hits], gamma=None),
    )
    paired = np.flatnonzero(~np.isnan(fail_K))
    columns = [
        N, M, K, angles.theta_M, angles.theta_K, _cells(n, ruled, angles.gamma[ruled]),
        applicable, _cells(n, at, p), _cells(n, at, s), _cells(n, at, l),
        _cells(n, hits, found[hits]), l_bound,
        _cells(n, paired, fail_K[paired]), _cells(n, paired, fail_M[paired]),
    ]
    return list(zip(*[column.tolist() for column in columns]))


_COUNTS = attrgetter("N", "M", "K", "strict_regime")


def _cells(n: int, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """An object column of n cells: the values, as Python numbers, at the rows, else None."""
    column = np.full(n, None, dtype=object)
    column[rows] = values
    return column


def _grid_corners(ns: range, ms: range, ks: range) -> Iterator[tuple[int, int, int]]:
    """The valid triples of a grid product: its corners with 0 <= m < k <= n."""
    return ((n, m, k) for n in ns for m in ms for k in ks if 0 <= m < k <= n)


def _read_triples(path: str) -> Iterator[tuple[int, int, int]]:
    """The 'N M K' rows of a file, as written; a file with none is an input error."""
    empty = True
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                empty = False
                n, m, k = (int(tok) for tok in line.replace(",", " ").split())
                yield n, m, k
    if empty:
        raise ValueError("empty grid")


def _check_horizon(horizon: int | None) -> None:
    if horizon is not None and horizon < 1:
        raise ValueError(f"--horizon must be >= 1, got {horizon}")


def _table_triples(args: argparse.Namespace) -> Iterator[tuple[int, int, int]]:
    """Every --triples row, or the valid corners of the range product.

    Each row goes on to ``make_instance``, so a bad one is an input error,
    while a product's invalid corners are skipped.  With --reduced, only the
    first triple of each scaled family is kept.
    """
    if args.triples:
        triples = _read_triples(args.triples)
    elif args.N_range and args.M_range and args.K_range:
        ranges = [_parse_range(spec) for spec in (args.N_range, args.M_range, args.K_range)]
        if not all(ranges):
            raise ValueError("empty grid")
        triples = _grid_corners(*ranges)
    else:
        raise ValueError("provide --triples or all of --N-range/--M-range/--K-range")
    seen_scaled: set[tuple[int, int, int]] = set()
    for n, m, k in triples:
        if args.reduced:
            key = reduce_common_divisor(m, k, n)
            if key in seen_scaled:
                continue
            seen_scaled.add(key)
        yield n, m, k


def cmd_table(args: argparse.Namespace) -> tuple[int, str]:
    # Bad flags fail even when every triple of the grid is skipped.
    error_bound(args.epsilon)
    _check_horizon(args.horizon)
    rows = build_table_rows(_table_triples(args), args.epsilon, args.horizon)
    if args.format == "json":
        return EXIT_OK, _json_dump([dict(zip(TABLE_FIELDS, row)) for row in rows])
    return EXIT_OK, _csv_text(_TABLE_COLUMNS, rows)


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
    # The corners kept are valid triples, with the N checked above.
    corners = _grid_corners(
        range(args.N, args.N + 1), _parse_range(args.M_range), _parse_range(args.K_range)
    )
    N, M, K = np.fromiter(chain.from_iterable(corners), dtype=np.int64).reshape(-1, 3).T
    angles = rotation_angles(N, M, K)
    l_bounds = l_bound_of(N, M, K)
    if args.horizon is not None:
        horizons = [args.horizon] * M.size
    else:
        horizons = horizon_for_bound(l_bounds).astype(np.int64).tolist()
    found, _ = scan_rows(angles.theta_K, angles.theta_M, bound, horizons)
    entries = []
    for m, k, l, horizon, l_bound in zip(
        M.tolist(), K.tolist(), found.tolist(), horizons, l_bounds.tolist()
    ):
        # Exhausted scans get their lower-bound ratio from the horizon itself.
        ratio = (l or horizon) / l_bound
        if not l or ratio > args.threshold:
            entries.append(
                {
                    "N": args.N,
                    "M": m,
                    "K": k,
                    "l_minimal": l or None,
                    "l_bound": l_bound,
                    "ratio": ratio,
                    "exhausted": not l,
                    "horizon": horizon,
                }
            )
    entries.sort(key=lambda e: (-e["ratio"], e["M"], e["K"]))
    return EXIT_OK, _json_dump(entries)


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
