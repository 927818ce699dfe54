"""Command-line front end: rule | search | orbit | table | experiment | pad | diagnose.

Every command's output is a pure function of its flags (plus the seed where
one applies); no environment variables are consulted.  Exit codes are a
stable contract: 0 success, 1 input error, 2 not applicable, 64 usage.

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
from typing import Any, Iterable, Sequence

import numpy as np

from .core_model import (
    angles_of,
    error_bound,
    failure_kernel,
    failure_probabilities,
    make_instance,
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
    applicability_of,
    certificate_of,
    certify,
    check_applicability,
    construct_rule,
    require_applicable,
    rule_of,
)
from .transforms import (
    PremiseViolated,
    iteration_bound,
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


class _Parser(argparse.ArgumentParser):
    """argparse with the BSD-style usage exit code."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt_real(x: float) -> str:
    return format(x, ".17g")


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt_real(value)
    return str(value)


def _csv_text(fieldnames: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    # Cells are None, bool, int, float or field names: none holds a comma,
    # quote or newline, so none needs quoting.
    lines = [",".join(fieldnames)]
    lines += [",".join([_csv_cell(value) for value in row]) for row in rows]
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


def cmd_rule(args: argparse.Namespace) -> int:
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
        _emit(_json_dump(report), args.out)
        return EXIT_OK
    report["path"] = "constructive"
    try:
        if not args.best_effort:
            require_applicable(app)
    except (NotApplicable, GammaTooLarge) as exc:
        report["reason"] = exc.reason
        report["error"] = str(exc)
        _emit(_json_dump(report), args.out)
        return EXIT_NOT_APPLICABLE
    rule = construct_rule(instance, best_effort=True)
    report["rule"] = asdict(rule)
    report["certificate"] = asdict(certify(rule, instance, args.epsilon))
    _emit(_json_dump(report), args.out)
    return EXIT_OK


def cmd_search(args: argparse.Namespace) -> int:
    instance = make_instance(args.N, args.M, args.K)
    horizon = args.horizon if args.horizon is not None else default_horizon(instance)
    report = minimal_odd_l(angles_of(instance), args.tol, horizon, args.mode)
    _emit(
        _json_dump({"instance": asdict(instance), "search": asdict(report)}),
        args.out,
    )
    return EXIT_OK


def cmd_orbit(args: argparse.Namespace) -> int:
    if args.l_max < 1 or args.l_max % 2 == 0:
        raise ValueError(f"--l-max must be odd and >= 1, got {args.l_max}")
    instance = make_instance(args.N, args.M, args.K)
    angles = angles_of(instance)
    ls = np.arange(1, args.l_max + 1, 2)
    x_K, x_M = orbit_coords(ls, angles)
    distance = target_distance(x_K, x_M)
    scores = np.maximum(*failure_kernel(ls, angles))
    rows = zip(ls.tolist(), x_K.tolist(), x_M.tolist(), distance.tolist(), scores.tolist())
    _emit(_csv_text(["l", "x_K", "x_M", "strict_distance", "relaxed_score"], rows), args.out)
    return EXIT_OK


def build_table_rows(
    triples: Iterable[tuple[int, int, int]], epsilon: float, horizon: int | None = None
) -> list[TableRow]:
    """Table rows: the failure pair the scan found at l_minimal, else the certified rule's.

    The scalar work runs once per row; the scans of all rows run together.
    """
    rows, theta_K, theta_M, horizons = [], [], [], []
    for N, M, K in triples:
        instance = make_instance(N, M, K)
        angles = angles_of(instance)
        bounds = iteration_bound(instance)
        row = TableRow(
            N, M, K, angles.theta_M, angles.theta_K, angles.gamma,
            applicability_of(instance, angles).all_ok,
            None, None, None, None, bounds.l_bound, None, None,
        )
        scan_horizon = horizon if horizon is not None else horizon_for_bound(bounds.l_bound)
        if M > 0:
            rule = rule_of(angles, bounds)
            certificate = certificate_of(rule, angles, epsilon)
            if certificate.certified:
                row.p, row.s, row.l_constructive = rule.p, rule.s, rule.l
                row.fail_K, row.fail_M = certificate.fail_K, certificate.fail_M
                scan_horizon = max(scan_horizon, rule.l)
        rows.append(row)
        theta_K.append(angles.theta_K)
        theta_M.append(angles.theta_M)
        horizons.append(scan_horizon)
    found, _, fail_K, fail_M = scan_rows(theta_K, theta_M, error_bound(epsilon), horizons)
    for row, l, f_K, f_M in zip(rows, found.tolist(), fail_K.tolist(), fail_M.tolist()):
        if l:
            row.l_minimal, row.fail_K, row.fail_M = l, f_K, f_M
    return rows


def _iter_grid(args: argparse.Namespace) -> Iterable[tuple[int, int, int]]:
    if args.triples:
        with open(args.triples, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                n, m, k = (int(tok) for tok in line.replace(",", " ").split())
                yield n, m, k
        return
    if not (args.N_range and args.M_range and args.K_range):
        raise ValueError("provide --triples or all of --N-range/--M-range/--K-range")
    for n in _parse_range(args.N_range):
        for m in _parse_range(args.M_range):
            for k in _parse_range(args.K_range):
                yield n, m, k


def _check_horizon(horizon: int | None) -> None:
    if horizon is not None and horizon < 1:
        raise ValueError(f"--horizon must be >= 1, got {horizon}")


def _table_triples(args: argparse.Namespace) -> Iterable[tuple[int, int, int]]:
    """The grid's valid triples, one per scaled family with --reduced."""
    seen_scaled: set[tuple[int, int, int]] = set()
    any_triple = False
    for n, m, k in _iter_grid(args):
        any_triple = True
        if not (0 <= m < k <= n):
            continue  # grid products include invalid corners; skip them
        if args.reduced:
            key = reduce_common_divisor(m, k, n)
            if key in seen_scaled:
                continue
            seen_scaled.add(key)
        yield n, m, k
    if not any_triple:
        raise ValueError("empty grid")


def cmd_table(args: argparse.Namespace) -> int:
    # Bad flags fail even when every triple of the grid is skipped.
    error_bound(args.epsilon)
    _check_horizon(args.horizon)
    rows = build_table_rows(_table_triples(args), args.epsilon, args.horizon)
    if args.format == "json":
        _emit(_json_dump([asdict(row) for row in rows]), args.out)
    else:
        _emit(_csv_text(TABLE_FIELDS, map(attrgetter(*TABLE_FIELDS), rows)), args.out)
    return EXIT_OK


def cmd_experiment(args: argparse.Namespace) -> int:
    instance = make_instance(args.N, args.M, args.K)
    outcomes = {}
    for truth in ("M", "K"):
        outcome = run_discrimination(
            instance, truth, args.l, args.trials, args.seed, args.epsilon
        )
        outcomes[truth] = asdict(outcome)
    expected = failure_probabilities(args.l, angles_of(instance))
    _emit(
        _json_dump(
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
        ),
        args.out,
    )
    return EXIT_OK


def cmd_pad(args: argparse.Namespace) -> int:
    padded = pad_for_ratio(args.M, args.N, args.a, args.epsilon)
    _emit(_json_dump(asdict(padded)), args.out)
    return EXIT_OK


def cmd_diagnose(args: argparse.Namespace) -> int:
    make_instance(args.N, 0, 1)  # rejects a bad N even when no (M, K) pair fits under it
    bound = error_bound(args.epsilon)
    _check_horizon(args.horizon)
    if math.isnan(args.threshold):
        # NaN compares false with every ratio and would silently drop each found row.
        raise ValueError("--threshold must not be NaN")
    pairs, theta_K, theta_M, horizons, l_bounds = [], [], [], [], []
    for m in _parse_range(args.M_range):
        for k in _parse_range(args.K_range):
            if not (0 <= m < k <= args.N):
                continue
            instance = make_instance(args.N, m, k)
            angles = angles_of(instance)
            l_bound = iteration_bound(instance).l_bound
            pairs.append((m, k))
            theta_K.append(angles.theta_K)
            theta_M.append(angles.theta_M)
            horizons.append(args.horizon if args.horizon is not None else horizon_for_bound(l_bound))
            l_bounds.append(l_bound)
    found, *_ = scan_rows(theta_K, theta_M, bound, horizons)
    entries = []
    for (m, k), l, horizon, l_bound in zip(pairs, found.tolist(), horizons, l_bounds):
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
    _emit(_json_dump(entries), args.out)
    return EXIT_OK


def _add_instance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--N", type=int, required=True)
    parser.add_argument("--M", type=int, required=True)
    parser.add_argument("--K", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="groverstop", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_rule = sub.add_parser("rule", help="constructive stopping rule with certificate")
    _add_instance_flags(p_rule)
    p_rule.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p_rule.add_argument("--best-effort", action="store_true")
    p_rule.add_argument("--out")
    p_rule.set_defaults(func=cmd_rule)

    p_search = sub.add_parser("search", help="exhaustive minimal odd-l search")
    _add_instance_flags(p_search)
    p_search.add_argument("--tol", type=float, default=0.25)
    p_search.add_argument("--horizon", type=int)
    p_search.add_argument("--mode", choices=["relaxed", "strict"], default="relaxed")
    p_search.add_argument("--out")
    p_search.set_defaults(func=cmd_search)

    p_orbit = sub.add_parser("orbit", help="torus orbit trace as CSV")
    _add_instance_flags(p_orbit)
    p_orbit.add_argument("--l-max", type=int, required=True, dest="l_max")
    p_orbit.add_argument("--out")
    p_orbit.set_defaults(func=cmd_orbit)

    p_table = sub.add_parser("table", help="stopping-rule table over a grid")
    p_table.add_argument("--triples", help="file of 'N M K' lines")
    p_table.add_argument("--N-range", dest="N_range", help="START:STOP[:STEP], inclusive")
    p_table.add_argument("--M-range", dest="M_range")
    p_table.add_argument("--K-range", dest="K_range")
    p_table.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p_table.add_argument("--horizon", type=int)
    p_table.add_argument("--reduced", action="store_true", help="skip proportional triples")
    p_table.add_argument("--format", choices=["csv", "json"], default="csv")
    p_table.add_argument("--out")
    p_table.set_defaults(func=cmd_table)

    p_exp = sub.add_parser("experiment", help="Monte Carlo discrimination experiment")
    _add_instance_flags(p_exp)
    p_exp.add_argument("--l", type=int, required=True)
    p_exp.add_argument("--trials", type=int, required=True)
    p_exp.add_argument("--seed", type=int, required=True)
    p_exp.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p_exp.add_argument("--out")
    p_exp.set_defaults(func=cmd_experiment)

    p_pad = sub.add_parser("pad", help="pad the database to shrink the size ratio")
    p_pad.add_argument("--M", type=int, required=True)
    p_pad.add_argument("--N", type=int, required=True)
    p_pad.add_argument("--a", type=float, default=2.0, help="ratio K = a*M")
    p_pad.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p_pad.add_argument("--out")
    p_pad.set_defaults(func=cmd_pad)

    p_diag = sub.add_parser("diagnose", help="find slow (small-divisor) instances")
    p_diag.add_argument("--N", type=int, required=True)
    p_diag.add_argument("--M-range", dest="M_range", required=True)
    p_diag.add_argument("--K-range", dest="K_range", required=True)
    p_diag.add_argument("--threshold", type=float, required=True,
                        help="report rows with l_minimal/l_bound above this")
    p_diag.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p_diag.add_argument("--horizon", type=int)
    p_diag.add_argument("--out")
    p_diag.set_defaults(func=cmd_diagnose)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Parsing does not change the parser, so one per process serves every call.
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, PremiseViolated, OSError) as exc:
        print(f"groverstop: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
