"""Command-line front end: rule | search | orbit | table | experiment | pad | diagnose.

Each command is a function from its parsed flags to its exit code and its
report, as pieces of text; `main` writes the pieces in order, to stdout or to
the file named by --out, which every command takes.  A command validates all
of its input before it returns, so bad input writes nothing.  The output is
a pure function of the flags (plus the seed where one applies); no
environment variables are consulted.  Exit codes are a stable contract: 0
success, 1 input error (a refused allocation too), 2 not applicable, 64
usage, 141 where stdout's reader left early (stderr then stays empty).

CSV output is UTF-8 with LF line endings; reals are written with 17
significant digits so parsing the file back reproduces the exact doubles.
Each cell is what Python's '%.17g' or '%d' writes, but the CSV is formatted
in blocks of rows, a column at a time, by array kernels, which leave only the
cells outside their range to Python.  Each block is written as it is made,
so memory stays bounded per block: `orbit` also computes its rows per block,
while `table` keeps its columns whole, as its scan runs all rows together.
JSON uses the same field names, with null where CSV leaves a cell empty;
both JSON row lists (`table --format json`, `diagnose`) come from one writer.
The flags several commands share (--out, --N/--M/--K, --epsilon, --horizon)
are each declared once, on a parent parser.
`table --triples` parses a plain file of integers with one np.loadtxt call,
and any other file row by row; a range grid is built as arrays.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
import warnings
from dataclasses import asdict
from itertools import repeat
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .core_model import (
    DEFAULT_EPSILON,
    N_ENVELOPE,
    angles_of,
    error_bound,
    failure_kernel,
    failure_probabilities,
    make_instance,
    rotation_angles,
    valid_counts,
)
from .diophantine import (
    _L_EXACT,
    default_horizon,
    horizon_for_bound,
    minimal_odd_l,
    orbit_coords,
    scan_rows,
    target_distance,
)
from .statevector import RNG_ALGORITHM, _mul_64x64, run_discrimination
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
EXIT_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer whose reader left


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


# Column kernels.  Each writes its column's cells as a NUL-padded uint8 block,
# one row per cell, which `_csv_block` packs into one matrix; the NULs are then
# dropped.  Cells outside a kernel's domain get Python's own %-format.

# Rows of CSV formatted at a time: one block's working set is no larger than
# that of one scan round, and each block's fixed cost stays small.
_BLOCK_ROWS = 2**11

# The four ASCII digits of each 0 <= i < 10**4, zero-padded, as one uint32 each.
_DIGITS4 = (
    (np.arange(10**4, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10)
    .astype(np.uint8)
    + ord("0")
).view(np.uint32)[:, 0]
_POW5 = np.array([5**s for s in range(28)], dtype=np.uint64)  # 5**27 < 2**63
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)  # 10 .. 10**18
_U64 = np.uint64
# The widest cell of each column type: '-9223372036854775808', a negative
# subnormal in '%.17g', 'false'.
_WIDEST = {int: 20, float: 24, bool: 5}


def _decimal_digits(values: np.ndarray, count: int) -> np.ndarray:
    """The last 4*count decimal digits of each non-negative integer, as rows of ASCII."""
    limbs = np.empty((values.size, count), dtype=np.int64)
    rest = values
    for i in reversed(range(count)):
        rest, limbs[:, i] = np.divmod(rest, 10**4)
    return np.take(_DIGITS4, limbs).view(np.uint8)


def _int_kernel(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """'%d' of the non-negative int64 values: (which values, their rows, right-aligned)."""
    done = values >= 0
    rest = values[done]
    digits = np.searchsorted(_POW10, rest, side="right") + 1
    width = int(digits.max(initial=1))
    count = -(-width // 4)
    block = _decimal_digits(rest, count)[:, 4 * count - width :]
    # Leading zeros become padding; a cell keeps at least one digit, so 0 is '0'.
    block *= np.arange(width) >= width - digits[:, None]
    return done, block


# A '%.17g' cell's characters are taken from a source row: its 17 digits, then these.
_FLOAT_TAIL = b".e-0123456789\0"


@functools.cache
def _float_layouts() -> tuple[np.ndarray, np.ndarray]:
    """Where each character of a '%.17g' cell comes from in its source row, and the cell's width.

    One row per decimal exponent -11 <= E <= 16 and count 1 <= kept <= 17 of
    significant digits, at (E + 11) * 17 + kept - 1.  As in %g, a cell is
    fixed point for E >= -4 and d.ddde-XX below, without trailing zeros or a
    bare point.  A digit past the kept ones is a '0' in the source row.
    Built on first use, so a command that writes no CSV does not build it.
    """
    point, e, minus, digit_0, nul = (17 + _FLOAT_TAIL.index(c) for c in b".e-0\0")
    layouts = np.full((28 * 17, 22), nul, dtype=np.uint8)
    widths = np.empty(28 * 17, dtype=np.intp)
    for E in range(-11, 17):
        for kept in range(1, 18):
            if E >= 0:
                codes = [*range(E + 1)] + ([point, *range(E + 1, kept)] if kept > E + 1 else [])
            elif E >= -4:
                codes = [digit_0, point] + [digit_0] * (-E - 1) + [*range(kept)]
            else:
                fraction = [point, *range(1, kept)] if kept > 1 else []
                codes = [0, *fraction, e, minus, digit_0 + -E // 10, digit_0 + -E % 10]
            row = (E + 11) * 17 + kept - 1
            layouts[row, : len(codes)], widths[row] = codes, len(codes)
    return layouts, widths


def _float_kernel(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """'%.17g' of the float64 x in about [1e-11, 2e15]: (which x, their rows, left-aligned).

    x = mant * 2**e with a 53-bit mant, so with E = floor(log10(x)) its 17
    significant digits are D = mant * 5**s >> shift, for s = 16 - E and
    shift = -(e + s), rounded half to even as Python rounds.  For
    0 <= s <= 27 and 1 <= shift <= 63 the product fits in 128 bits, which
    ``_mul_64x64`` (the PCG64 replay's) gives exactly.  A cell
    whose estimated E proves wrong (D outside [10**16, 10**17)) is left to
    Python, as are zero, negatives, non-finite values and the rest of the range.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        E = np.floor(np.log10(x))
    frac, exp2 = np.frexp(x)
    s = 16.0 - E
    shift = 53.0 - exp2 - s
    done = (0.0 <= s) & (s <= 27.0) & (1.0 <= shift) & (shift <= 63.0)
    rows = np.flatnonzero(done)
    sh = shift[rows].astype(np.uint64)
    mant = (frac[rows] * 2.0**53).astype(np.uint64)
    high, low = _mul_64x64(mant, _POW5[s[rows].astype(np.intp)])
    floor = (high << (_U64(64) - sh)) | (low >> sh)
    rest, half = low & ((_U64(1) << sh) - _U64(1)), _U64(1) << (sh - _U64(1))
    D = floor + ((rest > half) | ((rest == half) & (floor & _U64(1)).astype(bool)))
    exact = (floor >= _U64(10**16)) & (D < _U64(10**17))
    done[rows[~exact]] = False
    E, D = E[rows[exact]].astype(np.intp), D[exact].astype(np.int64)

    source = np.empty((D.size, 17 + len(_FLOAT_TAIL)), dtype=np.uint8)
    source[:, :17] = _decimal_digits(D, 5)[:, 3:]
    source[:, 17:] = np.frombuffer(_FLOAT_TAIL, dtype=np.uint8)
    kept = 17 - np.argmax(source[:, 16::-1] != ord("0"), axis=1)  # trailing zeros dropped
    layouts, widths = _float_layouts()
    layout = (E + 11) * 17 + kept - 1
    index = np.take(layouts[:, : widths[layout].max(initial=0)], layout, axis=0)
    starts = np.arange(0, source.size, source.shape[1], dtype=np.int32)  # of each source row
    return done, np.take(source, index + starts[:, None])


def _cell_block(kind: type, values: np.ndarray) -> np.ndarray:
    """The cells of a column of int, float or bool values, as NUL-padded ASCII rows."""
    if kind is bool:
        return np.where(values, b"true", b"false").view(np.uint8).reshape(values.size, 5)
    kernel, spec = (_int_kernel, b"%d") if kind is int else (_float_kernel, b"%.17g")
    done, rows = kernel(values)
    if done.all():
        return rows
    others = values[~done]
    texts = np.array([spec % value for value in others.tolist()])
    texts = texts.view(np.uint8).reshape(others.size, -1)
    block = np.zeros((values.size, max(rows.shape[1], texts.shape[1])), dtype=np.uint8)
    block[done, : rows.shape[1]] = rows
    block[~done, : texts.shape[1]] = texts
    return block


# One block of CSV rows: each column's cells, and each column's presence mask
# or None where every cell is present (None for the whole list: no masks).
_Block = tuple[Sequence[np.ndarray], Sequence[np.ndarray | None] | None]


def _csv_block(
    columns: Sequence[tuple[str, type]],
    cells: Sequence[np.ndarray],
    present: Sequence[np.ndarray | None] | None,
) -> str:
    """CSV rows of numeric columns of int, float or bool cells; a cell not present is left empty.

    Columns are formatted one at a time, by ``_cell_block``, into one uint8
    matrix of the rows, each column's block trimmed to its widest cell and
    followed by its separator; the padding is then dropped, so the text does
    not depend on which rows share a block.  No cell holds a comma, quote or
    newline, so none needs quoting.
    """
    n = len(cells[0])
    matrix = np.zeros((n, sum(_WIDEST[kind] + 1 for _, kind in columns)), dtype=np.uint8)
    at = 0
    for (_, kind), column, mask in zip(columns, cells, present or repeat(None)):
        block = _cell_block(kind, column if mask is None else column[mask])
        matrix[slice(None) if mask is None else mask, at : at + block.shape[1]] = block
        at += block.shape[1] + 1
        matrix[:, at - 1] = ord(",")
    matrix[:, at - 1] = ord("\n")
    return matrix[:, :at].tobytes().translate(None, b"\0").decode("ascii")


def _csv_text(columns: Sequence[tuple[str, type]], blocks: Iterable[_Block]) -> Iterator[str]:
    """The CSV's header, then the text of each block of rows, made as it is asked for."""
    yield ",".join(name for name, _ in columns) + "\n"
    for cells, present in blocks:
        yield _csv_block(columns, cells, present)


def _row_blocks(
    cells: Sequence[np.ndarray], present: Sequence[np.ndarray | None]
) -> Iterator[_Block]:
    """Whole columns, and their presence masks, cut into blocks of ``_BLOCK_ROWS`` rows."""
    for start in range(0, len(cells[0]), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        yield [column[rows] for column in cells], [m if m is None else m[rows] for m in present]


def _with_none(column: np.ndarray, present: np.ndarray | None) -> list:
    """The column's cells as Python values, None where not present."""
    return column.tolist() if present is None else np.where(present, column, None).tolist()


def _emit(pieces: Iterable[str], out: str | None) -> None:
    """Write the report's pieces in order, each as it is made."""
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()  # a reader that left is seen here, not at the interpreter's exit


def _json_dump(obj: Any) -> list[str]:
    """A JSON report, as its one piece of text."""
    return [json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"]


def _json_rows(fields: Sequence[str], columns: list[np.ndarray], present: list) -> list[str]:
    """A JSON list of one object per row, keyed by the fields; a cell not present is null."""
    return _json_dump([dict(zip(fields, row)) for row in zip(*map(_with_none, columns, present))])


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


def cmd_rule(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
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


def cmd_search(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    instance = make_instance(args.N, args.M, args.K)
    _check_l_flag("--horizon", args.horizon)
    if not 0.0 < args.tol < 1.0:  # also false for NaN
        raise ValueError(f"--tol must lie in (0, 1), got {args.tol}")
    horizon = args.horizon if args.horizon is not None else default_horizon(instance)
    report = minimal_odd_l(angles_of(instance), args.tol, horizon, args.mode)
    return EXIT_OK, _json_dump({"instance": asdict(instance), "search": asdict(report)})


def cmd_orbit(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    _check_l_flag("--l-max", args.l_max, odd=True)
    angles = angles_of(make_instance(args.N, args.M, args.K))
    blocks = _orbit_blocks(angles.theta_K, angles.theta_M, args.l_max)
    return EXIT_OK, _csv_text(_ORBIT_COLUMNS, blocks)


def _orbit_blocks(theta_K: float, theta_M: float, l_max: int) -> Iterator[_Block]:
    """The orbit's columns, computed per block of ``_BLOCK_ROWS`` odd l up to l_max."""
    for start in range(1, l_max + 1, 2 * _BLOCK_ROWS):
        ls = np.arange(start, min(start + 2 * _BLOCK_ROWS, l_max + 1), 2)
        x_K, x_M = orbit_coords(ls, theta_K, theta_M)
        scores = np.maximum(*failure_kernel(ls, theta_K, theta_M))
        yield [ls, x_K, x_M, target_distance(x_K, x_M), scores], None


def build_table_rows(
    counts: np.ndarray, epsilon: float, horizon: int | None = None
) -> tuple[list[np.ndarray], list[np.ndarray | None]]:
    """The table's numeric columns, in ``TABLE_FIELDS`` order, and their presence masks.

    ``counts`` holds the validated int64 columns N, M, K, as ``_triple_columns``
    returns them.  Each column is computed across all rows at once, by the
    elementwise formulas that the instance-level functions call, and the scans
    of all rows run together.  The transcendentals come from libm, one call
    per row: asin for the angles, and cos and sin for the rules that pass
    every other certificate flag.  The failure pair is the array
    ``failure_kernel``'s at l_minimal, else the certified rule's.  A column
    whose cells may be missing has a bool mask of the rows that hold one
    (its other cells are 0 or NaN); the mask of any other column is None.
    """
    N, M, K = counts
    n, bound = N.size, error_bound(epsilon)
    angles = rotation_angles(N, M, K)
    l_bound = l_bound_of(N, M, K)
    applicable = np.logical_and.reduce(list(applicability_flags(N, K, angles.gamma).values()))
    ruled = M > 0
    at, p, s, l, fails = certified_rules(np.flatnonzero(ruled), angles, l_bound, epsilon)
    horizons = horizon_for_bound(l_bound) if horizon is None else np.full(n, horizon)
    horizons[at] = np.maximum(horizons[at], l)
    found, _ = scan_rows(angles.theta_K, angles.theta_M, bound, horizons)
    hit = found > 0
    fail_K, fail_M = np.full(n, np.nan), np.full(n, np.nan)
    fail_K[at], fail_M[at] = fails.T
    fail_K[hit], fail_M[hit] = failure_kernel(
        found[hit], angles.theta_K[hit], angles.theta_M[hit]
    )
    certified = np.zeros(n, dtype=bool)
    certified[at] = True
    rule = np.zeros((3, n), dtype=np.int64)
    rule[:, at] = p, s, l
    paired = ~np.isnan(fail_K)
    columns = [
        N, M, K, angles.theta_M, angles.theta_K, angles.gamma, applicable, *rule, found,
        l_bound, fail_K, fail_M,
    ]
    present = [None] * 5 + [ruled, None, *[certified] * 3, hit, None, paired, paired]
    return columns, present


# (N, (M, K) pair) cells of a range grid built at a time, before the mask.
_GRID_CELLS = 2**20


def _within(values: range, low: int, high: int) -> range:
    """The values of an ascending range that lie in [low, high], by exact integer arithmetic."""
    first = max(values.start, low + (values.start - low) % values.step)
    return range(first, min(values.stop, high + 1), values.step)


def _grid_counts(ns: range, ms: range, ks: range) -> np.ndarray:
    """The int64 columns N, M, K of a grid product's corners with 0 <= M < K <= N, in product order.

    The ranges are first cut to the values that some corner holds, by exact
    integer arithmetic, so a range end of any size or sign is safe and each N
    left holds a corner.  The first N past the float64 envelope is the input
    error, worded by ``make_instance``.  Only values in [0, 2**48] reach
    numpy: ``np.meshgrid`` and one mask give the (M, K) pairs with M < K,
    and the N values are taken a batch at a time, each N keeping the pairs
    with K <= N, so no batch holds more than ``_GRID_CELLS`` (N, pair) cells
    or one N's pairs.
    """
    ms = _within(ms, 0, ms.stop)
    ks = _within(ks, ms[0] + 1, ks.stop) if ms else range(0)
    ns = _within(ns, ks[0], ns.stop) if ks else range(0)
    past = _within(ns, N_ENVELOPE + 1, ns.stop)
    if past:
        make_instance(past[0], ms[0], ks[0])  # raises
    m_range, k_range = (_within(r, 0, ns[-1] if ns else 0) for r in (ms, ks))
    M, K = np.meshgrid(
        np.fromiter(m_range, np.int64, count=len(m_range)),
        np.fromiter(k_range, np.int64, count=len(k_range)),
        indexing="ij",
    )
    lower = M < K
    pairs = np.stack([M[lower], K[lower]])
    n_values = np.fromiter(ns, np.int64, count=len(ns))
    batch = max(1, _GRID_CELLS // max(1, pairs.shape[1]))
    corners = [np.empty((3, 0), dtype=np.int64)]
    for start in range(0, n_values.size, batch):
        N = n_values[start : start + batch, None]
        keep = pairs[1] <= N
        corners.append(np.stack([np.broadcast_to(c, keep.shape)[keep] for c in (N, *pairs)]))
    return np.concatenate(corners, axis=1)


def _load_triples(path: str) -> np.ndarray:
    """The validated int64 columns N, M, K of a --triples file, in file order.

    The file is read whole, as UTF-8 with universal newlines and a leading
    byte-order mark dropped; commas count as spaces.  One ``np.loadtxt``
    call parses a file of ASCII integers, three to a line, and one
    ``valid_counts`` check judges it, ``make_instance`` wording the first
    invalid row.  Any other file (a comment line, a bad token, a spelling
    only ``int()`` takes, a value outside int64, no row at all, which
    loadtxt warns on) goes row by row through ``_read_triples`` and
    ``_triple_columns``, which word its error.
    """
    with open(path, encoding="utf-8-sig") as fh:
        text = fh.read()
    try:
        with warnings.catch_warnings():
            # loadtxt warns on a file without data, and numpy 1.x where it
            # parses a float as an int.
            warnings.simplefilter("error")
            rows = np.loadtxt(
                io.StringIO(text.replace(",", " ")), dtype=np.int64, comments=None, ndmin=2
            )
    except (ValueError, OverflowError, Warning):
        rows = None
    if rows is None or rows.shape[1] != 3:
        return _triple_columns(_read_triples(text))
    counts = np.ascontiguousarray(rows.T)
    valid = valid_counts(*counts)
    if not valid.all():
        make_instance(*counts[:, valid.argmin()].tolist())  # raises
    return counts


def _read_triples(text: str) -> list[list[str]]:
    """The tokens of each kept line of a text, in order; a text with none is an input error.

    Blank lines and lines that start with '#' are skipped, and commas count
    as spaces, so a line of commas alone is kept as a row without tokens.
    """
    rows = [
        line.replace(",", " ").split()
        for line in map(str.strip, text.split("\n"))
        if line and not line.startswith("#")
    ]
    if not rows:
        raise ValueError("empty grid")
    return rows


def _triple_columns(rows: Iterable[Iterable]) -> np.ndarray:
    """The validated int64 columns N, M, K of rows of three integers, in row order.

    Each row is parsed by ``int()`` and checked by ``valid_counts`` in turn,
    on Python ints, so the first bad row in order raises where it stands: a
    malformed row its parse error, an invalid one (a value outside int64
    included) ``make_instance``'s.
    """
    values: list[int] = []
    for row in rows:
        n, m, k = map(int, row)
        if not valid_counts(n, m, k):
            make_instance(n, m, k)  # raises
        values += n, m, k
    return np.array(values, dtype=np.int64).reshape(-1, 3).T


def _check_l_flag(flag: str, value: int | None, odd: bool = False) -> None:
    """A flag that bounds l (--horizon, --l-max) must lie in [1, 2**53], and be odd if asked.

    Past 2**53 (``_L_EXACT``, where ``scan_rows`` stops) odd l stop being
    exact doubles: a scan would claim a horizon it did not scan, and an orbit
    would print rows it did not compute.
    """
    if value is not None and not (1 <= value <= _L_EXACT and (value % 2 or not odd)):
        rule = "be odd and lie" if odd else "lie"
        raise ValueError(f"{flag} must {rule} in [1, 2**53], got {value}")


def _table_counts(args: argparse.Namespace) -> np.ndarray:
    """The columns N, M, K of every --triples row, or of the valid corners of the range product.

    A bad --triples row is an input error, while a product's invalid corners
    are skipped.  With --reduced, only the first triple of each scaled family
    is kept.
    """
    if args.triples:
        counts = _load_triples(args.triples)
    elif args.N_range and args.M_range and args.K_range:
        ranges = [_parse_range(spec) for spec in (args.N_range, args.M_range, args.K_range)]
        counts = _grid_counts(*ranges)
    else:
        raise ValueError("provide --triples or all of --N-range/--M-range/--K-range")
    if args.reduced:
        _, first = np.unique(counts // np.gcd.reduce(counts), axis=1, return_index=True)
        counts = counts[:, np.sort(first)]
    return counts


def cmd_table(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    # Bad flags fail even when every triple of the grid is skipped.
    error_bound(args.epsilon)
    _check_l_flag("--horizon", args.horizon)
    columns, present = build_table_rows(_table_counts(args), args.epsilon, args.horizon)
    if args.format == "json":
        return EXIT_OK, _json_rows(TABLE_FIELDS, columns, present)
    return EXIT_OK, _csv_text(_TABLE_COLUMNS, _row_blocks(columns, present))


def cmd_experiment(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    instance = make_instance(args.N, args.M, args.K)
    result = run_discrimination(instance, args.l, args.trials, args.seed, args.epsilon)
    outcomes = {"M": asdict(result.M), "K": asdict(result.K)}
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


def cmd_pad(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    padded = pad_for_ratio(args.M, args.N, args.a, args.epsilon)
    return EXIT_OK, _json_dump(asdict(padded))


def cmd_diagnose(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    make_instance(args.N, 0, 1)  # rejects a bad N even when no (M, K) pair fits under it
    bound = error_bound(args.epsilon)
    _check_l_flag("--horizon", args.horizon)
    if math.isnan(args.threshold):
        # NaN compares false with every ratio and would silently drop each found row.
        raise ValueError("--threshold must not be NaN")
    ranges = range(args.N, args.N + 1), _parse_range(args.M_range), _parse_range(args.K_range)
    N, M, K = _grid_counts(*ranges)
    n = N.size
    angles = rotation_angles(N, M, K)
    l_bound = l_bound_of(N, M, K)
    horizons = horizon_for_bound(l_bound) if args.horizon is None else np.full(n, args.horizon)
    found, _ = scan_rows(angles.theta_K, angles.theta_M, bound, horizons)
    exhausted = found == 0
    # Exhausted scans get their lower-bound ratio from the horizon itself.
    ratio = np.where(exhausted, horizons, found) / l_bound
    order = np.lexsort((K, M, -ratio))
    rows = order[(exhausted | (ratio > args.threshold))[order]]
    columns = [c[rows] for c in (N, M, K, found, l_bound, ratio, exhausted, horizons)]
    present = [None] * 3 + [~exhausted[rows]] + [None] * 4
    return EXIT_OK, _json_rows(_DIAGNOSE_FIELDS, columns, present)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="groverstop", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # The flags that several commands share, each declared once, on a parent parser.
    out, triple, eps, horizon = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    out.add_argument("--out", help="write the report to this file, not stdout")
    for count in ("--N", "--M", "--K"):
        triple.add_argument(count, type=int, required=True)
    eps.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    horizon.add_argument("--horizon", type=int)

    def command(name: str, func: Callable, summary: str, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[out, *parents], help=summary)
        p.set_defaults(func=func)
        return p

    p_rule = command("rule", cmd_rule, "constructive stopping rule with certificate", triple, eps)
    p_rule.add_argument("--best-effort", action="store_true")

    p_search = command("search", cmd_search, "exhaustive minimal odd-l search", triple, horizon)
    p_search.add_argument("--tol", type=float, default=0.25)
    p_search.add_argument("--mode", choices=["relaxed", "strict"], default="relaxed")

    p_orbit = command("orbit", cmd_orbit, "torus orbit trace as CSV", triple)
    p_orbit.add_argument("--l-max", type=int, required=True, dest="l_max")

    p_table = command("table", cmd_table, "stopping-rule table over a grid", eps, horizon)
    p_table.add_argument("--triples", help="file of 'N M K' lines")
    p_table.add_argument("--N-range", dest="N_range", help="START:STOP[:STEP], inclusive")
    p_table.add_argument("--M-range", dest="M_range")
    p_table.add_argument("--K-range", dest="K_range")
    p_table.add_argument("--reduced", action="store_true", help="skip proportional triples")
    p_table.add_argument("--format", choices=["csv", "json"], default="csv")

    p_exp = command(
        "experiment", cmd_experiment, "Monte Carlo discrimination experiment", triple, eps
    )
    p_exp.add_argument("--l", type=int, required=True)
    p_exp.add_argument("--trials", type=int, required=True)
    p_exp.add_argument("--seed", type=int, required=True)

    # pad and diagnose take their own --N and --M: pad's K is a*M, diagnose's M a range.
    p_pad = command("pad", cmd_pad, "pad the database to shrink the size ratio", eps)
    p_pad.add_argument("--M", type=int, required=True)
    p_pad.add_argument("--N", type=int, required=True)
    p_pad.add_argument("--a", type=float, default=2.0, help="ratio K = a*M")

    p_diag = command("diagnose", cmd_diagnose, "find slow (small-divisor) instances", eps, horizon)
    p_diag.add_argument("--N", type=int, required=True)
    p_diag.add_argument("--M-range", dest="M_range", required=True)
    p_diag.add_argument("--K-range", dest="K_range", required=True)
    p_diag.add_argument("--threshold", type=float, required=True,
                        help="report rows with l_minimal/l_bound above this")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Parsing does not change the parser, so one per process serves every call.
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code, pieces = args.func(args)
        _emit(pieces, args.out)
    except BrokenPipeError:
        # The reader left: what is left to write, the interpreter's last flush too, goes nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (ValueError, TypeError, OSError, MemoryError) as exc:
        print(f"groverstop: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
