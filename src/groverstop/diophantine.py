"""Exhaustive minimal-odd-l search and torus-orbit tooling.

The discrimination problem is equivalent to asking when the orbit
(l*theta_K/(4*pi) mod 1, l*theta_M/(4*pi) mod 1), over odd l, enters a
neighborhood of (1/4, 0).  This module scans that orbit directly:

* strict mode measures the L-infinity circle distance to (1/4, 0), mirroring
  the simultaneous-approximation inequalities literally;
* relaxed mode (the default) scores the worst-case failure probability
  max(cos^2(l*theta_K/2), sin^2(l*theta_M/2)), which also accepts hits at
  (1/4 mod 1/2, 0 mod 1/2) and therefore never finds a larger l than strict.

Scans are linear over odd l.  At desk-scale horizons this is exact and doubles
as the ground-truth oracle for the constructive rule.  ``scan_rows`` scans
many rows (angle pairs, each with its own horizon) together, one chunk of l
for every row still scanning; ``minimal_odd_l`` is its one-row call.

Both scores are within a threshold only where the orbit point is near the
target, so a chunk is first filtered without trig or fmod.  Relaxed mode
keeps l only where l*theta_M/2pi lies within asin(sqrt(threshold))/pi of an
integer and l*theta_K/2pi + 1/2 does too (sin^2 and cos^2 of half the angle
are then both within the threshold); strict mode keeps l only where
l*theta_M/4pi lies within the threshold of an integer and l*theta_K/4pi - 1/4
does too.  The radius is widened by a bound on the float error of these turn
counts (see ``_block_hits`` and ``_relaxed_reach``), so the filter keeps
every l the score accepts.  Only the l it keeps are scored, by the same
elementwise kernel that would score every l, so every decision and every
score equals that of scoring each l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .core_model import GroverAngles, ProblemInstance, failure_kernel
from .transforms import iteration_bound

__all__ = [
    "SearchReport",
    "SCAN_CHUNK",
    "HORIZON_CAP",
    "circle_distance",
    "orbit_coords",
    "target_distance",
    "default_horizon",
    "minimal_odd_l",
    "scan_rows",
]

SearchMode = Literal["relaxed", "strict"]

SCAN_CHUNK = 1 << 16  # widest chunk of l, and most scores a scan holds at once
_FIRST_CHUNK = 1 << 8
HORIZON_CAP = 10**8 - 1  # largest odd default horizon
_L_EXACT = 1 << 53  # odd l beyond this are not exact doubles: no scan gets there


@dataclass(frozen=True)
class SearchReport:
    found: bool
    l: int | None
    score: float | None  # the mode's score at l
    fail_K: float | None
    fail_M: float | None
    horizon: int
    mode: SearchMode
    threshold: float


def circle_distance(a, b):
    """Wrap-around distance on the unit circle, elementwise on arrays."""
    d = np.abs(a - b) % 1.0
    return np.minimum(d, 1.0 - d)


def orbit_coords(l, angles: GroverAngles):
    """(l*theta_K/4pi mod 1, l*theta_M/4pi mod 1); elementwise when l is an array.

    The public coordinate function, for scalars and arrays: ``orbit`` prints
    these doubles and a strict scan scores them.  No parity check: callers
    validate l.  An integer array gives, element by element, the same doubles
    as a Python int.
    """
    four_pi = 4.0 * math.pi
    return (l * angles.theta_K / four_pi) % 1.0, (l * angles.theta_M / four_pi) % 1.0


def target_distance(x_K, x_M):
    """L-infinity circle distance of (x_K, x_M) to (1/4, 0), elementwise on arrays."""
    return np.maximum(circle_distance(x_K, 0.25), circle_distance(x_M, 0.0))


def default_horizon(instance: ProblemInstance) -> int:
    """10x the constructive bound 4*sqrt(N)/(sqrt(K)-sqrt(M)), odd, capped."""
    return horizon_for_bound(iteration_bound(instance).l_bound)


def horizon_for_bound(l_bound: float) -> int:
    """``default_horizon`` from an instance's already computed ``l_bound``."""
    horizon = math.ceil(10.0 * l_bound)
    horizon += 1 - horizon % 2
    return min(horizon, HORIZON_CAP)


def _chunk_scores(ls: np.ndarray, angles: GroverAngles, mode: SearchMode) -> np.ndarray:
    """The mode's score of each l, elementwise.

    The thetas of ``angles`` may be arrays of the shape of ``ls``, one theta
    per l: the scan scores the l its filter kept, gathered from many rows.
    """
    if mode == "relaxed":
        return np.maximum(*failure_kernel(ls, angles))
    return target_distance(*orbit_coords(ls, angles))


def _relaxed_reach(threshold: float) -> float:
    """Distance in turns within which a relaxed hit's l*theta/2pi must lie.

    sin^2(x) <= t exactly when x lies within asin(sqrt(t)) of a multiple of
    pi, and cos^2(x) <= t when x + pi/2 does.  The kernel squares a cosine
    that is off by a few ulp of 1, so sqrt(threshold) is widened by 2^-40 of
    itself plus 2^-48 before asin, and the result by 2^-40 of itself; both
    widenings dwarf the rounding of sqrt, asin and the division by pi.
    """
    widened = min(1.0, math.sqrt(threshold) * (1.0 + 2.0**-40) + 2.0**-48)
    return math.asin(widened) / math.pi * (1.0 + 2.0**-40)


# Per mode: the angle that makes one turn, and the shift of l*theta_K in turns.
_TURN_AND_SHIFT = {"relaxed": (2.0 * math.pi, 0.5), "strict": (4.0 * math.pi, -0.25)}


def _near_integer(ls, w, shift, bound, y, t, out):
    """out = dist(l*w + shift, Z) <= bound, for a column w of turns per l.

    y and t are work arrays of out's shape; nothing is allocated.
    """
    np.multiply(ls, w[:, None], out=y)
    if shift:
        y += shift
    np.rint(y, out=t)
    y -= t
    np.abs(y, out=y)
    np.less_equal(y, bound, out=out)


def _work_arrays() -> list[np.ndarray]:
    """The scratch arrays of ``_block_hits``: two float and two bool, SCAN_CHUNK each.

    They are allocated once per ``scan_rows`` call and reused by every block
    through ``out=``.  Keep it so: a variant that allocated its temporaries per
    block slowed an in-process 4000-row ``table`` pass from 225-267 ms to
    314-332 ms (four alternating runs on 2 vCPUs).
    """
    return [np.empty(SCAN_CHUNK, dtype) for dtype in (np.float64, np.float64, bool, bool)]


def _block_hits(ls, theta_K, theta_M, horizons, threshold, mode, work):
    """(row, l, score) of every hit in a rows x width block, row-major.

    So each row's first hit comes before its others.  ``work`` comes from
    ``_work_arrays``.

    A turn count y of the filter is off from the kernel's by at most
    (5*|y| + 1) * 2^-53.  Relaxed: the roundings of the turn angle, theta/turn,
    the product and the shift, and the kernel's product.  Strict, in 2^-53
    (one 4.0 * math.pi for both): the filter's theta/turn, product and shift,
    3*|y| + 1/4; ``orbit_coords``'s l*theta and division, 2*|y|, then an exact
    mod 1 and a distance to 1/4 that rounds once, 1/2.  The filter allows
    8 * (|y| + 1) * 2^-53, |y| taken at the block's largest l and theta.
    """
    shape = (theta_K.size, ls.size)
    y, t, keep, near = (a[: shape[0] * shape[1]].reshape(shape) for a in work)
    turn, shift = _TURN_AND_SHIFT[mode]
    radius = _relaxed_reach(threshold) if mode == "relaxed" else threshold
    w_K, w_M = theta_K / turn, theta_M / turn
    bound = radius + (ls[-1] * max(w_K.max(), w_M.max()) + 1.0) * 2.0**-50
    _near_integer(ls, w_M, 0.0, bound, y, t, keep)
    _near_integer(ls, w_K, shift, bound, y, t, near)
    keep &= near
    rows, cols = np.divmod(np.flatnonzero(keep), ls.size)
    ls = ls[cols]
    angles = GroverAngles(theta_M=theta_M[rows], theta_K=theta_K[rows], gamma=None)
    scores = _chunk_scores(ls, angles, mode)
    hit = (scores <= threshold) & (ls <= horizons[rows])
    return rows[hit], ls[hit], scores[hit]


def scan_rows(theta_K, theta_M, threshold: float, horizons, mode: SearchMode = "relaxed"):
    """Smallest odd l <= horizon within the threshold, for each row.

    Row i has angles (theta_K[i], theta_M[i]) and horizon horizons[i] (an
    int).  Returns four arrays: each row's l, 0 where none was found, and its
    score, fail_K and fail_M at that l, NaN where none was found.  The pair
    comes from one array ``failure_kernel`` call after the scan, the kernel
    a relaxed scan decides with, so a relaxed score is the pair's maximum.

    Every round scores one chunk of odd l for each row still scanning: the
    first chunk holds _FIRST_CHUNK values, and each next one twice as many,
    up to SCAN_CHUNK, so an early hit costs a small chunk and a long scan
    only a few extra ones.  Rows are taken in blocks of at most SCAN_CHUNK
    l.  A row stops at its first hit or once the chunks pass its horizon.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    theta_K = np.asarray(theta_K, dtype=np.float64)
    theta_M = np.asarray(theta_M, dtype=np.float64)
    horizons = np.array([min(h, _L_EXACT) for h in horizons], dtype=np.float64)
    if horizons.size and horizons.min() < 1:
        raise ValueError(f"horizon must be >= 1, got {horizons.min():.0f}")
    found_l = np.zeros(horizons.size, dtype=np.int64)
    found_score = np.full(horizons.size, np.nan)
    work = _work_arrays()
    active = np.arange(horizons.size)  # rows that score the current chunk
    start, width, done = 1, _FIRST_CHUNK, 0
    while active.size:
        block = active[done : done + max(1, SCAN_CHUNK // width)]
        stop = min(start + 2 * width, int(horizons[block].max()) + 1)
        ls = np.arange(start, stop, 2, dtype=np.float64)
        rows, hit_l, scores = _block_hits(
            ls, theta_K[block], theta_M[block], horizons[block], threshold, mode, work
        )
        first = np.flatnonzero(np.diff(rows, prepend=-1))
        found_l[block[rows[first]]] = hit_l[first]
        found_score[block[rows[first]]] = scores[first]
        done += block.size
        if done == active.size:
            start += 2 * width
            active = active[(found_l[active] == 0) & (horizons[active] >= start)]
            width, done = min(2 * width, SCAN_CHUNK), 0
    fail_K, fail_M = np.full(horizons.size, np.nan), np.full(horizons.size, np.nan)
    hit = found_l > 0
    angles = GroverAngles(theta_M=theta_M[hit], theta_K=theta_K[hit], gamma=None)
    fail_K[hit], fail_M[hit] = failure_kernel(found_l[hit].astype(np.float64), angles)
    return found_l, found_score, fail_K, fail_M


def minimal_odd_l(
    angles: GroverAngles,
    threshold: float,
    horizon: int,
    mode: SearchMode = "relaxed",
) -> SearchReport:
    """Smallest odd l <= horizon whose score is within the threshold.

    Not finding one is a result, not an error: the report then records that
    every odd l up to the horizon was scanned.  The one-row ``scan_rows``.
    """
    (l,), *values = scan_rows([angles.theta_K], [angles.theta_M], threshold, [horizon], mode)
    l = int(l) or None
    score, fail_K, fail_M = (float(v) if l else None for (v,) in values)
    return SearchReport(
        found=l is not None,
        l=l,
        score=score,
        fail_K=fail_K,
        fail_M=fail_M,
        horizon=horizon,
        mode=mode,
        threshold=threshold,
    )
