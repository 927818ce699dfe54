"""Exhaustive minimal-odd-l search and torus-orbit tooling.

The discrimination problem is equivalent to asking when the orbit
(l*theta_K/(4*pi) mod 1, l*theta_M/(4*pi) mod 1), over odd l, enters a
neighborhood of (1/4, 0).  This module scans that orbit directly:

* strict mode measures the L-infinity circle distance to (1/4, 0), mirroring
  the simultaneous-approximation inequalities literally;
* relaxed mode (the default) scores the worst-case failure probability
  max(cos^2(l*theta_K/2), sin^2(l*theta_M/2)), which also accepts hits at
  (1/4 mod 1/2, 0 mod 1/2) and therefore never finds a larger l than strict.

Scans are exhaustive, the ground-truth oracle for the constructive rule.
``scan_rows`` scans many rows (angle pairs, each with its own horizon)
together; ``minimal_odd_l`` is its one-row call.

Both scores are within a threshold only where each coordinate is near its
target (relaxed: l*theta_M/2pi within asin(sqrt(threshold))/pi of an integer,
and l*theta_K/2pi + 1/2 too; strict: l*theta_M/4pi and l*theta_K/4pi - 1/4
within the threshold of one).  That holds on runs of odd l, one per return to
the target (the returns the three-distance theorem counts; Sos 1958,
Swierczkowski 1959), so a scan scores only where runs of both coordinates
intersect, in order.  The runs are widened by a bound on the float error of
the turn counts (``_first_hits``, ``_relaxed_reach``), so they hold every l
the score accepts, which the same elementwise kernel scores as it would every l.

A scan starts each row at a certified lower bound on its first hit
(``_small_divisor_starts``).  Where gamma = theta_K/theta_M lies near a/b with
small odd b (the paper's "small divisors", where the search is slow), the
returns of l*theta_M to 0 stay far from those of l*theta_K to its target until
j*|gamma - a/b| makes up the distance of a*j/b from it, at least 1/(2b)
(relaxed) or 1/(4b) (strict); the scan skips the l before, and a row whose
bound passes its horizon is exhausted with no l scored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .core_model import GroverAngles, ProblemInstance, failure_kernel
from .transforms import l_bound_of

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

SCAN_CHUNK = 1 << 14  # most scores or runs one scan round holds; 1 << 16 raised peak RSS
_STRIDES = 8  # most residues a scan splits a row's odd l into
HORIZON_CAP = 10**8 - 1  # largest odd default horizon
_L_EXACT = 2.0**53  # odd l beyond this are not exact doubles: no scan gets there


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


def orbit_coords(l, theta_K, theta_M):
    """(l*theta_K/4pi mod 1, l*theta_M/4pi mod 1); elementwise when l is an array.

    The public coordinate function, for scalars and arrays: ``orbit`` prints
    these doubles and a strict scan scores them, with the thetas then arrays
    of the shape of l.  No parity check: callers validate l.  An integer array
    gives, element by element, the same doubles as a Python int.
    """
    four_pi = 4.0 * math.pi
    return (l * theta_K / four_pi) % 1.0, (l * theta_M / four_pi) % 1.0


def target_distance(x_K, x_M):
    """L-infinity circle distance of (x_K, x_M) to (1/4, 0), elementwise on arrays."""
    return np.maximum(circle_distance(x_K, 0.25), circle_distance(x_M, 0.0))


def default_horizon(instance: ProblemInstance) -> int:
    """10x the constructive bound 4*sqrt(N)/(sqrt(K)-sqrt(M)), odd, capped."""
    return horizon_for_bound(l_bound_of(instance.N, instance.M, instance.K))


def horizon_for_bound(l_bound):
    """``default_horizon`` from an instance's already computed ``l_bound``.

    Elementwise on arrays, giving int64; in the envelope 10*l_bound is below
    2**56, so the integral double converts exactly, and the result is capped.
    """
    array = isinstance(l_bound, np.ndarray)
    horizon = np.ceil(10.0 * l_bound).astype(np.int64) if array else math.ceil(10.0 * l_bound)
    horizon += 1 - horizon % 2
    return np.minimum(horizon, HORIZON_CAP) if array else min(horizon, HORIZON_CAP)


def _chunk_scores(ls: np.ndarray, theta_K, theta_M, mode: SearchMode) -> np.ndarray:
    """The mode's score of each l, elementwise.

    The thetas may be arrays of the shape of ``ls``, one theta per l: a scan
    scores the l of its runs, gathered from many rows.
    """
    if mode == "relaxed":
        return np.maximum(*failure_kernel(ls, theta_K, theta_M))
    return target_distance(*orbit_coords(ls, theta_K, theta_M))


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


def _radius(threshold: float, mode: SearchMode) -> float:
    """Distance in turns within which a hit's turn counts lie, before widening."""
    return _relaxed_reach(threshold) if mode == "relaxed" else threshold


def _widened(radius, w, horizons):
    """The radius plus (H*w + 8)*2^-49 turns: the reach B of ``_first_hits``."""
    return radius + (horizons * w + 8.0) * 2.0**-49


_UP, _DOWN = 1.0 + 2.0**-48, 1.0 - 2.0**-48  # outward rounding, far above float error


def _odd_denominators(gamma, b_max):
    """Odd denominators b <= b_max of gamma's convergents and semiconvergents.

    One column per candidate, 1 where a row has none.  Between convergents
    with denominators q_(k-1) and q_(k+1), the semiconvergents have
    denominators b = m*q_k + q_(k-1), m = 1..a_(k+1); over them |gamma*b - a|
    and s - C*b (``_small_divisor_starts``) are both linear in m, so the
    bound is monotone in m, and the first and last odd b up to b_max are the
    ones worth trying.  The partial quotients come from gamma's float
    expansion: any odd b gives a sound bound, so rounding only weakens one.
    """
    x = gamma - np.floor(gamma)
    q_prev, q = np.zeros_like(gamma), np.ones_like(gamma)
    columns, live = [], np.arange(gamma.size)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while live.size:
            inverse = 1.0 / x[live]
            a = np.floor(inverse)
            x[live] = inverse - a
            qp, qq = q_prev[live], q[live]
            top = np.minimum(a, np.floor((b_max[live] - qp) / qq))
            # b is odd for every m where q_k is even, else for m of q_(k-1)'s other parity.
            odd_q = qq % 2
            for m in (1.0 + odd_q * (qp % 2), top - odd_q * ((top + qp + 1.0) % 2)):
                column = np.ones_like(gamma)
                column[live] = np.where((m >= 1.0) & (m <= top), m * qq + qp, 1.0)
                columns.append(column)
            q_prev[live], q[live] = qq, a * qq + qp
            live = live[q[live] <= b_max[live]]
    return np.stack(columns, axis=1)


def _divisor_bound(gamma, b, C, s):
    """Least integer j >= 0 that odd b allows where gamma*j lies within C of the target.

    s/b - C over |gamma - a/b| (a = rint(gamma*b)), a lower bound on j: s/b
    rounded down, |gamma - a/b| up and kept above gamma*2^-48, the quotient
    down.  j is an integer, so the bound rounds up to one.
    """
    gap = np.abs(gamma * b - np.rint(gamma * b)) / b * _UP + gamma * 2.0**-48
    return np.maximum(np.ceil((s / b * _DOWN - C) / gap * _DOWN), 0.0)


def _small_divisor_starts(theta_K, theta_M, threshold, horizons, mode):
    """Each row's certified lower bound on its first hit: an odd l to start its scan at.

    A hit at odd l <= H needs x = l*w_M within B_M of an integer j >= 0 and
    gamma*x = l*w_K within B_K of the target (Z + 1/2 relaxed, Z + 1/4
    strict), where w = theta/turn, B is ``_first_hits``' reach and gamma =
    theta_K/theta_M; so gamma*j lies within C = B_K + gamma*B_M of it.  For
    odd b each a*j/b is at least s/b from the target (s = 1/2 relaxed, 1/4
    strict; |shift|), so j*|gamma - a/b| >= s/b - C, and l*w_M >= j - B_M.
    Every a/b with odd b gives a bound, positive only where b < s/C: b = 1
    for every row, and gamma's odd-denominator convergents and
    semiconvergents (``_odd_denominators``) where s/C >= 3, never at the
    default epsilon.  Rounded outward: C up, the bound on j as
    ``_divisor_bound`` says, B_M and w_M up and l down, to odd.
    A row with a zero theta starts at 1, and so does one whose bound is not
    a number (a subnormal theta_M).
    """
    turn, shift = _TURN_AND_SHIFT[mode]
    s, radius = abs(shift), _radius(threshold, mode)
    starts = np.ones_like(horizons)
    rows = np.flatnonzero((theta_K > 0.0) & (theta_M > 0.0))
    w_K, w_M, H = theta_K[rows] / turn, theta_M[rows] / turn, horizons[rows]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gamma = theta_K[rows] / theta_M[rows]
        B_M = _widened(radius, w_M, H)
        C = (_widened(radius, w_K, H) + gamma * B_M) * _UP
        j = _divisor_bound(gamma, 1.0, C, s)
        deep = np.flatnonzero(s / C >= 3.0)
        if deep.size:
            b = _odd_denominators(gamma[deep], s / C[deep])
            better = _divisor_bound(gamma[deep, None], b, C[deep, None], s).max(axis=1)
            j[deep] = np.maximum(j[deep], better)
        l = np.minimum(np.floor((j - B_M * _UP) / (w_M * _UP) * _DOWN), _L_EXACT)
    starts[rows] = np.where(l > 1.0, l - (1.0 - l % 2.0), 1.0)
    return starts


def _ranges(start, count):
    """(index of its range, value) of each element of the ranges [start, start + count)."""
    owner = np.repeat(np.arange(count.size), count)
    return owner, start[owner] + (np.arange(owner.size) - (np.cumsum(count) - count)[owner])


def _first_hits(theta_K, theta_M, threshold, starts, horizons, mode):
    """``scan_rows`` over the odd l in [start, horizon], for rows of float arrays.

    A row is split into q <= _STRIDES residues, odd l = s*i + o with s = 2q,
    q > 1 only where both coordinates return often.  Over i, a coordinate's
    turn count y = l*w + shift (w = theta/turn) is i*v + u mod 1, with
    v = s*w - round(s*w) and u = o*w + shift (both negated where v < 0), so it
    accepts the i of the runs [(j - u - B)/v, (j - u + B)/v].  B adds
    (H*w + 8)*2^-49 turns to the radius, H the horizon: more than the kernel's
    error in y, (5*|y| + 1)*2^-53 with |y| <= H*w (the turn angle, theta/turn,
    and the kernel's product, or ``orbit_coords`` and a distance to 1/4), v's
    |y|*2^-53, u's 17*2^-53, and the (3*H*w + 73)*2^-53 of a turn count or run
    end computed below (j, u and B stay below H*w + 18).

    A round takes, for each residue of a block, the next ``reps`` runs of its
    slower coordinate, up to ``per`` runs of the other in them, and the first
    ``n`` i of each intersection (n*reps of its first, so a resumed one grows);
    the next round resumes at the first i left out.  Hits start within the
    runs' widening, H*2^-50 + 2^-47/v i for small theta, of an intersection's
    start, hence n.  No round holds more than SCAN_CHUNK scores or runs, and a
    residue stops at its row's first hit; one that starts past its horizon
    enters no round.
    """
    turn, shift = _TURN_AND_SHIFT[mode]
    radius = _radius(threshold, mode)
    w = np.stack([theta_K, theta_M]) / turn
    # Runs per i of each stride, and about 64 per residue: q takes the fewest.
    q = np.ones(horizons.size, np.int64)
    fast = np.flatnonzero(np.abs(2.0 * w - np.rint(2.0 * w)).min(axis=0) > 0.125)
    strides = 2.0 * np.arange(1, _STRIDES + 1)[:, None]
    a, b = (np.abs(strides * c[fast] - np.rint(strides * c[fast])) for c in w)
    runs = np.minimum(a, b) + 2.0 * radius * np.maximum(a, b) + 64.0 * strides / horizons[fast]
    q[fast] += runs.argmin(axis=0)
    first = np.full(q.size, np.inf)  # each row's first hit found so far
    parent = np.repeat(np.arange(q.size), q)  # the row of each residue
    offset = 2.0 * (np.arange(parent.size) - (np.cumsum(q) - q)[parent]) + 1.0
    stride, w, horizons = 2.0 * q[parent], w[:, parent], horizons[parent]
    theta_K, theta_M, starts = theta_K[parent], theta_M[parent], starts[parent]
    reach = _widened(radius, w, horizons)
    v = stride * w - np.rint(stride * w)
    u = np.copysign(1.0, v) * (offset * w + np.array([[shift], [0.0]]))
    v = np.maximum(np.abs(v), 2.0**-200)  # theta = 0: one run, of every i or of none
    faster_K = v[0] > v[1]  # the slower coordinate goes first
    v, u, reach = (np.where(faster_K, a[::-1], a) for a in (v, u, reach))
    last = np.floor((horizons - offset) / stride)
    frontier = (starts - offset) / stride  # every i below it is scanned
    found_l, found_score = np.zeros(parent.size, np.int64), np.full(parent.size, np.nan)
    n = 2 + int(horizons.max(initial=1.0) * 2.0**-48)
    active = np.flatnonzero(frontier <= last)  # residues still scanning
    reps, done = 1, 0
    while active.size:
        block = active[done : done + max(1, SCAN_CHUNK // (2 * reps * n))]
        per = SCAN_CHUNK // (block.size * n) - reps
        (v0, v1), (u0, u1), (b0, b1) = (a[:, block, None] for a in (v, u, reach))
        at = frontier[block, None]
        # The slower coordinate's runs, from the first that may reach the frontier.
        j = np.ceil(at * v0 + (u0 - b0)) + np.arange(reps)
        lo = np.maximum((j - u0 - b0) / v0, at)
        hi = np.minimum((j - u0 + b0) / v0, last[block, None])
        k = np.ceil(lo * v1 + (u1 - b1))
        count = np.maximum(np.floor(hi * v1 + (u1 + b1)) - k + 1.0, 0.0)
        take = np.clip(per - (np.cumsum(count, axis=1) - count), 0.0, count)
        skipped = np.where(take < count, np.maximum(lo, (k + take - u1 - b1) / v1), np.inf)
        reached = np.minimum(np.maximum(np.floor(hi[:, -1]) + 1.0, at[:, 0]), skipped.min(axis=1))
        entry, k = _ranges(k.ravel(), take.ravel().astype(np.int64))
        row = entry // reps
        v1, u1, b1 = v1[row, 0], u1[row, 0], b1[row, 0]
        lo = np.ceil(np.maximum(lo.ravel()[entry], (k - u1 - b1) / v1))
        size = np.floor(np.minimum(hi.ravel()[entry], (k - u1 + b1) / v1)) - lo + 1.0
        scored = np.clip(size, 0.0, np.where(np.diff(row, prepend=-1), n * reps, n))
        cut = scored < size
        np.minimum.at(reached, row[cut], lo[cut] + scored[cut])
        pair, i = _ranges(lo, scored.astype(np.int64))
        row = row[pair]
        rows = block[row]
        ls = stride[rows] * i + offset[rows]
        scores = _chunk_scores(ls, theta_K[rows], theta_M[rows], mode)
        # A residue's first hit is its smallest below its frontier, and its new frontier.
        hits = scores <= threshold
        np.minimum.at(reached, row[hits], i[hits])
        hits &= i == reached[row]  # an i in two overlapping intersections scores twice
        found_l[rows[hits]] = ls[hits]
        found_score[rows[hits]] = scores[hits]
        np.minimum.at(first, parent[rows[hits]], ls[hits])
        frontier[block] = reached
        done += block.size
        if done == active.size:
            last = np.minimum(last, np.ceil((first[parent] - offset) / stride) - 1.0)
            active = active[(found_l[active] == 0) & (frontier[active] <= last[active])]
            reps, done = min(2 * reps, SCAN_CHUNK // (2 * n)), 0
    win = (found_l > 0) & (found_l == first[parent])  # the residue holding the row's first hit
    l_first, score_first = np.zeros(first.size, np.int64), np.full(first.size, np.nan)
    l_first[parent[win]], score_first[parent[win]] = found_l[win], found_score[win]
    return l_first, score_first


def scan_rows(theta_K, theta_M, threshold: float, horizons, mode: SearchMode = "relaxed"):
    """Smallest odd l <= horizon within the threshold, for each row.

    Row i has angles (theta_K[i], theta_M[i]) and horizon horizons[i], from a
    list of ints or an array; a horizon past 2**53 scans to 2**53.  Returns
    two arrays: each row's l, 0 where none was found, and its score at that
    l, NaN where none was found.  Callers that print a hit's failure pair
    take it from the array ``failure_kernel``, which a relaxed scan decides
    with, so a relaxed score is the pair's maximum.

    Rows are scanned together, in rounds over blocks of rows, through the runs
    of odd l where both coordinates are near their targets (``_first_hits``),
    each from its small-divisor bound (``_small_divisor_starts``): no l below
    it is within the threshold, so a row whose bound passes its horizon is
    reported not found with no l scored.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    theta_K = np.asarray(theta_K, dtype=np.float64)
    theta_M = np.asarray(theta_M, dtype=np.float64)
    # Capped before the conversion, so an int horizon past the double range is too.
    horizons = np.minimum(np.asarray(horizons), _L_EXACT).astype(np.float64)
    if horizons.size and horizons.min() < 1:
        raise ValueError(f"horizon must be >= 1, got {horizons.min():.0f}")
    starts = _small_divisor_starts(theta_K, theta_M, threshold, horizons, mode)
    return _first_hits(theta_K, theta_M, threshold, starts, horizons, mode)


def minimal_odd_l(
    angles: GroverAngles,
    threshold: float,
    horizon: int,
    mode: SearchMode = "relaxed",
) -> SearchReport:
    """Smallest odd l <= horizon whose score is within the threshold.

    Not finding one is a result, not an error: the report then records that
    every odd l up to the horizon was scanned.  The one-row ``scan_rows``,
    with a hit's failure pair from the array ``failure_kernel``.
    """
    (l,), scores = scan_rows([angles.theta_K], [angles.theta_M], threshold, [horizon], mode)
    l = int(l) or None
    score = fail_K = fail_M = None
    if l:
        pair = failure_kernel(np.array([l]), angles.theta_K, angles.theta_M)
        score, fail_K, fail_M = (float(v) for (v,) in (scores, *pair))
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
