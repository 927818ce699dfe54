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
as the ground-truth oracle for the constructive rule.  Disjoint l-ranges can
be scanned independently and merged by taking the minimum found l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .core_model import GroverAngles, ProblemInstance, failure_kernel
from .transforms import iteration_bound

__all__ = [
    "TorusPoint",
    "SearchReport",
    "SCAN_CHUNK",
    "HORIZON_CAP",
    "circle_distance",
    "orbit_coords",
    "torus_point",
    "target_distance",
    "strict_distance",
    "relaxed_score",
    "default_horizon",
    "minimal_odd_l",
]

SearchMode = Literal["relaxed", "strict"]

SCAN_CHUNK = 1 << 16  # widest chunk of l a scan scores at once
_FIRST_CHUNK = 1 << 8
HORIZON_CAP = 10**8 - 1  # largest odd default horizon


@dataclass(frozen=True)
class TorusPoint:
    """Orbit point at discrete (odd) time l."""

    l: int
    x_K: float  # frac(l * theta_K / (4*pi))
    x_M: float  # frac(l * theta_M / (4*pi))


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

    No parity check: callers validate l.  An integer array gives, element by
    element, the same doubles as a Python int.
    """
    four_pi = 4.0 * math.pi
    return (l * angles.theta_K / four_pi) % 1.0, (l * angles.theta_M / four_pi) % 1.0


def torus_point(l: int, angles: GroverAngles) -> TorusPoint:
    """Orbit coordinates at odd time l, reduced mod 1 into [0, 1)."""
    if l < 1 or l % 2 == 0:
        raise ValueError(f"l must be odd and >= 1, got {l}")
    x_K, x_M = orbit_coords(l, angles)
    return TorusPoint(l=l, x_K=x_K, x_M=x_M)


def target_distance(x_K, x_M):
    """L-infinity circle distance of (x_K, x_M) to (1/4, 0), elementwise on arrays."""
    return np.maximum(circle_distance(x_K, 0.25), circle_distance(x_M, 0.0))


def strict_distance(pt: TorusPoint) -> float:
    """L-infinity circle distance of the orbit point to the target (1/4, 0)."""
    return float(target_distance(pt.x_K, pt.x_M))


def relaxed_score(l: int, angles: GroverAngles) -> float:
    """Worst-case failure probability at stopping time l over both hypotheses."""
    if l % 2 == 0:
        raise ValueError(f"l must be odd, got {l}")
    return max(failure_kernel(l, angles))


def default_horizon(instance: ProblemInstance) -> int:
    """10x the constructive bound 4*sqrt(N)/(sqrt(K)-sqrt(M)), odd, capped."""
    horizon = math.ceil(10.0 * iteration_bound(instance).l_bound)
    horizon += 1 - horizon % 2
    return min(horizon, HORIZON_CAP)


def _chunk_scores(ls: np.ndarray, angles: GroverAngles, mode: SearchMode) -> np.ndarray:
    if mode == "relaxed":
        return np.maximum(*failure_kernel(ls, angles))
    four_pi = 4.0 * math.pi
    return target_distance(ls * (angles.theta_K / four_pi), ls * (angles.theta_M / four_pi))


def minimal_odd_l(
    angles: GroverAngles,
    threshold: float,
    horizon: int,
    mode: SearchMode = "relaxed",
) -> SearchReport:
    """Smallest odd l <= horizon whose score is within the threshold.

    Not finding one is a result, not an error: the report then records that
    every odd l up to the horizon was scanned.

    Scores odd l in chunks: the first holds _FIRST_CHUNK values, and each next
    one twice as many, up to SCAN_CHUNK, so an early hit costs a small chunk
    and a long scan only a few extra ones.  Scores and the comparison are
    elementwise, so a decision does not depend on which chunk its l falls in.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    l = score = fail_K = fail_M = None
    start, width = 1, _FIRST_CHUNK
    while start <= horizon:
        stop = min(start + 2 * width, horizon + 1)
        ls = np.arange(start, stop, 2, dtype=np.float64)
        scores = _chunk_scores(ls, angles, mode)
        hits = np.nonzero(scores <= threshold)[0]
        if hits.size:
            l, score = int(ls[hits[0]]), float(scores[hits[0]])
            fail_K, fail_M = failure_kernel(l, angles)
            break
        start, width = stop, min(2 * width, SCAN_CHUNK)
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
