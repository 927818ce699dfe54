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
from dataclasses import dataclass, field
from typing import Callable, Literal, Sequence

import numpy as np

from .core_model import GroverAngles, ProblemInstance, failure_kernel, half_angle
from .transforms import iteration_bound

__all__ = [
    "TorusPoint",
    "KroneckerTarget",
    "KroneckerHit",
    "SearchReport",
    "DecisionNode",
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
    "kronecker_search",
    "multi_hypothesis_schedule",
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
class KroneckerTarget:
    """Simultaneous approximation target: |l*xi_j - eta_j - p_j| < epsilon for all j."""

    xis: tuple[float, ...]
    etas: tuple[float, ...]
    epsilon: float
    parity: Literal["odd", "any"] = "odd"

    def __post_init__(self) -> None:
        if len(self.xis) != len(self.etas) or not self.xis:
            raise ValueError("xis and etas must be equal-length, non-empty")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")


@dataclass(frozen=True)
class KroneckerHit:
    l: int
    p_list: tuple[int, ...]


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


def _first_hit(
    step: int,
    horizon: int,
    score: Callable[[np.ndarray], np.ndarray],
    accept: Callable[[np.ndarray], np.ndarray],
) -> tuple[int, float] | None:
    """First l in 1, 1+step, ... <= horizon whose score is accepted, with that score.

    Scores l in chunks: the first holds _FIRST_CHUNK values, and each next one
    twice as many, up to SCAN_CHUNK, so an early hit costs a small chunk and a
    long scan only a few extra ones.  ``score`` and ``accept`` are elementwise,
    so a decision does not depend on which chunk its l falls in.  None when
    the horizon is exhausted.
    """
    start, width = 1, _FIRST_CHUNK
    while start <= horizon:
        stop = min(start + step * width, horizon + 1)
        ls = np.arange(start, stop, step, dtype=np.float64)
        scores = score(ls)
        hits = np.nonzero(accept(scores))[0]
        if hits.size:
            return int(ls[hits[0]]), float(scores[hits[0]])
        start, width = stop, min(2 * width, SCAN_CHUNK)
    return None


def minimal_odd_l(
    angles: GroverAngles,
    threshold: float,
    horizon: int,
    mode: SearchMode = "relaxed",
) -> SearchReport:
    """Smallest odd l <= horizon whose score is within the threshold.

    Not finding one is a result, not an error: the report then records that
    every odd l up to the horizon was scanned.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    hit = _first_hit(
        2,
        horizon,
        lambda ls: _chunk_scores(ls, angles, mode),
        lambda scores: scores <= threshold,
    )
    l, score = hit if hit else (None, None)
    fail_K, fail_M = failure_kernel(l, angles) if hit else (None, None)
    return SearchReport(
        found=hit is not None,
        l=l,
        score=score,
        fail_K=fail_K,
        fail_M=fail_M,
        horizon=horizon,
        mode=mode,
        threshold=threshold,
    )


def kronecker_search(target: KroneckerTarget, horizon: int) -> KroneckerHit | None:
    """Smallest l of the required parity satisfying every target inequality.

    The p_j are the nearest integers to l*xi_j - eta_j; None when no l up to
    the horizon works.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    xis = np.asarray(target.xis, dtype=np.float64)
    etas = np.asarray(target.etas, dtype=np.float64)

    def worst_residual(ls: np.ndarray) -> np.ndarray:
        raw = ls[:, None] * xis[None, :] - etas[None, :]
        return np.abs(raw - np.round(raw)).max(axis=1)

    step = 2 if target.parity == "odd" else 1
    hit = _first_hit(
        step, horizon, worst_residual, lambda worst: worst < target.epsilon
    )
    if hit is None:
        return None
    l = hit[0]
    p_list = tuple(int(round(l * xi - eta)) for xi, eta in zip(target.xis, target.etas))
    return KroneckerHit(l=l, p_list=p_list)


@dataclass
class DecisionNode:
    """One level of the multi-hypothesis bisection over candidate sizes.

    Internal nodes hold a simultaneous-approximation search that steers the
    first half of the candidates toward the marked state (target 1/4) and the
    rest toward unmarked (target 0).  A node whose search exhausts the horizon
    is marked unresolved; the tree is still built below it.
    """

    sizes: tuple[int, ...]
    l: int | None = None
    p_list: tuple[int, ...] | None = None
    resolved: bool = True
    marked_branch: "DecisionNode | None" = field(default=None, repr=False)
    unmarked_branch: "DecisionNode | None" = field(default=None, repr=False)

    @property
    def is_leaf(self) -> bool:
        return len(self.sizes) == 1

    @property
    def depth(self) -> int:
        """Number of search levels below and including this node (0 for a leaf)."""
        if self.is_leaf:
            return 0
        assert self.marked_branch is not None and self.unmarked_branch is not None
        return 1 + max(self.marked_branch.depth, self.unmarked_branch.depth)


def _score_epsilon(threshold: float) -> float:
    # Neighborhood radius whose worst-case failure probability is the threshold.
    return math.asin(math.sqrt(threshold)) / (2.0 * math.pi)


def multi_hypothesis_schedule(
    sizes: Sequence[int],
    N: int,
    threshold: float,
    horizon: int,
) -> DecisionNode:
    """Binary decision tree separating r candidate sizes by repeated bisection.

    Each internal node splits its candidates at ceil(r/2) and searches for an
    odd l sending the first half near the marked state and the second half
    near unmarked; one measurement then halves the candidate set, so about
    log2(r) rounds decide the size.
    """
    sizes = tuple(sizes)
    if len(sizes) < 2:
        raise ValueError("need at least two candidate sizes")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"sizes must be strictly increasing, got {sizes}")
    if any(s < 0 or 2 * s > N for s in sizes):
        raise ValueError(f"sizes must lie in [0, N/2], got {sizes} with N={N}")
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    epsilon = _score_epsilon(threshold)

    def build(candidates: tuple[int, ...]) -> DecisionNode:
        if len(candidates) == 1:
            return DecisionNode(sizes=candidates)
        split = math.ceil(len(candidates) / 2)
        xis = tuple(2.0 * half_angle(s, N) / (4.0 * math.pi) for s in candidates)
        etas = (0.25,) * split + (0.0,) * (len(candidates) - split)
        hit = kronecker_search(
            KroneckerTarget(xis=xis, etas=etas, epsilon=epsilon), horizon
        )
        return DecisionNode(
            sizes=candidates,
            l=hit.l if hit else None,
            p_list=hit.p_list if hit else None,
            resolved=hit is not None,
            marked_branch=build(candidates[:split]),
            unmarked_branch=build(candidates[split:]),
        )

    return build(sizes)
