"""Exact scalar model of the Grover rotation in its 2D invariant subspace.

Everything here is a pure function of (N, M, K) or of a rotation angle:
validation, half-angles, the rotation angles and their ratio, the two failure
probabilities of the size-discrimination experiment and the error bound an
epsilon allows.  The analytic routes the tests check these against (the state
after m iterations, the Chebyshev-polynomial form) live in ``tests/oracles.py``.

All angle arithmetic is 64-bit floating point.  The envelope N <= 2**48 is
enforced by ``make_instance``; it keeps theta_M large enough that l*theta
products retain about 8 significant digits for l up to 1e10.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ProblemInstance",
    "GroverAngles",
    "FailurePair",
    "N_ENVELOPE",
    "make_instance",
    "valid_counts",
    "half_angle",
    "angles_of",
    "rotation_angles",
    "failure_kernel",
    "failure_probabilities",
    "DEFAULT_EPSILON",
    "error_bound",
]


N_ENVELOPE = 1 << 48  # largest N whose float64 angle arithmetic is trusted


@dataclass(frozen=True)
class ProblemInstance:
    """A database of size N whose marked set has size either M or K (M < K)."""

    N: int
    M: int
    K: int
    strict_regime: bool  # M < K < N/2, the regime the constructive theorem needs


@dataclass(frozen=True)
class GroverAngles:
    """Full rotation angles for the two hypotheses and their ratio.

    ``gamma`` is None when M = 0: the ratio theta_K/theta_M is undefined and
    callers must branch explicitly (the plain-Grover degenerate path) instead
    of propagating a NaN.
    """

    theta_M: float
    theta_K: float
    gamma: float | None


@dataclass(frozen=True)
class FailurePair:
    """fail_K: P(measure unmarked | size K); fail_M: P(measure marked | size M)."""

    fail_K: float
    fail_M: float


def _as_int(name: str, value) -> int:
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def make_instance(N: int, M: int, K: int) -> ProblemInstance:
    """Validate a (N, M, K) triple and flag the strict M < K < N/2 regime.

    Triples outside the strict regime (K >= N/2) are accepted but flagged;
    only 0 <= M < K <= N with 1 <= N <= N_ENVELOPE is enforced.  Any integer
    type (numpy integers included) is accepted and stored as a Python int;
    bool is not.
    """
    N, M, K = _as_int("N", N), _as_int("M", M), _as_int("K", K)
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    if N > N_ENVELOPE:
        raise ValueError(f"N={N} exceeds the float64 envelope 2**48")
    if M < 0:
        raise ValueError(f"M must be non-negative, got {M}")
    if M >= K:
        raise ValueError(f"need M < K, got M={M}, K={K}")
    if K > N:
        raise ValueError(f"need K <= N, got K={K}, N={N}")
    return ProblemInstance(N=N, M=M, K=K, strict_regime=2 * K < N)


def valid_counts(N, M, K):
    """Whether ``make_instance`` accepts the counts; elementwise on arrays.

    Python ints (one row of a --triples file) give a bool; int64 columns give
    a bool array.  ``make_instance`` is the one place that says why a triple fails.
    """
    return (1 <= N) & (N <= N_ENVELOPE) & (0 <= M) & (M < K) & (K <= N)


def half_angle(count, N):
    """arcsin(sqrt(count/N)): half the rotation angle for a marked set of ``count``.

    Elementwise on integer arrays, which the caller has validated: numpy
    divides and takes the square root, both correctly rounded as in ``math``,
    and asin comes from libm, one ``math.asin`` call per element, because
    ``np.arcsin`` differs from it in the last bit on about one argument in ten.
    """
    if isinstance(count, np.ndarray):
        ratios = np.sqrt(count / N)
        return np.fromiter(map(math.asin, ratios.tolist()), np.float64, count=ratios.size)
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    if count < 0 or count > N:
        raise ValueError(f"count must lie in [0, N], got count={count}, N={N}")
    return math.asin(math.sqrt(count / N))


def angles_of(instance: ProblemInstance) -> GroverAngles:
    """Full rotation angles theta_M, theta_K and the ratio gamma = theta_K/theta_M."""
    return rotation_angles(instance.N, instance.M, instance.K)


def rotation_angles(N, M, K) -> GroverAngles:
    """``angles_of`` from the counts; elementwise on validated integer arrays.

    On arrays the three fields are arrays, and gamma is NaN where M = 0, so
    every comparison with it is false.
    """
    theta_M = 2.0 * half_angle(M, N)
    theta_K = 2.0 * half_angle(K, N)
    if isinstance(M, np.ndarray):
        gamma = np.divide(theta_K, theta_M, out=np.full(M.shape, np.nan), where=M > 0)
    else:
        gamma = theta_K / theta_M if M > 0 else None
    return GroverAngles(theta_M=theta_M, theta_K=theta_K, gamma=gamma)


def failure_kernel(l, theta_K, theta_M):
    """(fail_K, fail_M) = (cos^2(l*theta_K/2), sin^2(l*theta_M/2)) at stopping time l.

    The one implementation of the failure pair.  An array of l gives two
    arrays from numpy, elementwise, and the thetas may then be arrays too:
    scans decide and report with it.  A scalar l gives two Python floats from
    libm (``math``), for the certificate and ``failure_probabilities``.  Both
    square by multiplication.  No parity check: this sits on the scan's hot path.
    """
    trig = np if isinstance(l, np.ndarray) else math
    c, s = trig.cos(0.5 * l * theta_K), trig.sin(0.5 * l * theta_M)
    return c * c, s * s


def failure_probabilities(l: int, angles: GroverAngles) -> FailurePair:
    """Both failure probabilities after m = (l-1)/2 iterations.

    fail_K = cos^2(l*theta_K/2) and fail_M = sin^2(l*theta_M/2).  The
    discrimination procedure only uses odd l; even l is computed anyway but
    warned about, since it almost certainly indicates a caller bug.
    """
    if l % 2 == 0:
        warnings.warn(f"failure_probabilities called with even l={l}", stacklevel=2)
    fail_K, fail_M = failure_kernel(l, angles.theta_K, angles.theta_M)
    return FailurePair(fail_K=fail_K, fail_M=fail_M)


# The paper's worked error threshold: sin^2(2*pi/12) = 1/4.
DEFAULT_EPSILON = 1.0 / 12.0


def error_bound(epsilon: float) -> float:
    """sin^2(2*pi*epsilon), the failure probability an epsilon-neighborhood allows.

    The one place epsilon is validated: it must be finite and lie in (0, 1/4),
    where the bound rises with epsilon, and its bound must not round to 0,
    which no failure probability is below, or to 1, which all but an exact 1
    are below (as at 1e-320 and 0.24999999999).
    """
    if not 0.0 < epsilon < 0.25:  # also false for NaN
        raise ValueError(f"epsilon={epsilon} must be finite and lie in (0, 1/4)")
    bound = math.sin(2.0 * math.pi * epsilon) ** 2
    if not 0.0 < bound < 1.0:
        raise ValueError(
            f"epsilon={epsilon} rounds the error bound sin^2(2*pi*epsilon) to {bound}"
        )
    return bound
