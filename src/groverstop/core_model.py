"""Exact scalar model of the Grover rotation in its 2D invariant subspace.

Everything here is a pure function of (N, M, K) or of a rotation angle:
half-angles, the state after m iterations, the two failure probabilities of
the size-discrimination experiment, and the Chebyshev-polynomial form of the
same quantities.

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
    "SubspaceState",
    "FailurePair",
    "N_ENVELOPE",
    "make_instance",
    "half_angle",
    "angles_of",
    "state_after",
    "failure_kernel",
    "failure_probabilities",
    "error_bound",
    "chebyshev_T",
    "chebyshev_residuals",
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
class SubspaceState:
    """Real amplitudes on the unmarked (|alpha>) and marked (|beta>) axes."""

    alpha_amp: float
    beta_amp: float


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


def half_angle(count: int, N: int) -> float:
    """arcsin(sqrt(count/N)): half the rotation angle for a marked set of ``count``."""
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    if count < 0 or count > N:
        raise ValueError(f"count must lie in [0, N], got count={count}, N={N}")
    return math.asin(math.sqrt(count / N))


def angles_of(instance: ProblemInstance) -> GroverAngles:
    """Full rotation angles theta_M, theta_K and the ratio gamma = theta_K/theta_M."""
    theta_M = 2.0 * half_angle(instance.M, instance.N)
    theta_K = 2.0 * half_angle(instance.K, instance.N)
    gamma = theta_K / theta_M if instance.M > 0 else None
    return GroverAngles(theta_M=theta_M, theta_K=theta_K, gamma=gamma)


def state_after(m: int, theta: float) -> SubspaceState:
    """State of the register after m Grover iterations at rotation angle theta."""
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    phase = (m + 0.5) * theta
    return SubspaceState(alpha_amp=math.cos(phase), beta_amp=math.sin(phase))


def failure_kernel(l, angles: GroverAngles):
    """(fail_K, fail_M) = (cos^2(l*theta_K/2), sin^2(l*theta_M/2)) at stopping time l.

    The one implementation of the failure pair.  An array of l gives two
    arrays from numpy, elementwise, and the thetas may then be arrays too:
    scans decide and report with it.  A scalar l gives two Python floats from
    libm (``math``), for the certificate and ``failure_probabilities``.  Both
    square by multiplication.  No parity check: this sits on the scan's hot path.
    """
    trig = np if isinstance(l, np.ndarray) else math
    c, s = trig.cos(0.5 * l * angles.theta_K), trig.sin(0.5 * l * angles.theta_M)
    return c * c, s * s


def failure_probabilities(l: int, angles: GroverAngles) -> FailurePair:
    """Both failure probabilities after m = (l-1)/2 iterations.

    fail_K = cos^2(l*theta_K/2) and fail_M = sin^2(l*theta_M/2).  The
    discrimination procedure only uses odd l; even l is computed anyway but
    warned about, since it almost certainly indicates a caller bug.
    """
    if l % 2 == 0:
        warnings.warn(f"failure_probabilities called with even l={l}", stacklevel=2)
    fail_K, fail_M = failure_kernel(l, angles)
    return FailurePair(fail_K=fail_K, fail_M=fail_M)


def error_bound(epsilon: float) -> float:
    """sin^2(2*pi*epsilon), the failure probability an epsilon-neighborhood allows.

    The one place epsilon is validated: it must be finite and lie in (0, 1).
    """
    if not 0.0 < epsilon < 1.0:  # also false for NaN
        raise ValueError(f"epsilon must be finite and lie in (0, 1), got {epsilon}")
    return math.sin(2.0 * math.pi * epsilon) ** 2


def chebyshev_T(l: int, x: float) -> float:
    """Chebyshev polynomial of the first kind, T_l(x) = cos(l*arccos x).

    Evaluated in the trigonometric form, which stays accurate for l in the
    thousands where the three-term recurrence does not.
    """
    if l < 0:
        raise ValueError(f"degree must be non-negative, got {l}")
    if abs(x) > 1.0:
        raise ValueError(f"|x| must be <= 1, got {x}")
    return math.cos(l * math.acos(x))


def chebyshev_residuals(l: int, instance: ProblemInstance) -> tuple[float, float]:
    """Deviation of T_l((N-2X)/N) from cos(l*theta_X) for X = M and X = K.

    Both vanish analytically because (N-2X)/N = cos(theta_X); the residuals
    measure only floating-point disagreement between the two routes.
    """
    angles = angles_of(instance)
    x_M = (instance.N - 2 * instance.M) / instance.N
    x_K = (instance.N - 2 * instance.K) / instance.N
    r1 = abs(chebyshev_T(l, x_M) - math.cos(l * angles.theta_M))
    r2 = abs(chebyshev_T(l, x_K) - math.cos(l * angles.theta_K))
    return r1, r2
