"""Instance-level transforms: database padding, the l bound and the size flags.

* When K = a*M with the ratio too close for the constructive rule, padding the
  database with r*N artificial elements (r*M of them marked) shifts gamma into
  the applicable range.  The padding here is virtual: no array is materialized,
  only the transformed triple is returned.
* The closed-form bound on l (``l_bound_of``; the bound on m is half of it)
  and the theorem's three premises (``applicability_flags``), elementwise on
  arrays as well as for one triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_model import (
    DEFAULT_EPSILON,
    N_ENVELOPE,
    ProblemInstance,
    angles_of,
    error_bound,
    make_instance,
)

__all__ = [
    "PaddedInstance",
    "PremiseViolated",
    "pad_for_ratio",
    "applicability_flags",
    "l_bound_of",
]


class PremiseViolated(ValueError):
    """sqrt(M/N) >= (2*epsilon/3)^2: the padding chain's premise fails."""


@dataclass(frozen=True)
class PaddedInstance:
    """Result of padding (M, a*M, N) by r*N artificial elements, r*M marked.

    The certification fields record the chain that makes the padded triple
    applicable: gamma' - 1 is at least sqrt((r+a)/(r+1)) - 1, and under the
    premise sqrt(M/N) < (2*epsilon/3)^2 the padded triple passes the size
    condition sqrt(K') < 16*(gamma'-1)^2*sqrt(N').
    """

    r: int
    M_prime: int
    K_prime: int
    N_prime: int
    original: ProblemInstance
    gamma_prime: float
    gamma_prime_lower: float  # sqrt((r+a)/(r+1)) - 1
    gamma_gap_ok: bool  # gamma' - 1 >= gamma_prime_lower
    size_condition_ok: bool  # sqrt(K') < 16*(gamma'-1)^2*sqrt(N')
    m_bound_padded: float  # 2*sqrt(N')/(sqrt(K')-sqrt(M'))

    @property
    def padded(self) -> ProblemInstance:
        return make_instance(self.N_prime, self.M_prime, self.K_prime)


def minimal_padding(a: float, epsilon: float) -> int:
    """Minimal r with r + 1 > (a-1)*sqrt(2)/epsilon.

    That condition forces K'/M' = (r+a)/(r+1) below (1 + epsilon/(2*sqrt(2)))^2,
    which is what the epsilon-calculus of the stopping rule needs.
    """
    return max(math.floor((a - 1.0) * math.sqrt(2.0) / epsilon), 0)


def pad_for_ratio(
    M: int,
    N: int,
    a: float = 2.0,
    epsilon: float = DEFAULT_EPSILON,
) -> PaddedInstance:
    """Pad (M, a*M, N) so the shrunken ratio K'/M' admits the constructive rule.

    Requires M >= 1, a finite ratio a > 1 with a*M integral, a valid triple
    (N, M, a*M) with a*M <= N/2, epsilon in (0, 1/4), and the premise
    sqrt(M/N) < (2*epsilon/3)^2 (otherwise PremiseViolated).
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    error_bound(epsilon)  # validates epsilon
    if not 1.0 < a < math.inf:
        raise ValueError(f"ratio a must be finite and exceed 1, got {a}")
    if M >= N or M > N_ENVELOPE:
        # A valid triple needs M < K <= N <= 2**48; a larger M would not
        # even convert to a float in the product a*M.
        raise ValueError(f"need M < N <= 2**48, got M={M}, N={N}")
    K = a * M
    if K == math.inf:
        raise ValueError(f"a*M must be finite, got a={a}, M={M}")
    K_int = round(K)
    if abs(K - K_int) > 1e-9:
        raise ValueError(f"a*M must be an integer, got a={a}, M={M}")
    if 2 * K_int > N:
        raise ValueError(f"need a*M <= N/2, got a*M={K_int}, N={N}")
    original = make_instance(N, M, K_int)  # before padding: an error names the given counts
    if math.sqrt(M / N) >= (2.0 * epsilon / 3.0) ** 2:
        raise PremiseViolated(
            f"sqrt(M/N)={math.sqrt(M / N):.6g} >= (2*eps/3)^2="
            f"{(2.0 * epsilon / 3.0) ** 2:.6g}"
        )

    r = minimal_padding(a, epsilon)
    M_prime = (r + 1) * M
    K_prime = r * M + K_int
    N_prime = (r + 1) * N
    padded = make_instance(N_prime, M_prime, K_prime)
    angles = angles_of(padded)
    assert angles.gamma is not None
    excess = angles.gamma - 1.0
    gamma_prime_lower = math.sqrt((r + a) / (r + 1.0)) - 1.0
    flags = applicability_flags(N_prime, K_prime, angles.gamma)
    return PaddedInstance(
        r=r,
        M_prime=M_prime,
        K_prime=K_prime,
        N_prime=N_prime,
        original=original,
        gamma_prime=angles.gamma,
        gamma_prime_lower=gamma_prime_lower,
        gamma_gap_ok=excess >= gamma_prime_lower,
        size_condition_ok=flags["size_condition_ok"],
        m_bound_padded=l_bound_of(N_prime, M_prime, K_prime) / 2.0,
    )


def applicability_flags(N, K, gamma) -> dict:
    """The theorem's three premises, by ``Applicability`` field; elementwise on arrays.

    The ordering M < K < N/2 is 2*K < N, since a valid triple has M < K.  The
    size condition is sqrt(K) < 16*(gamma-1)^2*sqrt(N).  Its square is a
    multiplication: ``x**2`` calls libm ``pow``, which is not correctly
    rounded, and numpy arrays square by multiplication.  A NaN gamma (M = 0)
    fails the two flags that need it.
    """
    sqrt = np.sqrt if isinstance(N, np.ndarray) else math.sqrt
    excess = gamma - 1.0
    size_ok = sqrt(K) < 16.0 * (excess * excess) * sqrt(N)
    return dict(ordering_ok=2 * K < N, size_condition_ok=size_ok, gamma_small_ok=excess <= 0.25)


def l_bound_of(N, M, K):
    """4*sqrt(N)/(sqrt(K)-sqrt(M)), the bound on l; elementwise on arrays.

    The bound on m is l_bound / 2, which equals 2*sqrt(N)/(sqrt(K)-sqrt(M))
    exactly: scaling by 2 commutes with rounding.
    """
    sqrt = np.sqrt if isinstance(N, np.ndarray) else math.sqrt
    return 4.0 * sqrt(N) / (sqrt(K) - sqrt(M))
