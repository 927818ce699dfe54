"""Reference routes that the tests check the package against; no command runs them.

* ``state_after`` and ``SubspaceState``: the register after m iterations in
  the 2D subspace, the analytic form of the failure probabilities.
* ``chebyshev_T`` and ``chebyshev_residuals``: the same quantities by the
  Chebyshev-polynomial route (acceptance criterion 8).
* ``apply_oracle``, ``grover_step`` and ``measure``: one brute-force oracle
  call, Grover iteration and measurement on a full N-amplitude state, built
  on the private helpers ``simulate`` uses.
* ``reduce_common_divisor``: the gcd reduction of one triple, the oracle for
  ``table --reduced``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from groverstop.core_model import ProblemInstance, angles_of, make_instance
from groverstop.statevector import _marked_array, _oracle, _step


@dataclass(frozen=True)
class SubspaceState:
    """Real amplitudes on the unmarked (|alpha>) and marked (|beta>) axes."""

    alpha_amp: float
    beta_amp: float


def state_after(m: int, theta: float) -> SubspaceState:
    """State of the register after m Grover iterations at rotation angle theta."""
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    phase = (m + 0.5) * theta
    return SubspaceState(alpha_amp=math.cos(phase), beta_amp=math.sin(phase))


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


def apply_oracle(state: np.ndarray, marked: Iterable[int]) -> np.ndarray:
    """Flip the sign of every marked amplitude (an exact involution)."""
    out = state.copy()
    _oracle(out, _marked_array(len(state), marked))
    return out


def grover_step(state: np.ndarray, marked: Iterable[int]) -> np.ndarray:
    """One Grover iteration: oracle reflection, then reflection about uniform."""
    out = np.array(state, dtype=np.float64)
    _step(out, _marked_array(len(state), marked))
    return out


def measure(state: np.ndarray, rng: np.random.Generator) -> int:
    """Sample a basis index with probability amplitude squared.

    The index is where the scaled uniform falls in numpy's running sum of the
    squared amplitudes (``searchsorted``, side="right"), clamped to N - 1.
    """
    probs = state * state
    norm = float(probs.sum())
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state is not normalized: |amplitudes|^2 sums to {norm!r}")
    cum = np.cumsum(probs)
    return int(min(np.searchsorted(cum, rng.random() * cum[-1], side="right"), len(cum) - 1))


def reduce_common_divisor(M: int, K: int, N: int) -> tuple[int, int, int]:
    """Divide the triple by gcd(M, K, N); the angles are unchanged."""
    make_instance(N, M, K)
    g = math.gcd(M, K, N)
    return M // g, K // g, N // g
