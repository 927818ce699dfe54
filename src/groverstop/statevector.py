"""Brute-force ground truth: full N-amplitude simulation of the Grover iteration.

The oracle and the diffusion operator are real matrices and the initial state
is real, so amplitudes are plain float64 arrays; any imaginary component that
showed up would be a bug, and this representation makes it unrepresentable.

Full simulation is capped at N = 2**22 (one float64 array); larger databases
are served only by the 2D subspace model in ``core_model``.

RNG contract: all randomness flows through numpy's PCG64.  Per-trial streams
are derived as default_rng(SeedSequence(entropy=seed, spawn_key=(trial,))),
and a Monte Carlo trial draws exactly one uniform from its stream; outputs
record both as the algorithm id below.  Fixtures depend on it; do not change
it silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from .core_model import ProblemInstance, error_bound

__all__ = [
    "FULL_SIM_CAP",
    "RNG_ALGORITHM",
    "DiscriminationOutcome",
    "init_uniform",
    "apply_oracle",
    "grover_step",
    "simulate",
    "measure",
    "trial_rng",
    "run_discrimination",
]

FULL_SIM_CAP = 1 << 22
RNG_ALGORITHM = "numpy-pcg64/seedsequence(seed,(trial,))/one-uniform-per-trial"

Truth = Literal["M", "K"]


@dataclass(frozen=True)
class DiscriminationOutcome:
    truth: Truth
    trials: int
    errors: int
    empirical_error: float
    bound: float  # sin^2(2*pi*epsilon)
    seed: int


def init_uniform(N: int) -> np.ndarray:
    """Uniform superposition over N basis states."""
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    return np.full(N, 1.0 / np.sqrt(N))


def _marked_array(state_len: int, marked: Iterable[int]) -> np.ndarray:
    idx = np.asarray(sorted(marked), dtype=np.intp)
    if idx.size and (idx[0] < 0 or idx[-1] >= state_len):
        raise IndexError(f"marked indices out of range [0, {state_len})")
    if idx.size != np.unique(idx).size:
        raise ValueError("marked indices must be distinct")
    return idx


def _oracle(state: np.ndarray, idx: np.ndarray) -> np.ndarray:
    out = state.copy()
    out[idx] = -out[idx]
    return out


def _step(state: np.ndarray, idx: np.ndarray) -> np.ndarray:
    reflected = _oracle(state, idx)
    return 2.0 * reflected.mean() - reflected


def apply_oracle(state: np.ndarray, marked: Iterable[int]) -> np.ndarray:
    """Flip the sign of every marked amplitude (an exact involution)."""
    return _oracle(state, _marked_array(len(state), marked))


def grover_step(state: np.ndarray, marked: Iterable[int]) -> np.ndarray:
    """One Grover iteration: oracle reflection, then reflection about uniform."""
    return _step(state, _marked_array(len(state), marked))


def simulate(N: int, marked: Iterable[int], m: int) -> np.ndarray:
    """State after m Grover iterations from the uniform start.

    The marked set is validated once; every iteration is the step
    ``grover_step`` takes.
    """
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    idx = _marked_array(N, marked)
    state = init_uniform(N)
    for _ in range(m):
        state = _step(state, idx)
    return state


def _cumulative(state: np.ndarray) -> np.ndarray:
    probs = state * state
    norm = float(probs.sum())
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state is not normalized: |amplitudes|^2 sums to {norm!r}")
    return np.cumsum(probs)


def _sample(cum: np.ndarray, rng: np.random.Generator) -> int:
    u = rng.random() * cum[-1]
    return int(min(np.searchsorted(cum, u, side="right"), len(cum) - 1))


def measure(state: np.ndarray, rng: np.random.Generator) -> int:
    """Sample a basis index with probability amplitude squared."""
    return _sample(_cumulative(state), rng)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent, order-insensitive stream for one trial of an experiment."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


def run_discrimination(
    instance: ProblemInstance,
    truth: Truth,
    l: int,
    trials: int,
    seed: int,
    epsilon: float = 1.0 / 12.0,
) -> DiscriminationOutcome:
    """Monte Carlo estimate of the discrimination error rate under one truth.

    Each trial stands for a uniformly random marked set of the true size,
    m = (l-1)/2 iterations, one measurement, and the decision K iff the
    measured element is marked.  The dynamics are permutation-equivariant, so
    the decision has the same law as for the canonical set range(size): its
    state is simulated once, and each trial samples one index from it with a
    single uniform from ``trial_rng(seed, trial)``.
    """
    if l < 1 or l % 2 == 0:
        raise ValueError(f"l must be odd and >= 1, got {l}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if truth not in ("M", "K"):
        raise ValueError(f"truth must be 'M' or 'K', got {truth!r}")
    if instance.N > FULL_SIM_CAP:
        raise ValueError(
            f"N={instance.N} exceeds the full-simulation cap {FULL_SIM_CAP}; "
            "use the subspace model instead"
        )
    bound = error_bound(epsilon)
    size = instance.M if truth == "M" else instance.K
    m = (l - 1) // 2
    cum = _cumulative(simulate(instance.N, range(size), m))
    errors = sum(
        (_sample(cum, trial_rng(seed, trial)) < size) != (truth == "K")
        for trial in range(trials)
    )
    return DiscriminationOutcome(
        truth=truth,
        trials=trials,
        errors=errors,
        empirical_error=errors / trials,
        bound=bound,
        seed=seed,
    )
