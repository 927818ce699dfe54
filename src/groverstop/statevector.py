"""Brute-force ground truth: full N-amplitude simulation of the Grover iteration,
and the seeded Monte Carlo discrimination experiment.

The oracle and the diffusion operator are real matrices and the initial state
is real, so amplitudes are plain float64 arrays; any imaginary component that
showed up would be a bug, and this representation makes it unrepresentable.

``simulate`` refuses N above ``FULL_SIM_CAP`` = 2**22, where its state is one
32 MiB float64 array.  ``run_discrimination`` allocates nothing N-long, so it
takes any N up to the envelope ``N_ENVELOPE`` = 2**48; it refuses instead
m = (l-1)/2 above ``STEP_CAP`` = 2**22 Grover steps (a few seconds of scalar
evolution), before any state is evolved.

Each step takes the mean as the exactly rounded sum (``math.fsum``) over N,
so the state does not depend on the order in which numpy would add the
amplitudes.  ``run_discrimination`` builds no N-long array: the canonical
marked set range(size) keeps the state two-valued (a on the marked
amplitudes, b on the rest), and ``_canonical_state`` evolves just (a, b),
taking that same rounded sum exactly as size*a + (N - size)*b in integers, so
the result equals ``simulate(N, range(size), m)`` bit for bit (tests pin
this).  ``simulate`` stays the brute-force lab over any marked set and the
oracle the two-amplitude evolution is checked against; the single oracle
call, Grover step and measurement the tests take on a full state live in
``tests/oracles.py``.  Each trial is then decided by one comparison of its
uniform, scaled by the total probability, against the marked probability;
both are exactly rounded sums of a*a and b*b.  An experiment evolves the
canonical states of both sizes, M and K, and decides both truths on each
block of uniforms, so every uniform is computed once per experiment.

RNG contract: all randomness flows through numpy's PCG64.  Per-trial streams
are derived as default_rng(SeedSequence(entropy=seed, spawn_key=(trial,))),
and a Monte Carlo trial draws exactly one uniform from its stream; outputs
record both as the algorithm id below.  Fixtures depend on it; do not change
it silently.

``run_discrimination`` does not build those streams one by one: it computes
the uniforms of a whole block of trials at once with numpy integer arithmetic
that replays SeedSequence's hash and PCG64's seeding and first draw.  Each
equals ``trial_rng(seed, trial).random()`` bit for bit (a test pins this), so
``trial_rng`` is the reference the vectorised draw is checked against.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal

import numpy as np

from .core_model import DEFAULT_EPSILON, ProblemInstance, error_bound

__all__ = [
    "FULL_SIM_CAP",
    "RNG_ALGORITHM",
    "STEP_CAP",
    "Discrimination",
    "DiscriminationOutcome",
    "init_uniform",
    "simulate",
    "trial_rng",
    "run_discrimination",
]

FULL_SIM_CAP = 1 << 22
STEP_CAP = 1 << 22  # largest m = (l-1)/2 an experiment evolves
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


@dataclass(frozen=True)
class Discrimination:
    """Both truths of one experiment, decided on the same uniforms."""

    trials: int
    M: DiscriminationOutcome
    K: DiscriminationOutcome


def init_uniform(N: int) -> np.ndarray:
    """Uniform superposition over N basis states."""
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    return np.full(N, 1.0 / np.sqrt(N))


def _marked_array(state_len: int, marked: Iterable[int]) -> np.ndarray:
    idx = np.sort(np.fromiter(marked, dtype=np.intp))
    if idx.size and (idx[0] < 0 or idx[-1] >= state_len):
        raise IndexError(f"marked indices out of range [0, {state_len})")
    if np.any(idx[1:] == idx[:-1]):
        raise ValueError("marked indices must be distinct")
    return idx


def _oracle(state: np.ndarray, idx: np.ndarray) -> None:
    """Flip the marked signs of ``state`` in place."""
    state[idx] = -state[idx]


def _exact_sum(n: int, x: float, k: int, y: float) -> float:
    """n*x + k*y for counts n, k >= 0, computed exactly in integers and rounded once."""
    (px, qx), (py, qy) = x.as_integer_ratio(), y.as_integer_ratio()
    return (n * px * qy + k * py * qx) / (qx * qy)


def _step(state: np.ndarray, idx: np.ndarray) -> None:
    """One Grover iteration applied to ``state`` in place.

    The mean is the exactly rounded sum over N, whatever order numpy would add in.
    """
    _oracle(state, idx)
    np.subtract(2.0 * (math.fsum(memoryview(state)) / len(state)), state, out=state)


def simulate(N: int, marked: Iterable[int], m: int) -> np.ndarray:
    """State after m Grover iterations from the uniform start.

    The marked set is validated once; every iteration is one ``_step``,
    applied in place to the one state array.  N above ``FULL_SIM_CAP`` is
    refused before anything is allocated.
    """
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    if N > FULL_SIM_CAP:
        raise ValueError(
            f"N={N} exceeds the full-simulation cap {FULL_SIM_CAP}; use the subspace model instead"
        )
    idx = _marked_array(N, marked)
    state = init_uniform(N)
    for _ in range(m):
        _step(state, idx)
    return state


def _canonical_state(N: int, size: int, m: int) -> tuple[float, float]:
    """The amplitudes (a, b) of ``simulate(N, range(size), m)``, bit for bit, in O(m).

    Every operation of a step but the mean is elementwise, so the state stays
    a on range(size) and b on the rest.  A step negates a (the oracle), takes
    the sum size*a + (N - size)*b by ``_exact_sum``, rounded once as
    ``math.fsum`` rounds the N amplitudes.  Then t = 2 * (sum / N), and a, b
    map to t - a, t - b with the float64 operations ``simulate`` applies.
    """
    rest = N - size
    a = b = 1.0 / math.sqrt(N)
    for _ in range(m):
        a = -a
        t = 2.0 * (_exact_sum(size, a, rest, b) / N)
        a, b = t - a, t - b
    return a, b


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent, order-insensitive stream for one trial of an experiment."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


# What trial_rng(seed, t).random() computes, replayed on arrays of trials:
# numpy's SeedSequence (bit_generator.pyx: pool of four uint32 words, the
# hashmix/mix hash, generate_state), PCG64's seeding (pcg64.h: srandom, two
# steps of the 128-bit LCG), one draw (a third step, XSL-RR output) and
# next_double.  uint32/uint64 arrays wrap silently, like the C code.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # entropy mixing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT_HI = np.uint64(2549297995355413924)
_PCG_MULT_LO = np.uint64(4865540595714422341)
_LOW32 = np.uint64(0xFFFFFFFF)
_TRIAL_BLOCK = 1 << 14  # divides 2**32: a block's spawn keys share a word count


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of n >= 0, as SeedSequence splits an int."""
    words = [n & 0xFFFFFFFF]
    while n := n >> 32:
        words.append(n & 0xFFFFFFFF)
    return words


def _hash_consts(init: int, mult: int) -> Iterator[tuple[np.uint32, np.uint32]]:
    """(xor, multiplier) of successive hashmix calls: the constant advances each call."""
    while True:
        nxt = init * mult & 0xFFFFFFFF
        yield np.uint32(init), np.uint32(nxt)
        init = nxt


def _hashmix(value: np.ndarray, consts: Iterator[tuple[np.uint32, np.uint32]]) -> np.ndarray:
    xor, mult = next(consts)
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> np.uint32(16))


def _mul_64x64(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low uint64 words of each exact 128-bit product a*b (PCG64 and '%.17g')."""
    half = np.uint64(32)
    a_hi, a_lo, b_hi, b_lo = a >> half, a & _LOW32, b >> half, b & _LOW32
    low, cross_1, cross_2 = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    middle = (low >> half) + (cross_1 & _LOW32) + (cross_2 & _LOW32)
    high = a_hi * b_hi + (cross_1 >> half) + (cross_2 >> half) + (middle >> half)
    return high, (low & _LOW32) | (middle << half)


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _lcg_step(hi, lo, inc_hi, inc_lo) -> tuple[np.ndarray, np.ndarray]:
    """One PCG64 state step, state * multiplier + inc modulo 2**128."""
    prod_hi, prod_lo = _mul_64x64(lo, _PCG_MULT_LO)
    return _add128(prod_hi + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO, prod_lo, inc_hi, inc_lo)


def _uniforms(seed_words: list[int], trials: np.ndarray) -> np.ndarray:
    """trial_rng(seed, t).random() for each t in ``trials`` (uint64, equal word counts)."""
    spawn_words = len(_uint32_words(int(trials[-1])))
    entropy = [np.array([w], dtype=np.uint32) for w in seed_words]
    entropy += [((trials >> np.uint64(32 * i)) & _LOW32).astype(np.uint32)
                for i in range(spawn_words)]

    # SeedSequence.mix_entropy.  A spawn key makes the entropy longer than the
    # pool, so the pool is filled from entropy alone.  The seed's words are
    # length-1 arrays: everything that does not depend on the trial is
    # computed once and broadcast.
    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hashmix(entropy[i], consts) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts))

    # generate_state(4, np.uint64): eight words cycling over the pool, paired
    # little-endian into (state_hi, state_lo, seq_hi, seq_lo).
    consts = _hash_consts(_INIT_B, _MULT_B)
    out = [_hashmix(pool[i % _POOL_SIZE], consts).astype(np.uint64) for i in range(8)]
    state_hi, state_lo, seq_hi, seq_lo = (
        out[i] | (out[i + 1] << np.uint64(32)) for i in range(0, 8, 2)
    )

    # pcg_setseq_128_srandom_r: inc = 2*seq + 1; state = 0, step (state = inc),
    # add the initial state, step.  Then random(): step, XSL-RR, top 53 bits.
    inc_hi = (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << np.uint64(1)) | np.uint64(1)
    hi, lo = _add128(inc_hi, inc_lo, state_hi, state_lo)
    hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
    hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
    xored, rot = hi ^ lo, hi >> np.uint64(58)
    draw = (xored >> rot) | (xored << ((np.uint64(64) - rot) & np.uint64(63)))
    return (draw >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


def _trial_uniforms(seed: int, start: int, stop: int) -> Iterator[np.ndarray]:
    """trial_rng(seed, t).random() for t in range(start, stop), block by block.

    Blocks are aligned to multiples of ``_TRIAL_BLOCK``, so all spawn keys in
    one block have the same number of 32-bit words and memory stays bounded
    however many trials are asked for.
    """
    seed_words = _uint32_words(seed)
    seed_words += [0] * (_POOL_SIZE - len(seed_words))  # SeedSequence pads when spawned
    edges = [start, *range((start // _TRIAL_BLOCK + 1) * _TRIAL_BLOCK, stop, _TRIAL_BLOCK), stop]
    for first, end in zip(edges, edges[1:]):
        if first < end:
            yield _uniforms(seed_words, np.arange(first, end, dtype=np.uint64))


def run_discrimination(
    instance: ProblemInstance,
    l: int,
    trials: int,
    seed: int,
    epsilon: float = DEFAULT_EPSILON,
) -> Discrimination:
    """Monte Carlo estimate of the discrimination error rate under each truth.

    Each trial stands for a uniformly random marked set of the true size, M
    or K, m = (l-1)/2 iterations, one measurement, and the decision K iff the
    measured element is marked.  The dynamics are permutation-equivariant, so
    the decision has the same law as for the canonical set range(size): its
    amplitudes (a, b) are evolved once per size by ``_canonical_state``
    (equal to ``simulate`` bit for bit).  Trial t draws one uniform u from
    ``trial_rng(seed, t)``, computed once for a block of trials at a time,
    and under each truth decides K iff u * total < marked.  Here marked =
    size * a*a and total = size * a*a + (N - size) * b*b, each the exact sum
    rounded once: this is a measurement that searches the scaled uniform in
    the running sum of the squared state (side="right"), with every partial
    sum rounded once instead of step by step.  Size 0 never decides K, and
    size N always does, since u < 1.  Both truths see the same uniforms, as
    two separate runs at one seed would.  m above ``STEP_CAP`` is refused
    before any state is evolved.
    """
    if l < 1 or l % 2 == 0:
        raise ValueError(f"l must be odd and >= 1, got {l}")
    m = (l - 1) // 2
    if m > STEP_CAP:
        raise ValueError(
            f"m=(l-1)/2={m} exceeds the experiment cap of {STEP_CAP} Grover steps"
        )
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    seed = int(seed)
    bound = error_bound(epsilon)
    edges = []  # (marked, total) under truth M, then K
    for size in (instance.M, instance.K):
        a, b = _canonical_state(instance.N, size, m)
        pa, pb = a * a, b * b
        marked, total = size * pa, _exact_sum(size, pa, instance.N - size, pb)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"state is not normalized: |amplitudes|^2 sums to {total!r}")
        edges.append((marked, total))
    decided_k = [0, 0]
    for u in _trial_uniforms(seed, 0, trials):
        for i, (marked, total) in enumerate(edges):
            decided_k[i] += int(np.count_nonzero(u * total < marked))

    def outcome(truth: Truth, errors: int) -> DiscriminationOutcome:
        return DiscriminationOutcome(truth, trials, errors, errors / trials, bound, seed)

    return Discrimination(trials, outcome("M", decided_k[0]), outcome("K", trials - decided_k[1]))
