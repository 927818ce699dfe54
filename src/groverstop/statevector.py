"""Brute-force ground truth: full N-amplitude simulation of the Grover iteration.

The oracle and the diffusion operator are real matrices and the initial state
is real, so amplitudes are plain float64 arrays; any imaginary component that
showed up would be a bug, and this representation makes it unrepresentable.

Full simulation is capped at N = 2**22 (one float64 array); larger databases
are served only by the 2D subspace model in ``core_model``.

``run_discrimination`` does not step N amplitudes: the canonical marked set
range(size) keeps the state two-valued (a on the marked amplitudes, b on the
rest), and ``_canonical_state`` evolves just (a, b), replaying numpy's
pairwise summation for the mean so that the result equals
``simulate(N, range(size), m)`` bit for bit (tests pin this).  The sum is
compiled once per (N, size) into a Python function of straight-line
additions.  ``simulate`` stays the brute-force lab over any marked set and
the oracle the replay is checked against.  Each trial is then decided by one
comparison of its scaled uniform against ``cum[size - 1]``, the cumulative
probability of the marked set.

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

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Literal

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
    idx = np.sort(np.fromiter(marked, dtype=np.intp))
    if idx.size and (idx[0] < 0 or idx[-1] >= state_len):
        raise IndexError(f"marked indices out of range [0, {state_len})")
    if np.any(idx[1:] == idx[:-1]):
        raise ValueError("marked indices must be distinct")
    return idx


def _oracle(state: np.ndarray, idx: np.ndarray) -> None:
    """Flip the marked signs of ``state`` in place."""
    state[idx] = -state[idx]


def _step(state: np.ndarray, idx: np.ndarray) -> None:
    """One Grover iteration applied to ``state`` in place."""
    _oracle(state, idx)
    np.subtract(2.0 * state.mean(), state, out=state)


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


def simulate(N: int, marked: Iterable[int], m: int) -> np.ndarray:
    """State after m Grover iterations from the uniform start.

    The marked set is validated once; every iteration is the step
    ``grover_step`` takes, applied in place to the one state array.
    """
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    idx = _marked_array(N, marked)
    state = init_uniform(N)
    for _ in range(m):
        _step(state, idx)
    return state


# numpy's float64 pairwise summation (pairwise_sum in
# numpy/_core/src/umath/loops_utils.h.src), which ndarray.sum and ndarray.mean
# run over a contiguous array in one piece, starting from the identity 0.0.
_PW_UNROLL = 8
_PW_BLOCK = 128


def _pairwise_sum(lo, n, term, add, part):
    """numpy's pairwise sum of term(lo), ..., term(lo + n - 1), n >= 1, with ``add`` for +.

    Fewer than 8 terms are added in order (numpy starts from -0.0, which
    changes no sum).  Up to 128 terms are dealt round-robin to 8 accumulators,
    combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), and the terms past the
    last multiple of 8 are added in order.  A longer run is split at n/2
    rounded down to a multiple of 8, and ``part(lo, n)`` sums each half.
    """
    if n < _PW_UNROLL:
        res = term(lo)
        for i in range(lo + 1, lo + n):
            res = add(res, term(i))
        return res
    if n <= _PW_BLOCK:
        acc = [term(lo + j) for j in range(_PW_UNROLL)]
        full = n - n % _PW_UNROLL
        for i in range(_PW_UNROLL, full):
            acc[i % _PW_UNROLL] = add(acc[i % _PW_UNROLL], term(lo + i))
        res = add(add(add(acc[0], acc[1]), add(acc[2], acc[3])),
                  add(add(acc[4], acc[5]), add(acc[6], acc[7])))
        for i in range(lo + full, lo + n):
            res = add(res, term(i))
        return res
    half = n // 2
    half -= half % _PW_UNROLL
    return add(part(lo, half), part(lo + half, n - half))


def _sum_program(N: int, size: int) -> tuple[list[tuple[int, int, int]], int]:
    """numpy's pairwise sum of the canonical state, as straight-line additions.

    Register 0 holds the amplitude a of indices below ``size``, register 1
    the amplitude b of the rest.  Running ``regs[dst] = regs[i] + regs[j]``
    for each (dst, i, j) of the program, in order, leaves the sum of the N
    amplitudes in ``regs[root]``.  Equal additions are emitted once (IEEE
    addition commutes), and a uniform run is walked once per length, so the
    program has O(log N) additions: only one run per level of the split
    holds both values, and the 8 accumulators of that one block take at most
    two distinct values.
    """
    program: list[tuple[int, int, int]] = []
    registers: dict[tuple[int, int], int] = {}

    def add(i: int, j: int) -> int:
        key = (i, j) if i <= j else (j, i)
        reg = registers.get(key)
        if reg is None:
            reg = registers[key] = len(program) + 2
            program.append((reg, *key))
        return reg

    def term(i: int) -> int:
        return 0 if i < size else 1

    uniform: dict[tuple[int, int], int] = {}  # (value register, length) -> sum register

    def part(lo: int, n: int) -> int:
        if lo < size < lo + n:
            return _pairwise_sum(lo, n, term, add, part)
        key = (term(lo), n)
        if key not in uniform:
            uniform[key] = _pairwise_sum(lo, n, term, add, part)
        return uniform[key]

    return program, part(0, N)


@functools.lru_cache(maxsize=8)
def _evolver(N: int, size: int) -> Callable[[float, float, int], tuple[float, float]]:
    """``evolve(a, b, m)``: m steps of the canonical state, compiled for (N, size).

    The loop body is ``_sum_program`` written out as local additions, so a step
    runs at local-variable speed with the float operations in the same order:
    negate a, run the additions, t = 2 * mean, then a, b = t - a, t - b.  The
    source is built from register numbers and N alone, the way ``dataclasses``
    and ``namedtuple`` build code; a function is compiled on its first use.
    """
    program, root = _sum_program(N, size)
    name = ["a", "b", *(f"r{reg}" for reg in range(2, len(program) + 2))]
    lines = [
        "def evolve(a, b, m):",
        "    for _ in range(m):",
        "        a = -a",
        *(f"        {name[dst]} = {name[i]} + {name[j]}" for dst, i, j in program),
        f"        t = 2.0 * ((0.0 + {name[root]}) / {N:d})",
        "        a, b = t - a, t - b",
        "    return a, b",
    ]
    namespace: dict = {}
    exec(compile("\n".join(lines), f"<evolve N={N} size={size}>", "exec"), namespace)
    return namespace["evolve"]


def _canonical_state(N: int, size: int, m: int) -> np.ndarray:
    """``simulate(N, range(size), m)``, bit for bit, in O(m log N) scalar work.

    Every operation of a step but the mean is elementwise, so the state stays
    a on range(size) and b on the rest.  A step negates a (the oracle), takes
    t = 2 * mean from the replayed pairwise sum, and maps a, b to t - a, t - b
    with the same float64 operations ``simulate`` applies to each amplitude.
    """
    a = b = 1.0 / math.sqrt(N)
    a, b = _evolver(N, size)(a, b, m)
    state = np.full(N, b)
    state[:size] = a
    return state


def _cumulative(state: np.ndarray) -> np.ndarray:
    probs = state * state
    norm = float(probs.sum())
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state is not normalized: |amplitudes|^2 sums to {norm!r}")
    return np.cumsum(probs)


def _sample(cum: np.ndarray, u: float | np.ndarray):
    """Basis index (or indices) that the uniform(s) ``u`` in [0, 1) select."""
    return np.minimum(np.searchsorted(cum, u * cum[-1], side="right"), len(cum) - 1)


def _decides_k(cum: np.ndarray, size: int, u: np.ndarray) -> np.ndarray:
    """``_sample(cum, u) < size``, by one comparison per uniform.

    ``cum`` is a running sum of squares, so nondecreasing: the sampled index
    is below ``size`` exactly when u * cum[-1] falls below cum[size - 1].  No
    index is below 0, and ``_sample`` clamps every index to N - 1 < N, so the
    edge is -inf for size 0 and inf for size N (u * cum[-1] is finite).
    """
    edge = -math.inf if size == 0 else math.inf if size == len(cum) else cum[size - 1]
    return u * cum[-1] < edge


def measure(state: np.ndarray, rng: np.random.Generator) -> int:
    """Sample a basis index with probability amplitude squared."""
    return int(_sample(_cumulative(state), rng.random()))


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


def _mul_hi64(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of the 128-bit products a*b, from 32-bit halves."""
    a0, a1, b0, b1 = a & _LOW32, a >> np.uint64(32), b & _LOW32, b >> np.uint64(32)
    lo_lo, lo_hi, hi_lo = a0 * b0, a0 * b1, a1 * b0
    carry = ((lo_lo >> np.uint64(32)) + (lo_hi & _LOW32) + (hi_lo & _LOW32)) >> np.uint64(32)
    return a1 * b1 + (lo_hi >> np.uint64(32)) + (hi_lo >> np.uint64(32)) + carry


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _lcg_step(hi, lo, inc_hi, inc_lo) -> tuple[np.ndarray, np.ndarray]:
    """One PCG64 state step, state * multiplier + inc modulo 2**128."""
    prod_hi = _mul_hi64(lo, _PCG_MULT_LO) + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
    return _add128(prod_hi, lo * _PCG_MULT_LO, inc_hi, inc_lo)


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
    state is evolved once by ``_canonical_state`` (equal to ``simulate`` bit
    for bit), and each trial samples one index from it with a single uniform
    from ``trial_rng(seed, trial)``, computed for a block of trials at a time.
    Whether that index is marked is one comparison against ``cum[size - 1]``;
    no index is looked up.
    """
    if l < 1 or l % 2 == 0:
        raise ValueError(f"l must be odd and >= 1, got {l}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if truth not in ("M", "K"):
        raise ValueError(f"truth must be 'M' or 'K', got {truth!r}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    seed = int(seed)
    if instance.N > FULL_SIM_CAP:
        raise ValueError(
            f"N={instance.N} exceeds the full-simulation cap {FULL_SIM_CAP}; "
            "use the subspace model instead"
        )
    bound = error_bound(epsilon)
    size = instance.M if truth == "M" else instance.K
    m = (l - 1) // 2
    cum = _cumulative(_canonical_state(instance.N, size, m))
    decided_k = sum(
        int(np.count_nonzero(_decides_k(cum, size, u))) for u in _trial_uniforms(seed, 0, trials)
    )
    errors = decided_k if truth == "M" else trials - decided_k
    return DiscriminationOutcome(
        truth=truth,
        trials=trials,
        errors=errors,
        empirical_error=errors / trials,
        bound=bound,
        seed=seed,
    )
