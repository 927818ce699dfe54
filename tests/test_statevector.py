import json
import math
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groverstop import (
    angles_of,
    cli,
    failure_probabilities,
    half_angle,
    init_uniform,
    make_instance,
    run_discrimination,
    simulate,
)
import groverstop.statevector as sv
from groverstop.statevector import (
    _TRIAL_BLOCK,
    FULL_SIM_CAP,
    STEP_CAP,
    _canonical_state,
    _trial_uniforms,
    trial_rng,
)
from oracles import apply_oracle, grover_step, measure, state_after


class TestInitUniform:
    def test_small_cases(self):
        np.testing.assert_array_equal(init_uniform(4), np.full(4, 0.5))
        np.testing.assert_array_equal(init_uniform(1), np.ones(1))

    def test_normalized(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            N = int(rng.integers(1, 1 << 16))
            state = init_uniform(N)
            assert abs(np.sum(state * state) - 1.0) <= 1e-12

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            init_uniform(0)


class TestOracle:
    def test_phase_flip(self):
        state = np.array([1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(
            apply_oracle(state, {0}), np.array([-1.0, 0.0, 0.0, 0.0])
        )

    def test_empty_set_is_identity(self):
        state = init_uniform(8)
        np.testing.assert_array_equal(apply_oracle(state, set()), state)

    def test_involution_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            N = int(rng.integers(2, 1 << 10))
            state = rng.normal(size=N)
            state /= np.linalg.norm(state)
            S = rng.choice(N, size=int(rng.integers(0, N + 1)), replace=False)
            np.testing.assert_array_equal(apply_oracle(apply_oracle(state, S), S), state)

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            apply_oracle(init_uniform(4), {4})

    def test_input_unmodified(self):
        state = np.linspace(0.1, 0.8, 8)
        before = state.copy()
        out = apply_oracle(state, {1, 5})
        assert out is not state
        np.testing.assert_array_equal(state, before)


class TestGroverStep:
    def test_n4_single_step_exact(self):
        state = grover_step(init_uniform(4), {3})
        np.testing.assert_allclose(state, [0, 0, 0, 1], atol=1e-12)

    def test_empty_set_uniform_fixed_point(self):
        state = init_uniform(16)
        np.testing.assert_allclose(grover_step(state, set()), state, atol=1e-15)

    def test_norm_preserved_over_random_steps(self):
        rng = np.random.default_rng(6)
        N = 512
        state = init_uniform(N)
        S = rng.choice(N, size=37, replace=False)
        for _ in range(200):
            state = grover_step(state, S)
            assert abs(np.sum(state * state) - 1.0) <= 1e-13

    def test_input_unmodified(self):
        state = init_uniform(16)
        before = state.copy()
        out = grover_step(state, {2, 7})
        assert out is not state
        np.testing.assert_array_equal(state, before)
        assert not np.array_equal(out, before)


class TestSimulate:
    def test_bit_identical_to_repeated_grover_step(self):
        marked = range(30000)
        state = init_uniform(65536)
        for _ in range(200):
            state = grover_step(state, marked)
        assert simulate(65536, marked, 200).tobytes() == state.tobytes()

    def test_rejects_bad_marked_set(self):
        with pytest.raises(IndexError):
            simulate(8, {8}, 0)
        with pytest.raises(ValueError):
            simulate(8, [1, 1], 3)
        with pytest.raises(ValueError):
            simulate(8, [5, 1, 5], 3)
        with pytest.raises(ValueError):
            simulate(8, (i for i in (2, 7, 2)), 3)
        with pytest.raises(IndexError):
            simulate(8, (i for i in (2, 8)), 3)

    def test_zero_steps(self):
        np.testing.assert_array_equal(simulate(4, {1}, 0), init_uniform(4))

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError, match="m must be non-negative, got -1"):
            simulate(4, {1}, -1)

    def test_above_full_sim_cap_rejected(self):
        # Unchecked, this would allocate one 32 MiB array and return it.
        with pytest.raises(ValueError, match="full-simulation cap"):
            simulate(FULL_SIM_CAP + 1, [], 0)

    def test_n4_basis_state(self):
        np.testing.assert_allclose(simulate(4, {2}, 1), [0, 0, 1, 0], atol=1e-12)

    def test_matches_subspace_model(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            N = int(rng.integers(4, 1 << 10))
            size = int(rng.integers(1, N))
            m = int(rng.integers(0, 100))
            S = rng.choice(N, size=size, replace=False)
            state = simulate(N, S, m)
            sub = state_after(m, 2 * half_angle(size, N))
            pred = np.full(N, sub.alpha_amp / math.sqrt(N - size) if size < N else 0.0)
            pred[np.sort(S)] = sub.beta_amp / math.sqrt(size)
            assert np.abs(state - pred).max() <= 1e-10

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            N = int(rng.integers(8, 1 << 10))
            size = int(rng.integers(1, N // 2))
            m = int(rng.integers(1, 50))
            S = rng.choice(N, size=size, replace=False)
            perm = rng.permutation(N)
            direct = simulate(N, perm[S], m)
            relabeled = np.empty(N)
            relabeled[perm] = simulate(N, S, m)
            np.testing.assert_allclose(direct, relabeled, atol=1e-12)


def _bits(x) -> list[int]:
    return np.asarray(x, dtype=np.float64).view(np.uint64).tolist()


def _exact_mean(x: np.ndarray) -> float:
    """The exact sum of x, rounded once to float64, over len(x).

    Each float is p / q with q a power of two, so over the largest q the sum
    is one exact Fraction of integers (summing Fractions one by one is slower).
    """
    ratios = [v.as_integer_ratio() for v in x.tolist()]
    den = max(q for _, q in ratios)
    return float(Fraction(sum(p * (den // q) for p, q in ratios), den)) / len(x)


def _assert_step_mean(x: np.ndarray, mean: float) -> None:
    """grover_step with nothing marked maps x to 2 * mean - x, bit for bit."""
    assert _bits(grover_step(x, set())) == _bits(2.0 * mean - x)


class TestExactMean:
    """The mean a step takes is the exact sum, rounded once, over N, in any summation order."""

    LENGTHS = [
        *range(1, 10),
        15, 16, 17, 127, 128, 129, 135, 136, 137, 256, 257,
        *(2**k + d for k in range(9, 17) for d in (-1, 1)),
        100003,
    ]

    @pytest.mark.parametrize("n", LENGTHS)
    def test_matches_fraction(self, n):
        rng = np.random.default_rng(n)
        # Mixed signs over 16 decades: a rounded running or pairwise sum drifts.
        x = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8, size=n)
        _assert_step_mean(x, _exact_mean(x))

    def test_cancellation(self):
        # Added in order, 1e16 + 1.0 rounds to 1e16 and the 1.0 is lost.
        x = np.array([1e16, 1.0, -1e16])
        assert _bits(grover_step(x, set())) == _bits(2.0 * (1.0 / 3) - x)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3000), pairs=st.integers(0, 1500))
    def test_random_arrays(self, seed, n, pairs):
        rng = np.random.default_rng(seed)
        # Mixed signs over 30 decades; the last ``pairs`` terms cancel earlier
        # ones exactly, so the small terms decide the sum.
        x = rng.normal(size=n) * 10.0 ** rng.uniform(-15, 15, size=n)
        pairs = min(pairs, n // 2)
        x[n - pairs :] = -x[:pairs]
        x = rng.permutation(x)
        _assert_step_mean(x, _exact_mean(x))


class TestPairwiseSumReplica:
    """Earlier versions replicated numpy's pairwise sum for the mean; the exact
    mean stays within that sum's error bound of it, so states differ from
    theirs only in the last bits."""

    @pytest.mark.parametrize("n", TestExactMean.LENGTHS)
    def test_matches_add_reduce(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8, size=n)
        mean = _exact_mean(x)
        _assert_step_mean(x, mean)
        # numpy adds up to 16 terms per accumulator, folds 8 accumulators and
        # up to 7 leftover terms, and halves blocks above 128 terms: each term
        # passes through at most 26 + log2(n) roundings.
        depth = 26 + math.ceil(math.log2(n))
        bound = depth * 2.0**-53 * math.fsum(np.abs(x))
        assert abs(mean * n - np.add.reduce(x)) <= bound + abs(mean * n) * 2.0**-52

    @pytest.mark.parametrize("n", [1, 7, 8, 129])
    def test_signed_zeros(self, n):
        # A mean of zeros is +0.0, as numpy's sum is, so a step leaves +0.0 everywhere.
        x = np.full(n, -0.0)
        x[1::3] = 0.0
        assert _bits(np.add.reduce(x)) == _bits(0.0)
        for marked in (set(), range(n), range(0, n, 2)):
            assert _bits(grover_step(x, marked)) == _bits(np.zeros(n))


def _assert_canonical(N, size, m):
    a, b = _canonical_state(N, size, m)
    got = np.full(N, b)
    got[:size] = a
    want = simulate(N, range(size), m)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _boundaries(N):
    """Marked-set sizes on the block edges of numpy's pairwise sum over N terms.

    Earlier versions replayed that sum for the mean; the exact sum must hold there too.
    """
    half = N // 2 - N // 2 % 8
    edges = {8, N - N % 8, half, half + 8} if N > 128 else {8, N - N % 8}
    return sorted({0, 1, N - 1, N} | {e for e in edges if 0 < e < N})


class TestCanonicalState:
    """_canonical_state equals simulate(N, range(size), m) bit for bit."""

    @pytest.mark.parametrize(
        "N", [1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 135, 136, 137, 255, 256, 257, 1031]
    )
    def test_block_boundaries(self, N):
        for size in _boundaries(N):
            for m in (0, 23):
                _assert_canonical(N, size, m)

    @pytest.mark.parametrize("size", [0, 1, 12, 65535, 65536, 65543, 131070, 131071])
    def test_n_not_a_multiple_of_8(self, size):
        # 131071 splits into 65528 + 65543; 65543 is past the split point.
        _assert_canonical(131071, size, 40)

    def test_at_full_sim_cap(self):
        _assert_canonical(FULL_SIM_CAP, 37, 3)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), N=st.integers(1, 3000), m=st.integers(0, 60))
    def test_random_instances(self, data, N, m):
        _assert_canonical(N, data.draw(st.integers(0, N)), m)


def _exact_cum(probs) -> np.ndarray:
    """Running sum of ``probs`` with each partial sum exact, then rounded once."""
    return np.array([float(c) for c in accumulate(map(Fraction, probs))])


def _two_valued_cum(N, size, pa, pb):
    return _exact_cum([pa] * size + [pb] * (N - size))


def _probe_uniforms(cum, size):
    """A grid over [0, 1), the largest uniform below 1, and uniforms within
    3 ulps of c / cum[-1] for the values c of cum next to cum[size - 1].

    Among them are uniforms with u * cum[-1] == c exactly, the ties between
    the comparison and searchsorted's side="right".
    """
    us = [*np.linspace(0.0, 1.0, 65)[:-1], np.nextafter(1.0, 0.0)]
    if cum[-1] > 0:
        for q in cum[max(size - 2, 0) : size + 1] / cum[-1]:
            below = above = q
            for _ in range(3):
                below, above = np.nextafter(below, 0.0), np.nextafter(above, 1.0)
                us += [below, above]
            us.append(q)
    return np.array([u for u in us if 0.0 <= u < 1.0])


def _edge(cum, size) -> Fraction:
    """cum[size-1]/cum[-1] as an exact fraction, 0 for size 0: the edge of
    searchsorted's decision over ``cum``."""
    return Fraction(cum[size - 1]) / Fraction(cum[-1]) if size else Fraction(0)


def _reference_decided_k(cum, size, u) -> int:
    """How many uniforms ``u`` sample an index below ``size`` by searchsorted over ``cum``."""
    index = np.minimum(np.searchsorted(cum, u * cum[-1], side="right"), len(cum) - 1)
    return int(np.count_nonzero(index < size))


def _decided_k(monkeypatch, N, size, amplitudes, u) -> int:
    """How many uniforms ``u`` run_discrimination decides K on, for the state (a, b).

    The other size of the instance gets the uniform state, which is normalized.
    """
    uniform = (1.0 / math.sqrt(N),) * 2
    monkeypatch.setattr(sv, "_canonical_state", lambda _, s, __: amplitudes if s == size else uniform)
    monkeypatch.setattr(sv, "_trial_uniforms", lambda *_: iter([u]))
    if size == 0:
        return run_discrimination(make_instance(N, 0, N), 1, len(u), seed=0).M.errors
    return len(u) - run_discrimination(make_instance(N, 0, size), 1, len(u), seed=0).K.errors


class TestDecidesK:
    """run_discrimination's u * total < marked decides as searchsorted(side="right")
    over the exact running sum of the squared state, each partial sum rounded once.

    Both decisions are monotone in u, so equal counts over the same uniforms
    mean equal decisions on each of them.
    """

    @pytest.mark.parametrize("N", [1, 2, 3, 8, 64, 129, 1031])
    @pytest.mark.parametrize(
        "a, b",  # amplitudes up to a common scale
        [
            (0.6, 0.05),
            (0.0, 0.25),  # flat run over the marked indices
            (0.25, 0.0),  # flat run over the rest
            (0.0, 0.0),
            (0.125, 0.125),  # dyadic at N = 64: total is 1 exactly
        ],
    )
    def test_matches_sample(self, monkeypatch, N, a, b):
        for size in sorted({0, 1, max(N - 1, 0), N}):
            norm = math.sqrt(size * a * a + (N - size) * b * b)
            if norm == 0.0:
                with pytest.raises(ValueError, match="not normalized"):
                    _decided_k(monkeypatch, N, size, (a, b), np.array([0.5]))
                continue
            amplitudes = (a / norm, b / norm)
            cum = _two_valued_cum(N, size, *(x * x for x in amplitudes))
            u = _probe_uniforms(cum, size)
            want = _reference_decided_k(cum, size, u)
            assert _decided_k(monkeypatch, N, size, amplitudes, u) == want

    @pytest.mark.parametrize("N, size, m", [(4096, 8, 39), (4096, 12, 39), (65536, 13, 1627)])
    def test_canonical_states_with_ties(self, monkeypatch, N, size, m):
        a, b = _canonical_state(N, size, m)
        cum = _two_valued_cum(N, size, a * a, b * b)
        u = _probe_uniforms(cum, size)
        assert np.any(u * cum[-1] == cum[size - 1])  # the probe hits a tie
        assert _decided_k(monkeypatch, N, size, (a, b), u) == _reference_decided_k(cum, size, u)

    def test_exact_ties_decide_m(self, monkeypatch):
        # a = b = 1/4 over 16: cum = 1/16, 2/16, ..., 1, so u = cum[size - 1] is a
        # tie, and searchsorted's side="right" puts the sample at index size, unmarked.
        cum = _exact_cum([0.0625] * 16)
        u = cum[:-1].copy()
        for size in range(1, 16):
            assert u[size - 1] * cum[-1] == cum[size - 1]
            assert _decided_k(monkeypatch, 16, size, (0.25, 0.25), u) == size - 1
            assert _reference_decided_k(cum, size, u) == size - 1


class TestMeasure:
    def test_basis_state_deterministic(self):
        state = np.zeros(8)
        state[5] = 1.0
        rng = np.random.default_rng(0)
        assert all(measure(state, rng) == 5 for _ in range(10))

    def test_seeded_fixture(self):
        # Frozen from the declared RNG contract; a change here means the
        # generator or the sub-seeding scheme changed.
        state = init_uniform(4)
        seq = [measure(state, trial_rng(7, t)) for t in range(12)]
        assert seq == [3, 1, 2, 3, 3, 2, 0, 2, 2, 1, 2, 3]

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            measure(np.array([0.5, 0.5]), np.random.default_rng(0))

    def test_empirical_distribution(self):
        # Chi-square style check: each bin within 4 sigma of its exact probability.
        state = np.sqrt(np.array([0.1, 0.2, 0.3, 0.4]))
        rng = np.random.default_rng(99)
        draws = 100_000
        counts = np.zeros(4)
        for _ in range(draws):
            counts[measure(state, rng)] += 1
        probs = state * state
        sigma = np.sqrt(draws * probs * (1 - probs))
        assert np.all(np.abs(counts - draws * probs) <= 4 * sigma)


def _assert_matches_trial_rng(seed, start, stop):
    got = np.concatenate(list(_trial_uniforms(seed, start, stop)))
    want = np.array([trial_rng(seed, t).random() for t in range(start, stop)])
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


class TestTrialUniforms:
    """The block-wise draw equals trial_rng(seed, t).random() bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32 + 1, 2**64 + 1])
    def test_fixed_seeds(self, seed):
        _assert_matches_trial_rng(seed, 0, 3000)

    @pytest.mark.parametrize(
        "start, stop",
        [
            (0, _TRIAL_BLOCK),  # ends on the first block boundary
            (_TRIAL_BLOCK - 40, _TRIAL_BLOCK + 1),  # one past it
            (3 * _TRIAL_BLOCK - 5, 3 * _TRIAL_BLOCK),
            (2**32 - 7, 2**32 + 1),  # spawn keys grow from one word to two
        ],
    )
    def test_block_edges(self, start, stop):
        _assert_matches_trial_rng(1001, start, stop)

    def test_blocks_are_aligned_and_bounded(self):
        sizes = [u.size for u in _trial_uniforms(3, 5, 2 * _TRIAL_BLOCK + 2)]
        assert sizes == [_TRIAL_BLOCK - 5, _TRIAL_BLOCK, 2]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**96), start=st.integers(0, 2**40), count=st.integers(1, 40))
    def test_random_seeds(self, seed, start, count):
        _assert_matches_trial_rng(seed, start, start + count)


def _record_state_evolutions(monkeypatch) -> list[tuple]:
    """Patch run_discrimination's state evolution to log its (N, size, m) calls."""
    evolved = []
    real = sv._canonical_state

    def recording(*args):
        evolved.append(args)
        return real(*args)

    monkeypatch.setattr(sv, "_canonical_state", recording)
    return evolved


def _binomial_tails(n: int, p: float, k: int) -> tuple[float, float]:
    """(P(X <= k), P(X >= k)) for X ~ Binomial(n, p), summed term by term."""
    log_n, log_p, log_q = math.lgamma(n + 1), math.log(p), math.log1p(-p)

    def pmf(i):
        log_choose = log_n - math.lgamma(i + 1) - math.lgamma(n - i + 1)
        return math.exp(log_choose + i * log_p + (n - i) * log_q)

    return math.fsum(map(pmf, range(k + 1))), math.fsum(map(pmf, range(k, n + 1)))


class TestRunDiscrimination:
    def test_uniforms_are_drawn_once_per_experiment(self, monkeypatch, capsys):
        # 2**14 + 5 trials are two blocks of the draw, taken once for both truths.
        blocks = []
        real = sv._uniforms

        def spy(seed_words, trials):
            blocks.append(trials.size)
            return real(seed_words, trials)

        monkeypatch.setattr(sv, "_uniforms", spy)
        argv = "experiment --N 4096 --M 8 --K 12 --l 79 --trials 16389 --seed 1001"
        assert cli.main(argv.split()) == 0
        report = json.loads(capsys.readouterr().out)
        assert blocks == [_TRIAL_BLOCK, 5]
        assert [report["outcomes"][t]["trials"] for t in "MK"] == [16389, 16389]

    def test_paper_scale_both_tails(self):
        # N = 2**40 on its certified rule (l = 46123): each truth's error count
        # lies inside both exact binomial tails of the closed-form rate.  Where
        # fail_M is 1.6e-5, 200000 trials expect 3.2 errors, too few for a
        # normal bound.  The seed was fixed before the experiment ran.
        inst = make_instance(2**40, 1_000_000, 1_081_600)
        l, trials = 46123, 200_000
        fails = failure_probabilities(l, angles_of(inst))
        a, b = _canonical_state(inst.N, inst.M, (l - 1) // 2)
        assert inst.M * a * a == pytest.approx(fails.fail_M, rel=1e-9)
        result = run_discrimination(inst, l, trials, seed=4040)
        for outcome, p in ((result.M, fails.fail_M), (result.K, fails.fail_K)):
            below, above = _binomial_tails(trials, p, outcome.errors)
            assert min(below, above) > 1e-4, (outcome, p, below, above)

    def test_exact_case_zero_errors(self):
        result = run_discrimination(make_instance(4, 0, 1), 3, 2000, seed=1)
        assert (result.trials, result.M.errors, result.K.errors) == (2000, 0, 0)

    def test_same_seed_reproducible(self):
        inst = make_instance(256, 4, 6)
        a = run_discrimination(inst, 21, 500, seed=42)
        b = run_discrimination(inst, 21, 500, seed=42)
        assert a == b

    def test_matches_closed_form_within_4_sigma(self):
        inst = make_instance(1024, 8, 12)
        from groverstop import check_applicability, construct_rule

        assert check_applicability(inst).all_ok
        rule = construct_rule(inst)
        fails = failure_probabilities(rule.l, angles_of(inst))
        trials = 4000
        result = run_discrimination(inst, rule.l, trials, seed=7)
        for outcome, p in ((result.M, fails.fail_M), (result.K, fails.fail_K)):
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(outcome.empirical_error - p) <= 4 * sigma + 1e-12

    def test_one_measurement_per_trial_stream(self):
        # Pins the RNG contract: trial t is one measure() of the canonical
        # state on trial_rng(seed, t), and nothing else draws from that stream.
        inst = make_instance(64, 2, 4)
        l, trials, seed = 7, 300, 5
        result = run_discrimination(inst, l, trials, seed)
        for outcome, size in ((result.M, inst.M), (result.K, inst.K)):
            state = simulate(inst.N, range(size), (l - 1) // 2)
            decided = ["K" if measure(state, trial_rng(seed, t)) < size else "M"
                       for t in range(trials)]
            wrong = sum(d != outcome.truth for d in decided)
            assert 0 < outcome.errors == wrong < trials

    def test_validation(self, monkeypatch):
        evolved = _record_state_evolutions(monkeypatch)
        inst = make_instance(256, 4, 6)
        with pytest.raises(ValueError):
            run_discrimination(inst, 4, 10, seed=0)
        with pytest.raises(ValueError):
            run_discrimination(inst, 3, 0, seed=0)
        # The cap is on m = (l-1)/2, not on N, and holds before any state is evolved.
        with pytest.raises(ValueError, match="exceeds the experiment cap"):
            run_discrimination(inst, 2 * STEP_CAP + 3, 10, seed=0)
        assert evolved == []
        big = make_instance(FULL_SIM_CAP * 2, 1, 2)
        assert run_discrimination(big, 3, 10, seed=0).trials == 10
        assert evolved == [(FULL_SIM_CAP * 2, 1, 1), (FULL_SIM_CAP * 2, 2, 1)]

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        N=st.integers(1, 2000),
        m=st.integers(0, 40),
        trials=st.integers(1, 400),
        seed=st.integers(0, 2**64),
    )
    def test_matches_searchsorted_reference(self, data, N, m, trials, seed):
        """Uniform by uniform, run_discrimination decides as searchsorted over
        numpy's running cumsum, except for a uniform between the two edges.

        Each decision is K iff u * c < d in floats, for searchsorted with
        d/c = cum[size-1]/cum[-1] and for run_discrimination with marked/total.
        The product rounds, so K holds below d/c * (1 - 2^-53) and fails at or
        above d/c; in between, u * c may round up to d.
        """
        K = data.draw(st.integers(1, N))
        inst = make_instance(N, data.draw(st.integers(0, K - 1)), K)
        u = np.array([trial_rng(seed, t).random() for t in range(trials)])
        result = run_discrimination(inst, 2 * m + 1, trials, seed)
        for outcome, size in ((result.M, inst.M), (result.K, inst.K)):
            probs = simulate(N, range(size), m) ** 2
            cum = np.cumsum(probs)
            index = np.minimum(np.searchsorted(cum, u * cum[-1], side="right"), N - 1)
            errors = outcome.errors
            decided_k = errors if outcome.truth == "M" else trials - errors
            # u * total < marked is monotone in u: K on the decided_k smallest uniforms.
            ours_k = u < np.append(np.sort(u), 1.0)[decided_k]
            assert np.count_nonzero(ours_k) == decided_k
            searched, exact = _edge(cum, size), _edge(_exact_cum(probs.tolist()), size)
            low, high = sorted((searched, exact))
            for v in u[ours_k != (index < size)].tolist():
                assert low * (1 - Fraction(1, 2**53)) <= Fraction(v) < high
            assert high - low <= Fraction(1.8e-10) * exact

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        N=st.integers(1, 2000),
        m=st.integers(0, 40),
        trials=st.integers(1, 400),
        seed=st.integers(0, 2**64),
    )
    def test_matches_exact_reference(self, data, N, m, trials, seed):
        K = data.draw(st.integers(1, N))
        inst = make_instance(N, data.draw(st.integers(0, K - 1)), K)
        u = np.array([trial_rng(seed, t).random() for t in range(trials)])
        result = run_discrimination(inst, 2 * m + 1, trials, seed)
        for outcome, size in ((result.M, inst.M), (result.K, inst.K)):
            cum = _exact_cum((simulate(N, range(size), m) ** 2).tolist())
            decided_k = _reference_decided_k(cum, size, u)
            errors = decided_k if outcome.truth == "M" else trials - decided_k
            assert outcome.errors == errors

    def test_no_n_long_allocation_at_the_cap(self):
        # One float64 array of N = FULL_SIM_CAP amplitudes is 32 MiB.
        inst = make_instance(FULL_SIM_CAP, 37, 41)
        tracemalloc.start()
        try:
            run_discrimination(inst, 10571, 2000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "7"])
    def test_bad_seed_rejected_before_simulation(self, monkeypatch, seed):
        evolved = _record_state_evolutions(monkeypatch)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            run_discrimination(make_instance(256, 4, 6), 3, 10, seed=seed)
        assert evolved == []
        run_discrimination(make_instance(256, 4, 6), 3, 10, seed=0)
        assert evolved == [(256, 4, 1), (256, 6, 1)]  # the patched function is the one in use

    def test_numpy_integer_seed(self):
        inst = make_instance(256, 4, 6)
        result = run_discrimination(inst, 21, 200, seed=np.uint64(42))
        assert result == run_discrimination(inst, 21, 200, seed=42)
        assert type(result.K.seed) is int and type(result.K.errors) is int

    @pytest.mark.parametrize("epsilon", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_epsilon_rejected_before_any_trial(self, monkeypatch, epsilon):
        evolved = _record_state_evolutions(monkeypatch)
        with pytest.raises(ValueError, match="epsilon"):
            run_discrimination(make_instance(256, 4, 6), 3, 10, seed=0, epsilon=epsilon)
        assert evolved == []
        run_discrimination(make_instance(256, 4, 6), 5, 10, seed=0, epsilon=0.1)
        assert evolved == [(256, 4, 2), (256, 6, 2)]  # the patched function is the one in use
