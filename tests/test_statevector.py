import math
import operator
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groverstop import (
    angles_of,
    apply_oracle,
    failure_probabilities,
    grover_step,
    half_angle,
    init_uniform,
    make_instance,
    measure,
    run_discrimination,
    simulate,
    state_after,
)
from groverstop.statevector import (
    _TRIAL_BLOCK,
    FULL_SIM_CAP,
    _canonical_state,
    _cumulative,
    _decides_k,
    _evolver,
    _pairwise_sum,
    _sample,
    _trial_uniforms,
    trial_rng,
)


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


def _replayed_sum(x: np.ndarray) -> float:
    """np.add.reduce(x) as the replica computes it: identity 0.0 plus the pairwise sum."""
    terms = x.tolist()

    def part(lo, n):
        return _pairwise_sum(lo, n, terms.__getitem__, operator.add, part)

    return 0.0 + part(0, len(terms))


def _bits(*values) -> list[int]:
    return np.array(values, dtype=np.float64).view(np.uint64).tolist()


class TestPairwiseSumReplica:
    """The replica adds in numpy's order; a numpy that sums differently fails here."""

    LENGTHS = [
        *range(1, 10),
        15, 16, 17, 127, 128, 129, 135, 136, 137, 256, 257,
        *(2**k + d for k in range(9, 17) for d in (-1, 1)),
        100003,
    ]

    @pytest.mark.parametrize("n", LENGTHS)
    def test_matches_add_reduce(self, n):
        rng = np.random.default_rng(n)
        # Mixed signs over 16 decades: a different order rounds differently.
        x = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8, size=n)
        assert _bits(_replayed_sum(x)) == _bits(np.add.reduce(x))

    @pytest.mark.parametrize("n", [1, 7, 8, 129])
    def test_signed_zeros(self, n):
        x = np.full(n, -0.0)
        assert _bits(_replayed_sum(x)) == _bits(np.add.reduce(x)) == _bits(0.0)


def _assert_canonical(N, size, m):
    got = _canonical_state(N, size, m)
    want = simulate(N, range(size), m)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _boundaries(N):
    """Marked-set sizes on the edges of numpy's summation blocks for an N-amplitude sum."""
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


class TestEvolver:
    """The compiled sum program: built lazily, memoized in a bounded cache."""

    def test_import_compiles_nothing(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        code = (
            "import groverstop.cli, groverstop.statevector as sv; "
            "print(sv._evolver.cache_info().currsize)"
        )
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
            timeout=60,
        ).stdout
        assert out == "0\n"

    def test_cache_is_bounded(self):
        bound = _evolver.cache_info().maxsize
        assert bound is not None and 2 <= bound <= 64  # one experiment needs two
        for size in range(bound + 3):
            _evolver(1031, size)
        assert _evolver.cache_info().currsize == bound

    def test_one_function_per_instance(self):
        assert _evolver(1031, 5) is _evolver(1031, 5)
        assert _evolver(1031, 5) is not _evolver(1031, 6)


def _two_valued_cum(N, size, a, b):
    return np.cumsum(np.where(np.arange(N) < size, a * a, b * b))


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


class TestDecidesK:
    """One comparison against cum[size - 1] equals _sample(cum, u) < size."""

    @pytest.mark.parametrize("N", [1, 2, 3, 8, 129, 1031])
    @pytest.mark.parametrize(
        "a, b",
        [
            (0.6, 0.05),
            (0.0, 0.25),  # flat run over the marked indices
            (0.25, 0.0),  # flat run over the rest
            (0.0, 0.0),
            (0.125, 0.125),  # dyadic: cum[-1] is a power of two
        ],
    )
    def test_matches_sample(self, N, a, b):
        for size in sorted({0, 1, max(N - 1, 0), N}):
            cum = _two_valued_cum(N, size, a, b)
            u = _probe_uniforms(cum, size)
            np.testing.assert_array_equal(_decides_k(cum, size, u), _sample(cum, u) < size)

    @pytest.mark.parametrize("N, size, m", [(4096, 8, 39), (4096, 12, 39), (65536, 13, 1627)])
    def test_canonical_states_with_ties(self, N, size, m):
        cum = _cumulative(_canonical_state(N, size, m))
        u = _probe_uniforms(cum, size)
        assert np.any(u * cum[-1] == cum[size - 1])  # the probe hits a tie
        np.testing.assert_array_equal(_decides_k(cum, size, u), _sample(cum, u) < size)

    def test_exact_ties_decide_m(self):
        # cum = 1/16, 2/16, ..., 1: u = cum[size - 1] is a tie, and searchsorted's
        # side="right" puts the sample at index size, which is unmarked.
        cum = _two_valued_cum(16, 5, 0.25, 0.25)
        u = cum[:-1].copy()
        for size in range(1, 16):
            assert u[size - 1] * cum[-1] == cum[size - 1]
            np.testing.assert_array_equal(_decides_k(cum, size, u), np.arange(1, 16) < size)
            np.testing.assert_array_equal(_decides_k(cum, size, u), _sample(cum, u) < size)


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
    import groverstop.statevector as sv

    evolved = []
    real = sv._canonical_state

    def recording(*args):
        evolved.append(args)
        return real(*args)

    monkeypatch.setattr(sv, "_canonical_state", recording)
    return evolved


class TestRunDiscrimination:
    def test_exact_case_zero_errors(self):
        inst = make_instance(4, 0, 1)
        for truth in ("M", "K"):
            outcome = run_discrimination(inst, truth, 3, 2000, seed=1)
            assert outcome.errors == 0

    def test_same_seed_reproducible(self):
        inst = make_instance(256, 4, 6)
        a = run_discrimination(inst, "K", 21, 500, seed=42)
        b = run_discrimination(inst, "K", 21, 500, seed=42)
        assert a == b

    def test_matches_closed_form_within_4_sigma(self):
        inst = make_instance(1024, 8, 12)
        from groverstop import construct_rule

        rule = construct_rule(inst)
        fails = failure_probabilities(rule.l, angles_of(inst))
        trials = 4000
        for truth, p in (("M", fails.fail_M), ("K", fails.fail_K)):
            outcome = run_discrimination(inst, truth, rule.l, trials, seed=7)
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(outcome.empirical_error - p) <= 4 * sigma + 1e-12

    def test_one_measurement_per_trial_stream(self):
        # Pins the RNG contract: trial t is one measure() of the canonical
        # state on trial_rng(seed, t), and nothing else draws from that stream.
        inst = make_instance(64, 2, 4)
        l, trials, seed = 7, 300, 5
        for truth, size in (("M", inst.M), ("K", inst.K)):
            state = simulate(inst.N, range(size), (l - 1) // 2)
            decided = ["K" if measure(state, trial_rng(seed, t)) < size else "M"
                       for t in range(trials)]
            wrong = sum(d != truth for d in decided)
            outcome = run_discrimination(inst, truth, l, trials, seed)
            assert 0 < outcome.errors == wrong < trials

    def test_validation(self):
        inst = make_instance(256, 4, 6)
        with pytest.raises(ValueError):
            run_discrimination(inst, "M", 4, 10, seed=0)
        with pytest.raises(ValueError):
            run_discrimination(inst, "M", 3, 0, seed=0)
        with pytest.raises(ValueError):
            run_discrimination(inst, "X", 3, 10, seed=0)
        big = make_instance(FULL_SIM_CAP * 2, 1, 2)
        with pytest.raises(ValueError):
            run_discrimination(big, "M", 3, 10, seed=0)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        N=st.integers(1, 2000),
        m=st.integers(0, 40),
        trials=st.integers(1, 400),
        seed=st.integers(0, 2**64),
    )
    def test_matches_searchsorted_reference(self, data, N, m, trials, seed):
        K = data.draw(st.integers(1, N))
        inst = make_instance(N, data.draw(st.integers(0, K - 1)), K)
        l = 2 * m + 1
        for truth, size in (("M", inst.M), ("K", inst.K)):
            cum = np.cumsum(simulate(N, range(size), m) ** 2)
            u = np.array([trial_rng(seed, t).random() for t in range(trials)])
            index = np.minimum(np.searchsorted(cum, u * cum[-1], side="right"), N - 1)
            decided_k = int(np.count_nonzero(index < size))
            errors = decided_k if truth == "M" else trials - decided_k
            assert run_discrimination(inst, truth, l, trials, seed).errors == errors

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "7"])
    def test_bad_seed_rejected_before_simulation(self, monkeypatch, seed):
        evolved = _record_state_evolutions(monkeypatch)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            run_discrimination(make_instance(256, 4, 6), "M", 3, 10, seed=seed)
        assert evolved == []
        run_discrimination(make_instance(256, 4, 6), "M", 3, 10, seed=0)
        assert evolved == [(256, 4, 1)]  # the patched function is the one in use

    def test_numpy_integer_seed(self):
        inst = make_instance(256, 4, 6)
        outcome = run_discrimination(inst, "K", 21, 200, seed=np.uint64(42))
        assert outcome == run_discrimination(inst, "K", 21, 200, seed=42)
        assert type(outcome.seed) is int and type(outcome.errors) is int

    @pytest.mark.parametrize("epsilon", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_epsilon_rejected_before_any_trial(self, monkeypatch, epsilon):
        evolved = _record_state_evolutions(monkeypatch)
        with pytest.raises(ValueError, match="epsilon"):
            run_discrimination(make_instance(256, 4, 6), "M", 3, 10, seed=0, epsilon=epsilon)
        assert evolved == []
        run_discrimination(make_instance(256, 4, 6), "K", 5, 10, seed=0, epsilon=0.1)
        assert evolved == [(256, 6, 2)]  # the patched function is the one in use
