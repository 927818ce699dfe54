import math

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
from groverstop.statevector import _TRIAL_BLOCK, FULL_SIM_CAP, _trial_uniforms, trial_rng


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

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "7"])
    def test_bad_seed_rejected_before_simulation(self, monkeypatch, seed):
        import groverstop.statevector as sv

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulate ran before the seed was validated")

        monkeypatch.setattr(sv, "simulate", no_simulation)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            run_discrimination(make_instance(256, 4, 6), "M", 3, 10, seed=seed)

    def test_numpy_integer_seed(self):
        inst = make_instance(256, 4, 6)
        outcome = run_discrimination(inst, "K", 21, 200, seed=np.uint64(42))
        assert outcome == run_discrimination(inst, "K", 21, 200, seed=42)
        assert type(outcome.seed) is int and type(outcome.errors) is int

    @pytest.mark.parametrize("epsilon", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_epsilon_rejected_before_any_trial(self, monkeypatch, epsilon):
        import groverstop.statevector as sv

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulate ran before epsilon was validated")

        monkeypatch.setattr(sv, "simulate", no_simulation)
        with pytest.raises(ValueError, match="epsilon"):
            run_discrimination(make_instance(256, 4, 6), "M", 3, 10, seed=0, epsilon=epsilon)
