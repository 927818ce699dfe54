import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from groverstop import (
    angles_of,
    chebyshev_T,
    chebyshev_residuals,
    construct_rule,
    error_bound,
    failure_kernel,
    failure_probabilities,
    half_angle,
    make_instance,
    state_after,
)


class TestMakeInstance:
    def test_degenerate_pair_is_strict_regime(self):
        inst = make_instance(4, 0, 1)
        assert (inst.N, inst.M, inst.K) == (4, 0, 1)
        assert inst.strict_regime

    def test_large_k_flagged_not_rejected(self):
        inst = make_instance(100, 1, 60)
        assert not inst.strict_regime

    def test_ordering_violation_rejected(self):
        with pytest.raises(ValueError):
            make_instance(4, 2, 1)

    def test_k_above_n_rejected(self):
        with pytest.raises(ValueError):
            make_instance(4, 1, 5)

    def test_zero_n_rejected(self):
        with pytest.raises(ValueError):
            make_instance(0, 0, 1)

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            make_instance(4.0, 0, 1)

    def test_float64_envelope_enforced(self):
        assert make_instance(2**48, 1, 2).N == 2**48
        with pytest.raises(ValueError, match="envelope"):
            make_instance(2**48 + 1, 1, 2)
        with pytest.raises(ValueError, match="envelope"):
            make_instance(2**60, 1, 2)


class TestHalfAngle:
    def test_closed_forms(self):
        assert half_angle(1, 4) == pytest.approx(math.pi / 6, abs=1e-15)
        assert half_angle(0, 16) == 0.0
        assert half_angle(16, 16) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_count_above_n_rejected(self):
        with pytest.raises(ValueError):
            half_angle(5, 4)

    def test_strictly_increasing_in_count(self):
        N = 1 << 12
        values = [half_angle(c, N) for c in range(N + 1)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestAngles:
    def test_n4_closed_form(self):
        ang = angles_of(make_instance(4, 1, 2))
        assert ang.theta_M == pytest.approx(math.pi / 3, abs=1e-15)
        assert ang.theta_K == pytest.approx(math.pi / 2, abs=1e-15)
        assert ang.gamma == pytest.approx(1.5, abs=1e-15)

    def test_m_zero_gamma_is_sentinel(self):
        ang = angles_of(make_instance(4, 0, 1))
        assert ang.theta_M == 0.0
        assert ang.theta_K == pytest.approx(math.pi / 3, abs=1e-15)
        assert ang.gamma is None

    def test_scale_invariance_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            N = int(rng.integers(2, 1 << 16))
            K = int(rng.integers(1, N + 1))
            M = int(rng.integers(0, K))
            n = int(rng.integers(2, 64))
            a = angles_of(make_instance(N, M, K))
            b = angles_of(make_instance(n * N, n * M, n * K))
            assert a == b


class TestStateAfter:
    def test_identity_case(self):
        s = state_after(0, math.pi / 3)
        assert s.alpha_amp == pytest.approx(math.sqrt(3) / 2, abs=1e-15)
        assert s.beta_amp == pytest.approx(0.5, abs=1e-15)

    def test_single_iteration_exact_hit(self):
        s = state_after(1, math.pi / 3)
        assert s.alpha_amp == pytest.approx(0.0, abs=1e-15)
        assert s.beta_amp == pytest.approx(1.0, abs=1e-15)

    def test_direct_substitution(self):
        s = state_after(2, math.pi / 2)
        assert s.alpha_amp == pytest.approx(math.cos(5 * math.pi / 4), abs=1e-15)
        assert s.beta_amp == pytest.approx(math.sin(5 * math.pi / 4), abs=1e-15)

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0.0, max_value=math.pi),
    )
    def test_normalized(self, m, theta):
        s = state_after(m, theta)
        assert abs(s.alpha_amp**2 + s.beta_amp**2 - 1.0) <= 1e-12


class TestFailureProbabilities:
    def test_exact_zeros(self):
        pair = failure_probabilities(3, angles_of(make_instance(4, 0, 1)))
        assert pair.fail_K == pytest.approx(0.0, abs=1e-30)
        assert pair.fail_M == 0.0

    def test_closed_form(self):
        pair = failure_probabilities(1, angles_of(make_instance(4, 1, 2)))
        assert pair.fail_K == pytest.approx(0.5, abs=1e-15)
        assert pair.fail_M == pytest.approx(0.25, abs=1e-15)

    def test_even_l_warns(self):
        with pytest.warns(UserWarning):
            failure_probabilities(2, angles_of(make_instance(4, 1, 2)))

    def test_constructed_rule_matches_high_precision(self):
        # Oracle: same trig expressions at 50 decimal digits.
        inst = make_instance(10**6, 1, 2)
        rule = construct_rule(inst, best_effort=True)
        pair = failure_probabilities(rule.l, angles_of(inst))
        mp.mp.dps = 50
        thM = 2 * mp.asin(mp.sqrt(mp.mpf(1) / 10**6))
        thK = 2 * mp.asin(mp.sqrt(mp.mpf(2) / 10**6))
        assert pair.fail_K == pytest.approx(float(mp.cos(rule.l * thK / 2) ** 2), abs=1e-10)
        assert pair.fail_M == pytest.approx(float(mp.sin(rule.l * thM / 2) ** 2), abs=1e-10)
        eps = min(2 * math.sqrt(2) * (math.sqrt(2) - 1), 0.25)
        assert pair.fail_K <= math.sin(2 * math.pi * eps) ** 2
        assert pair.fail_M <= math.sin(2 * math.pi * eps) ** 2

    def test_consistency_with_state_after(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            N = int(rng.integers(4, 1 << 16))
            K = int(rng.integers(2, N // 2 + 1))
            M = int(rng.integers(1, K))
            m = int(rng.integers(0, 500))
            l = 2 * m + 1
            ang = angles_of(make_instance(N, M, K))
            pair = failure_probabilities(l, ang)
            assert pair.fail_K == pytest.approx(
                state_after(m, ang.theta_K).alpha_amp ** 2, abs=1e-12
            )
            assert pair.fail_M == pytest.approx(
                state_after(m, ang.theta_M).beta_amp ** 2, abs=1e-12
            )


class TestChebyshev:
    def test_base_cases(self):
        assert chebyshev_T(0, 0.7) == 1.0
        assert chebyshev_T(1, 0.7) == pytest.approx(0.7, abs=1e-15)

    @pytest.mark.parametrize("x", [-1.0, 0.0, 0.5, 1.0])
    def test_degree_two_closed_form(self, x):
        assert chebyshev_T(2, x) == pytest.approx(2 * x * x - 1, abs=1e-15)

    def test_degree_three(self):
        assert chebyshev_T(3, 0.5) == pytest.approx(-1.0, abs=1e-15)

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            chebyshev_T(2, 1.0001)

    def test_residuals_trivial_cases(self):
        r1, r2 = chebyshev_residuals(1, make_instance(4, 1, 2))
        assert r1 <= 1e-15 and r2 <= 1e-15
        r1, r2 = chebyshev_residuals(3, make_instance(4, 0, 1))
        assert r1 <= 1e-15 and r2 <= 1e-15

    def test_residuals_random_scan(self):
        # Double-evaluation oracle: trig Chebyshev form vs direct cosine of l*theta.
        rng = np.random.default_rng(3)
        for _ in range(300):
            N = int(rng.integers(4, 1 << 20))
            K = int(rng.integers(2, N // 2 + 1))
            M = int(rng.integers(1, K))
            l = int(rng.integers(0, 1001))
            r1, r2 = chebyshev_residuals(l, make_instance(N, M, K))
            assert r1 <= 1e-9 and r2 <= 1e-9


class TestIntegerTypes:
    def test_numpy_integers_accepted_as_int(self):
        inst = make_instance(np.int64(1024), np.int32(8), np.uint16(12))
        assert (inst.N, inst.M, inst.K) == (1024, 8, 12)
        assert all(type(v) is int for v in (inst.N, inst.M, inst.K))

    @pytest.mark.parametrize("bad", [True, np.bool_(True), 4.0, "4", None])
    def test_bool_and_non_integers_rejected(self, bad):
        with pytest.raises(TypeError):
            make_instance(1024, bad, 12)


class TestErrorBound:
    def test_worked_threshold(self):
        assert error_bound(1.0 / 12.0) == pytest.approx(0.25, abs=1e-15)

    def test_matches_formula(self):
        for eps in (0.01, 0.1, 0.3, 0.9):
            assert error_bound(eps) == math.sin(2.0 * math.pi * eps) ** 2

    @pytest.mark.parametrize("bad", [-1.0, 0.0, 1.0, 1.5, math.nan, math.inf, -math.inf])
    def test_rejects_out_of_range_and_non_finite(self, bad):
        with pytest.raises(ValueError):
            error_bound(bad)


class TestFailureKernel:
    def test_scalar_gives_python_floats_equal_to_libm(self):
        ang = angles_of(make_instance(65536, 12, 13))
        for l in (1, 3, 79, 3255, 999_999):
            fail_K, fail_M = failure_kernel(l, ang)
            assert type(fail_K) is float and type(fail_M) is float
            c, s = math.cos(0.5 * l * ang.theta_K), math.sin(0.5 * l * ang.theta_M)
            assert fail_K == c * c
            assert fail_M == s * s

    def test_array_matches_scalar_closely(self):
        ang = angles_of(make_instance(4096, 8, 12))
        ls = np.arange(1, 2001, 2, dtype=np.float64)
        fail_K, fail_M = failure_kernel(ls, ang)
        assert fail_K.shape == fail_M.shape == ls.shape
        for i in (0, 17, 499, 999):
            pair = failure_probabilities(int(ls[i]), ang)
            assert fail_K[i] == pytest.approx(pair.fail_K, abs=1e-15)
            assert fail_M[i] == pytest.approx(pair.fail_M, abs=1e-15)

    def test_both_paths_square_by_multiplication(self):
        # One squaring: a float's pow(c, 2) and c * c differ in the last ulp
        # on about 1 argument in 1000, so a pow on either path would show.
        rng = np.random.default_rng(71)
        for _ in range(40):
            N = int(rng.integers(4, 1 << 48))
            K = int(rng.integers(1, N + 1))
            ang = angles_of(make_instance(N, int(rng.integers(0, K)), K))
            ls = 2 * rng.integers(0, 5 * 10**7, size=100) + 1
            for l in ls.tolist():
                c, s = math.cos(0.5 * l * ang.theta_K), math.sin(0.5 * l * ang.theta_M)
                assert failure_kernel(l, ang) == (c * c, s * s)
            c, s = np.cos(0.5 * ls * ang.theta_K), np.sin(0.5 * ls * ang.theta_M)
            fail_K, fail_M = failure_kernel(ls, ang)
            assert fail_K.tobytes() == (c * c).tobytes()
            assert fail_M.tobytes() == (s * s).tobytes()

    def test_even_l_does_not_warn(self, recwarn):
        failure_kernel(2, angles_of(make_instance(4, 1, 2)))
        assert not recwarn.list
