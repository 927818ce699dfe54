import math
from dataclasses import fields

import numpy as np
import pytest

from groverstop import (
    Applicability,
    PremiseViolated,
    angles_of,
    check_applicability,
    construct_rule,
    make_instance,
    pad_for_ratio,
)
from groverstop.core_model import rotation_angles
from groverstop.transforms import applicability_flags, l_bound_of, minimal_padding
from oracles import reduce_common_divisor


class TestReduceCommonDivisor:
    def test_examples(self):
        assert reduce_common_divisor(2, 4, 8) == (1, 2, 4)
        assert reduce_common_divisor(0, 3, 9) == (0, 1, 3)
        assert reduce_common_divisor(3, 5, 7) == (3, 5, 7)

    def test_angle_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            N = int(rng.integers(2, 1 << 14))
            K = int(rng.integers(1, N + 1))
            M = int(rng.integers(0, K))
            g = int(rng.integers(1, 20))
            m0, k0, n0 = reduce_common_divisor(g * M, g * K, g * N)
            a = angles_of(make_instance(g * N, g * M, g * K))
            b = angles_of(make_instance(n0, m0, k0))
            assert abs(a.theta_M - b.theta_M) <= 1e-15
            assert abs(a.theta_K - b.theta_K) <= 1e-15


class TestPadForRatio:
    def test_doubling_case_forced_arithmetic(self):
        # r+1 > sqrt(2)*12 = 16.97..., so r = 16.
        padded = pad_for_ratio(1, 1 << 20, a=2.0, epsilon=1 / 12)
        assert padded.r == 16
        assert padded.M_prime == 17
        assert padded.K_prime == 18
        assert padded.N_prime == 17 * (1 << 20)

    def test_scales_with_m(self):
        padded = pad_for_ratio(5, 1 << 22, a=2.0, epsilon=1 / 12)
        assert (padded.M_prime, padded.K_prime) == (17 * 5, 18 * 5)

    def test_premise_violated(self):
        with pytest.raises(PremiseViolated):
            pad_for_ratio(100, 400, a=2.0, epsilon=1 / 12)

    def test_chain_certifies(self):
        padded = pad_for_ratio(1, 1 << 20, a=2.0, epsilon=1 / 12)
        assert padded.gamma_gap_ok
        assert padded.size_condition_ok
        assert check_applicability(padded.padded).all_ok
        assert padded.m_bound_padded <= 5 * 17 * math.sqrt(1 << 20)

    def test_ratio_strictly_decreasing_in_r(self):
        ratios = [(r + 2) / (r + 1) for r in range(0, 40)]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        padded = pad_for_ratio(1, 1 << 20, a=2.0, epsilon=1 / 12)
        assert 1.0 < padded.K_prime / padded.M_prime < 2.0

    def test_general_ratio(self):
        padded = pad_for_ratio(1, 1 << 22, a=3.0, epsilon=1 / 12)
        assert padded.r == minimal_padding(3.0, 1 / 12)
        assert padded.K_prime == padded.r + 3
        assert 1.0 < padded.K_prime / padded.M_prime < 3.0
        assert padded.gamma_gap_ok

    def test_size_premise_grid(self):
        # Whenever the premise holds, the padded triple passes the size condition.
        for N_exp in (18, 20, 22):
            N = 1 << N_exp
            for M in (1, 2, 4, 8):
                if math.sqrt(M / N) >= (2 / (3 * 12)) ** 2:
                    continue
                padded = pad_for_ratio(M, N, a=2.0, epsilon=1 / 12)
                assert padded.size_condition_ok

    def test_validation(self):
        with pytest.raises(ValueError):
            pad_for_ratio(0, 100)
        with pytest.raises(ValueError):
            pad_for_ratio(1, 100, a=1.0)
        with pytest.raises(ValueError):
            pad_for_ratio(3, 1 << 20, a=1.5)  # a*M not integral
        with pytest.raises(ValueError):
            pad_for_ratio(1, 100, epsilon=1.5)
        with pytest.raises(ValueError, match=r"need M < N <= 2\*\*48"):
            pad_for_ratio(10**400, 4)  # M too large for a double

    def test_non_finite_ratio_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            pad_for_ratio(1, 1 << 20, a=math.inf)

    def test_overflowing_ratio_rejected(self):
        # a is finite, a*M is not: round() would raise OverflowError.
        with pytest.raises(ValueError, match=r"a\*M must be finite, got a=1e\+308, M=10"):
            pad_for_ratio(10, 1 << 20, a=1e308)


class TestMinimalPadding:
    # sqrt(2)/16 and sqrt(2)/8 make the target exactly 16 at a = 2 and a = 3,
    # where r = 15 has r + 1 = target, which does not exceed it.
    @pytest.mark.parametrize(
        "a", [1.0 + 2.0**-30, 1.25, 1.5, 2.0, 3.0, 4.5, 17.0, 100.0]
    )
    @pytest.mark.parametrize(
        "epsilon", [0.01, 0.02, 1 / 12, 0.2, 0.2499, math.sqrt(2.0) / 16, math.sqrt(2.0) / 8]
    )
    def test_least_r_over_target(self, a, epsilon):
        target = (a - 1.0) * math.sqrt(2.0) / epsilon
        r = 0
        while not r + 1 > target:
            r += 1
        assert minimal_padding(a, epsilon) == r

    def test_integral_target(self):
        assert minimal_padding(2.0, math.sqrt(2.0) / 16) == 16
        assert minimal_padding(3.0, math.sqrt(2.0) / 8) == 16


class TestIterationBound:
    def test_degenerate_pair(self):
        assert l_bound_of(4, 0, 1) == pytest.approx(8.0, abs=1e-12)

    def test_ratio_two(self):
        N = 10**6
        rule = construct_rule(make_instance(N, 1, 2))
        assert rule.l_bound == l_bound_of(N, 1, 2)
        assert rule.l_bound == pytest.approx(
            4 * math.sqrt(N) / (math.sqrt(2) - 1), rel=1e-12
        )
        assert rule.m_bound == pytest.approx(
            2 * math.sqrt(N) / (math.sqrt(2) - 1), rel=1e-12
        )

    def test_bound_monotone_in_gap(self):
        N = 1 << 16
        prev = None
        for K in range(2, 100):
            l_bound = l_bound_of(N, 1, K)
            if prev is not None:
                assert l_bound < prev
            prev = l_bound


class TestApplicabilityFlags:
    TRIPLES = [
        (4096, 8, 12), (4096, 0, 12), (4096, 8, 2047), (4096, 8, 2048), (4096, 2047, 2048),
        (1048576, 740, 800), (1000000, 1, 2), (65536, 12, 13),
    ]

    def test_premises_by_applicability_field(self):
        # On columns, each premise equals the one-instance report, and the
        # ordering premise the instance's strict_regime.
        N, M, K = (np.array(column, dtype=np.int64) for column in zip(*self.TRIPLES))
        flags = applicability_flags(N, K, rotation_angles(N, M, K).gamma)
        premises = {f.name for f in fields(Applicability)} - {"epsilon_bound", "all_ok"}
        assert set(flags) == premises
        for i, triple in enumerate(self.TRIPLES):
            instance = make_instance(*triple)
            app = check_applicability(instance)
            assert {name: bool(flag[i]) for name, flag in flags.items()} == {
                name: getattr(app, name) for name in premises
            }
            assert app.ordering_ok == instance.strict_regime
        assert {len(set(flag.tolist())) for flag in flags.values()} == {2}
