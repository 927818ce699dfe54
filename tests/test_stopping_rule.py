import math
from dataclasses import asdict

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from groverstop import (
    DegenerateM,
    angles_of,
    certify,
    check_applicability,
    construct_rule,
    make_instance,
    nearest_odd,
)
from groverstop.stopping_rule import StoppingRule


def sample_applicable(rng, count):
    """Rejection-sample triples with every applicability flag true."""
    out = []
    while len(out) < count:
        N = 1 << int(rng.integers(10, 21))
        M = int(rng.integers(4, min(N // 4, 5000)))
        K = int(M * (1.0 + rng.uniform(0.01, 0.5)))
        if K <= M or 2 * K >= N:
            continue
        inst = make_instance(N, M, K)
        if check_applicability(inst).all_ok:
            out.append(inst)
    return out


class TestNearestOdd:
    def test_examples(self):
        assert nearest_odd(0.6035) == 1
        assert nearest_odd(6283.2) == 6283
        assert nearest_odd(4.0) == 3  # tie breaks to the smaller odd

    @given(st.floats(min_value=0.0, max_value=1e12))
    def test_odd_and_within_one(self, x):
        r = nearest_odd(x)
        assert r % 2 == 1
        assert abs(r - x) <= 1.0


class TestApplicability:
    def test_small_counts_large_db(self):
        # gamma from a 50-digit evaluation of the arcsine ratio.
        mp.mp.dps = 50
        gamma = float(mp.asin(mp.sqrt(mp.mpf(2) / 10**6)) / mp.asin(mp.sqrt(mp.mpf(1) / 10**6)))
        app = check_applicability(make_instance(10**6, 1, 2))
        assert app.ordering_ok
        assert app.size_condition_ok == (math.sqrt(2) < 16 * (gamma - 1) ** 2 * 1000)
        assert app.size_condition_ok
        assert not app.gamma_small_ok  # gamma-1 ~ sqrt(2)-1 > 1/4
        assert app.epsilon_bound == pytest.approx(
            2 * math.sqrt(2) * (math.sqrt(2) - 1), abs=1e-12
        )

    def test_ordering_failure(self):
        app = check_applicability(make_instance(100, 1, 60))
        assert not app.ordering_ok
        assert not app.all_ok

    def test_m_zero_has_no_epsilon_bound(self):
        app = check_applicability(make_instance(4, 0, 1))
        assert app.epsilon_bound is None
        assert not app.all_ok


class TestGammaUpperBound:
    """epsilon_bound is twice the certified strict upper bound on gamma - 1."""

    def test_ratio_two(self):
        inst = make_instance(10**6, 1, 2)
        bound = check_applicability(inst).epsilon_bound / 2
        assert bound == pytest.approx(math.sqrt(2) * (math.sqrt(2) - 1), abs=1e-12)
        assert angles_of(inst).gamma - 1 < bound

    def test_square_ratio(self):
        inst = make_instance(100, 4, 9)
        bound = check_applicability(inst).epsilon_bound / 2
        assert bound == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
        assert angles_of(inst).gamma - 1 < bound

    def test_holds_on_random_valid_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            N = int(rng.integers(8, 1 << 18))
            K = int(rng.integers(2, N // 2))
            M = int(rng.integers(1, K))
            inst = make_instance(N, M, K)
            assert angles_of(inst).gamma - 1 < check_applicability(inst).epsilon_bound / 2
            epsilon_bound = 2 * math.sqrt(2) * (math.sqrt(K / M) - 1)
            assert check_applicability(inst).epsilon_bound == epsilon_bound


class TestConstructRule:
    def test_matches_high_precision_oracle(self):
        # Independent evaluation of 1/(4(gamma-1)) and 4*pi/theta_M at 50 digits.
        mp.mp.dps = 50
        thM = 2 * mp.asin(mp.sqrt(mp.mpf(1) / 10**6))
        thK = 2 * mp.asin(mp.sqrt(mp.mpf(2) / 10**6))
        gamma = thK / thM

        def oracle_nearest_odd(x):
            lower = 2 * mp.floor((x - 1) / 2) + 1
            return int(lower if x - lower <= lower + 2 - x else lower + 2)

        p_expect = oracle_nearest_odd(1 / (4 * (gamma - 1)))
        s_expect = oracle_nearest_odd(4 * mp.pi / thM)
        rule = construct_rule(make_instance(10**6, 1, 2))
        assert (rule.p, rule.s, rule.l) == (p_expect, s_expect, p_expect * s_expect)
        assert rule.m == (rule.l - 1) // 2

    def test_degenerate_m(self):
        with pytest.raises(DegenerateM):
            construct_rule(make_instance(4, 0, 1))

    def test_inequalities_on_applicable_sweep(self):
        rng = np.random.default_rng(17)
        for inst in sample_applicable(rng, 500):
            rule = construct_rule(inst)
            excess = angles_of(inst).gamma - 1
            assert rule.l == rule.p * rule.s
            assert rule.l % 2 == 1
            assert rule.residual_K < 2 * excess
            assert rule.residual_M < excess
            assert rule.l <= rule.l_bound
            assert rule.p <= 1.0 / (2.0 * excess)


class TestCertify:
    def test_default_epsilon_threshold_is_quarter(self):
        inst = make_instance(1 << 20, 740, 800)
        rule = construct_rule(inst)
        cert = certify(rule, inst, 1.0 / 12.0)
        assert cert.error_bound == pytest.approx(0.25, abs=1e-15)

    def test_applicable_instances_certify_at_own_epsilon(self):
        # The error bound sin^2(2*pi*eps) is only monotone up to eps = 1/4,
        # so use the natural eps = 2*(gamma-1) where that stays in range.
        rng = np.random.default_rng(23)
        checked = 0
        for inst in sample_applicable(rng, 400):
            excess = angles_of(inst).gamma - 1
            if 2 * excess > 0.25:
                continue
            cert = certify(construct_rule(inst), inst, epsilon=2 * excess)
            assert cert.certified, (inst, cert)
            checked += 1
        assert checked > 50

    def test_even_l_flagged(self):
        inst = make_instance(1 << 12, 8, 12)
        assert check_applicability(inst).all_ok
        rule = construct_rule(inst)
        broken = StoppingRule(
            p=rule.p,
            s=rule.s,
            l=rule.l + 1,
            m=rule.m,
            residual_K=rule.residual_K,
            residual_M=rule.residual_M,
            l_bound=rule.l_bound,
            m_bound=rule.m_bound,
        )
        assert not certify(broken, inst).l_odd
        assert not certify(broken, inst).certified

    def test_flags_are_serialized_fields(self):
        applicable = make_instance(65536, 12, 13)
        cases = [(applicable, True), (make_instance(4, 0, 1), False),
                 (make_instance(100, 1, 60), False)]
        for inst, all_ok in cases:
            app = asdict(check_applicability(inst))
            flags = app["ordering_ok"] and app["size_condition_ok"] and app["gamma_small_ok"]
            assert app["all_ok"] == flags == all_ok
        assert check_applicability(applicable).all_ok
        rule = construct_rule(applicable)
        broken = StoppingRule(**{**asdict(rule), "l": rule.l + 1})
        checks = ("l_odd", "residual_K_ok", "residual_M_ok", "epsilon_covers_gamma",
                  "fail_K_ok", "fail_M_ok", "l_within_bound")
        for r, certified in ((rule, True), (broken, False)):
            cert = asdict(certify(r, applicable))
            assert cert["certified"] == all(cert[name] for name in checks) == certified

    def test_certify_m_zero_refused(self):
        inst = make_instance(1 << 12, 8, 12)
        assert check_applicability(inst).all_ok
        rule = construct_rule(inst)
        with pytest.raises(DegenerateM):
            certify(rule, make_instance(4, 0, 1))

    @pytest.mark.parametrize("epsilon", [-1.0, 0.0, 1.0, math.nan, math.inf])
    def test_certify_rejects_bad_epsilon(self, epsilon):
        inst = make_instance(1 << 12, 8, 12)
        assert check_applicability(inst).all_ok
        with pytest.raises(ValueError, match="epsilon"):
            certify(construct_rule(inst), inst, epsilon)
