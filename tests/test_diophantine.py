import math

import numpy as np
import pytest

from groverstop import (
    KroneckerTarget,
    angles_of,
    certify,
    check_applicability,
    construct_rule,
    default_horizon,
    kronecker_search,
    make_instance,
    minimal_odd_l,
    multi_hypothesis_schedule,
    relaxed_score,
    strict_distance,
    torus_point,
)
from groverstop.diophantine import TorusPoint, circle_distance

from test_stopping_rule import sample_applicable


class TestTorusPoint:
    def test_first_orbit_point(self):
        pt = torus_point(1, angles_of(make_instance(4, 1, 2)))
        assert pt.x_K == pytest.approx(1 / 8, abs=1e-15)
        assert pt.x_M == pytest.approx(1 / 12, abs=1e-15)

    def test_exact_hit(self):
        pt = torus_point(3, angles_of(make_instance(4, 0, 1)))
        assert pt.x_K == pytest.approx(0.25, abs=1e-15)
        assert pt.x_M == 0.0

    def test_wrap_around(self):
        # theta_K = pi when K = N, so l=5 gives frac(5/4) = 1/4.
        pt = torus_point(5, angles_of(make_instance(4, 1, 4)))
        assert pt.x_K == pytest.approx(0.25, abs=1e-15)

    def test_even_l_rejected(self):
        with pytest.raises(ValueError):
            torus_point(2, angles_of(make_instance(4, 1, 2)))

    def test_coordinates_in_unit_interval(self):
        ang = angles_of(make_instance(997, 13, 19))
        for l in range(1, 400, 2):
            pt = torus_point(l, ang)
            assert 0.0 <= pt.x_K < 1.0
            assert 0.0 <= pt.x_M < 1.0


class TestStrictDistance:
    def test_target_itself(self):
        assert strict_distance(TorusPoint(l=1, x_K=0.25, x_M=0.0)) == 0.0

    def test_circle_metric(self):
        d = strict_distance(TorusPoint(l=1, x_K=0.99, x_M=0.5))
        assert d == pytest.approx(0.5, abs=1e-15)
        assert circle_distance(0.99, 0.25) == pytest.approx(0.26, abs=1e-12)

    def test_wrap_on_second_coordinate(self):
        delta = 1e-4
        d = strict_distance(TorusPoint(l=1, x_K=0.25 + delta, x_M=1.0 - delta))
        assert d == pytest.approx(delta, abs=1e-12)


class TestRelaxedScore:
    def test_exact_success(self):
        assert relaxed_score(3, angles_of(make_instance(4, 0, 1))) == pytest.approx(
            0.0, abs=1e-30
        )

    def test_closed_form(self):
        assert relaxed_score(1, angles_of(make_instance(4, 1, 2))) == pytest.approx(
            0.5, abs=1e-15
        )

    def test_strict_hit_implies_relaxed_bound(self):
        # 1e4 random (instance, l, eps) trials of the implication.
        rng = np.random.default_rng(41)
        triggered = 0
        for _ in range(10_000):
            N = int(rng.integers(4, 1 << 14))
            K = int(rng.integers(2, N // 2 + 1))
            M = int(rng.integers(1, K))
            l = 2 * int(rng.integers(0, 2000)) + 1
            eps = float(rng.uniform(0.001, 0.2))
            ang = angles_of(make_instance(N, M, K))
            if strict_distance(torus_point(l, ang)) <= eps:
                triggered += 1
                assert relaxed_score(l, ang) <= math.sin(2 * math.pi * eps) ** 2 + 1e-12
        assert triggered > 10


class TestMinimalOddL:
    def test_degenerate_pair(self):
        report = minimal_odd_l(angles_of(make_instance(4, 0, 1)), 0.01, 99)
        assert report.found and report.l == 3
        assert report.score == pytest.approx(0.0, abs=1e-30)

    def test_regression_value_large_db(self):
        # Fixture recorded from the exhaustive scan itself.
        inst = make_instance(10**6, 1, 2)
        rule = construct_rule(inst, best_effort=True)
        report = minimal_odd_l(angles_of(inst), 0.25, rule.l)
        assert report.found
        assert report.l == 2963
        assert report.l <= rule.l

    def test_horizon_exhaustion(self):
        report = minimal_odd_l(angles_of(make_instance(4, 0, 1)), 0.01, 1)
        assert not report.found
        assert report.l is None
        assert report.horizon == 1

    def test_minimality_rechecked_independently(self):
        inst = make_instance(1 << 14, 40, 55)
        ang = angles_of(inst)
        report = minimal_odd_l(ang, 0.25, default_horizon(inst))
        assert report.found
        for l in range(1, report.l, 2):
            assert relaxed_score(l, ang) > 0.25

    def test_parity(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            N = int(rng.integers(64, 1 << 14))
            K = int(rng.integers(2, N // 2))
            M = int(rng.integers(0, K))
            inst = make_instance(N, M, K)
            report = minimal_odd_l(angles_of(inst), 0.3, default_horizon(inst))
            if report.found:
                assert report.l % 2 == 1

    def test_consistency_with_constructive_rule(self):
        rng = np.random.default_rng(29)
        threshold = math.sin(2 * math.pi / 12) ** 2
        checked = 0
        for inst in sample_applicable(rng, 300):
            rule = construct_rule(inst)
            if not certify(rule, inst, 1.0 / 12.0).certified:
                continue
            report = minimal_odd_l(angles_of(inst), threshold, rule.l)
            assert report.found and report.l <= rule.l
            checked += 1
        assert checked > 0

    def test_threshold_domain(self):
        ang = angles_of(make_instance(4, 1, 2))
        with pytest.raises(ValueError):
            minimal_odd_l(ang, 0.0, 99)
        with pytest.raises(ValueError):
            minimal_odd_l(ang, 0.5, 0)


class TestKroneckerSearch:
    def test_single_frequency_exact(self):
        hit = kronecker_search(KroneckerTarget((0.25,), (0.25,), 0.01), 999)
        assert hit is not None
        assert (hit.l, hit.p_list) == (1, (0,))

    def test_degenerate_pair_exact(self):
        ang = angles_of(make_instance(4, 0, 1))
        four_pi = 4 * math.pi
        hit = kronecker_search(
            KroneckerTarget(
                (ang.theta_K / four_pi, ang.theta_M / four_pi), (0.25, 0.0), 1e-9
            ),
            999,
        )
        assert hit is not None and hit.l == 3

    def test_matches_second_implementation(self):
        # Double-implementation oracle: plain-python residual re-scan.
        rng = np.random.default_rng(31)
        for _ in range(20):
            xis = tuple(rng.uniform(0.0, 1.0, size=2))
            etas = (0.25, 0.0)
            eps = 0.05
            hit = kronecker_search(KroneckerTarget(xis, etas, eps), 2001)

            def residual_ok(l):
                for xi, eta in zip(xis, etas):
                    raw = l * xi - eta
                    if abs(raw - round(raw)) >= eps:
                        return False
                return True

            expected = next((l for l in range(1, 2002, 2) if residual_ok(l)), None)
            if expected is None:
                assert hit is None
            else:
                assert hit is not None and hit.l == expected
                assert hit.p_list == tuple(
                    round(hit.l * xi - eta) for xi, eta in zip(xis, etas)
                )

    def test_not_found(self):
        assert kronecker_search(KroneckerTarget((0.0,), (0.25,), 0.01), 999) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            KroneckerTarget((), (), 0.1)
        with pytest.raises(ValueError):
            KroneckerTarget((0.5,), (0.0,), 0.0)
        with pytest.raises(ValueError):
            KroneckerTarget((0.5,), (0.0,), math.nan)
        with pytest.raises(ValueError):
            KroneckerTarget((0.5,), (0.0,), math.inf)


class TestMultiHypothesisSchedule:
    def test_pair_reproduces_base_problem(self):
        tree = multi_hypothesis_schedule([8, 12], 4096, 0.25, 9999)
        assert tree.sizes == (8, 12)
        assert tree.depth == 1
        assert tree.marked_branch.is_leaf and tree.unmarked_branch.is_leaf

    def test_four_sizes_depth_two(self):
        tree = multi_hypothesis_schedule([0, 4, 8, 16], 256, 0.25, 100_001)
        assert tree.depth == 2
        assert tree.marked_branch.sizes == (0, 4)
        assert tree.unmarked_branch.sizes == (8, 16)

    def test_adversarial_close_sizes_unresolved(self):
        # Fixture found by scanning: no odd l <= 99 separates these within 1e-12.
        tree = multi_hypothesis_schedule([3, 4, 5], 64, 1e-12, 99)
        nodes = [tree, tree.marked_branch]
        assert any(not n.is_leaf and not n.resolved for n in nodes)
        # Unresolved nodes do not abort the build: leaves all present.
        assert tree.unmarked_branch.is_leaf
        assert tree.marked_branch.marked_branch.is_leaf

    def test_validation(self):
        with pytest.raises(ValueError):
            multi_hypothesis_schedule([4], 64, 0.25, 99)
        with pytest.raises(ValueError):
            multi_hypothesis_schedule([4, 4], 64, 0.25, 99)
        with pytest.raises(ValueError):
            multi_hypothesis_schedule([4, 40], 64, 0.25, 99)
        for threshold in (math.nan, 0.0, 1.0):
            with pytest.raises(ValueError, match="threshold"):
                multi_hypothesis_schedule([4, 8], 64, threshold, 99)
