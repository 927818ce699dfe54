import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from groverstop import (
    angles_of,
    certify,
    check_applicability,
    construct_rule,
    default_horizon,
    failure_kernel,
    make_instance,
    minimal_odd_l,
    orbit_coords,
    target_distance,
)
from groverstop.core_model import GroverAngles
from groverstop import diophantine
from groverstop.cli import TableRow, build_table_rows, main
from groverstop.diophantine import (
    _FIRST_CHUNK,
    HORIZON_CAP,
    SCAN_CHUNK,
    _block_hits,
    _chunk_scores,
    _work_arrays,
    circle_distance,
    scan_rows,
)

from test_stopping_rule import sample_applicable


class TestTorusPoint:
    """``orbit_coords`` at one odd l, a Python int."""

    def test_first_orbit_point(self):
        x_K, x_M = orbit_coords(1, angles_of(make_instance(4, 1, 2)))
        assert x_K == pytest.approx(1 / 8, abs=1e-15)
        assert x_M == pytest.approx(1 / 12, abs=1e-15)

    def test_exact_hit(self):
        x_K, x_M = orbit_coords(3, angles_of(make_instance(4, 0, 1)))
        assert x_K == pytest.approx(0.25, abs=1e-15)
        assert x_M == 0.0

    def test_wrap_around(self):
        # theta_K = pi when K = N, so l=5 gives frac(5/4) = 1/4.
        x_K, _ = orbit_coords(5, angles_of(make_instance(4, 1, 4)))
        assert x_K == pytest.approx(0.25, abs=1e-15)

    def test_coordinates_in_unit_interval(self):
        ang = angles_of(make_instance(997, 13, 19))
        for l in range(1, 400, 2):
            x_K, x_M = orbit_coords(l, ang)
            assert 0.0 <= x_K < 1.0
            assert 0.0 <= x_M < 1.0


class TestStrictDistance:
    """``target_distance`` of one point."""

    def test_target_itself(self):
        assert target_distance(0.25, 0.0) == 0.0

    def test_circle_metric(self):
        d = target_distance(0.99, 0.5)
        assert d == pytest.approx(0.5, abs=1e-15)
        assert circle_distance(0.99, 0.25) == pytest.approx(0.26, abs=1e-12)

    def test_wrap_on_second_coordinate(self):
        delta = 1e-4
        d = target_distance(0.25 + delta, 1.0 - delta)
        assert d == pytest.approx(delta, abs=1e-12)


class TestRelaxedScore:
    """The worst failure probability at l, ``orbit``'s relaxed_score column."""

    def test_exact_success(self):
        score = max(failure_kernel(3, angles_of(make_instance(4, 0, 1))))
        assert score == pytest.approx(0.0, abs=1e-30)

    def test_closed_form(self):
        score = max(failure_kernel(1, angles_of(make_instance(4, 1, 2))))
        assert score == pytest.approx(0.5, abs=1e-15)

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
            if target_distance(*orbit_coords(l, ang)) <= eps:
                triggered += 1
                assert max(failure_kernel(l, ang)) <= math.sin(2 * math.pi * eps) ** 2 + 1e-12
        assert triggered > 10


class TestOrbitArrays:
    def test_array_coords_match_scalar_bit_for_bit(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            N = int(rng.integers(64, 1 << 40))
            K = int(rng.integers(2, N // 2))
            ang = angles_of(make_instance(N, int(rng.integers(1, K)), K))
            ls = 1 + 2 * rng.integers(0, HORIZON_CAP // 2, size=200)
            x_K, x_M = orbit_coords(ls, ang)
            dist = target_distance(x_K, x_M)
            for i, l in enumerate(ls.tolist()):
                point = orbit_coords(l, ang)
                assert (x_K[i], x_M[i]) == point
                assert dist[i] == target_distance(*point)


class TestStrictScoreIsOrbitDistance:
    """A strict scan scores the very doubles ``orbit`` prints."""

    def test_chunk_scores_equal_target_distance_of_orbit_coords(self):
        angles = angles_of(make_instance(1 << 20, 37, 41))
        ls = np.arange(1, 2 * 10**6, 2, dtype=np.float64)
        expected = target_distance(*orbit_coords(ls, angles))
        assert _chunk_scores(ls, angles, "strict").tobytes() == expected.tobytes()

    def test_search_score_equals_orbit_strict_distance(self, capsys):
        # The threshold is l = 11's strict score when l*(theta/4pi) was rounded
        # instead of (l*theta)/4pi; the orbit's own distance is one ulp lower.
        instance = ["--N", "4096", "--M", "8", "--K", "12"]
        tol = "0.15519401563088833"
        assert main(["search", *instance, "--tol", tol, "--mode", "strict"]) == 0
        report = json.loads(capsys.readouterr().out)["search"]
        assert main(["orbit", *instance, "--l-max", "11"]) == 0
        row = capsys.readouterr().out.splitlines()[-1].split(",")
        assert report["l"] == int(row[0]) == 11
        assert report["score"] == float(row[3])


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
            assert max(failure_kernel(l, ang)) > 0.25

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


def _chunk_starts() -> list[int]:
    """Index, in the sequence of scanned l, of the first l of each chunk.

    Up to and including the first chunk that has grown to SCAN_CHUNK.
    """
    starts, width = [0], _FIRST_CHUNK
    while width < SCAN_CHUNK:
        starts.append(starts[-1] + width)
        width *= 2
    return starts


# Last l of the first chunk, first l of the second, first l of the first
# SCAN_CHUNK-wide chunk.
HIT_INDICES = (_chunk_starts()[1] - 1, _chunk_starts()[1], _chunk_starts()[-1])
# Last l of the first, the second and the last narrower-than-SCAN_CHUNK chunk.
END_INDICES = (_chunk_starts()[1] - 1, _chunk_starts()[2] - 1, _chunk_starts()[-1] - 1)


def _reference_scan(angles, threshold, horizon, mode):
    """Whole-range scan in one array: (l, score) of the first hit, or None."""
    ls = np.arange(1, horizon + 1, 2, dtype=np.float64)
    scores = _chunk_scores(ls, angles, mode)
    hits = np.nonzero(scores <= threshold)[0]
    return (int(ls[hits[0]]), scores[hits[0]]) if hits.size else None


def _hit_at(L: int) -> GroverAngles:
    # cos^2(l*theta_K/2) vanishes at l = L and, over odd l <= L, nowhere else
    # within (pi/L)^2; the strict orbit point reaches (1/4, 0) at l = L.
    return GroverAngles(theta_M=0.0, theta_K=math.pi / L, gamma=None)


STRICT_AND_RELAXED = (("relaxed", 1e-12), ("strict", 1e-9))


class TestGrowingScan:
    """The chunked scan finds exactly what one whole-range array finds."""

    @pytest.mark.parametrize("mode, threshold", STRICT_AND_RELAXED)
    @pytest.mark.parametrize("position", range(3))
    def test_minimal_odd_l_hit_on_chunk_boundary(self, mode, threshold, position):
        L = 1 + 2 * HIT_INDICES[position]
        angles = _hit_at(L)
        for horizon in (L, L + 2 * SCAN_CHUNK):  # the hit ends the scan, or not
            report = minimal_odd_l(angles, threshold, horizon, mode)
            l_ref, score_ref = _reference_scan(angles, threshold, horizon, mode)
            assert report.found and report.l == l_ref == L
            assert report.score == score_ref

    @pytest.mark.parametrize("mode, threshold", STRICT_AND_RELAXED)
    def test_horizon_shorter_than_first_chunk(self, mode, threshold):
        horizon = _FIRST_CHUNK - 1  # scanned in one partial first chunk
        found = minimal_odd_l(_hit_at(51), threshold, horizon, mode)
        assert found.found and found.l == 51
        missed = minimal_odd_l(_hit_at(horizon + 2), threshold, horizon, mode)
        assert not missed.found and missed.horizon == horizon
        assert _reference_scan(_hit_at(horizon + 2), threshold, horizon, mode) is None

    @pytest.mark.parametrize("mode, threshold", STRICT_AND_RELAXED)
    @pytest.mark.parametrize("position", range(3))
    def test_horizon_ending_on_chunk_boundary(self, mode, threshold, position):
        # The horizon is the last l of a chunk: a hit there is found, one
        # step beyond it is not.
        index = END_INDICES[position]
        horizon = 1 + 2 * index
        assert minimal_odd_l(_hit_at(horizon), threshold, horizon, mode).l == horizon
        assert not minimal_odd_l(_hit_at(horizon + 2), threshold, horizon, mode).found

    def test_exhausted_horizon_spanning_capped_chunks(self):
        horizon = 1 + 2 * (HIT_INDICES[2] + SCAN_CHUNK + 99)
        for mode, threshold in STRICT_AND_RELAXED:
            report = minimal_odd_l(_hit_at(horizon + 2), threshold, horizon, mode)
            assert not report.found and report.l is None and report.horizon == horizon

    @pytest.mark.parametrize("mode", ("relaxed", "strict"))
    def test_real_instances_match_whole_range_scan(self, mode):
        rng = np.random.default_rng(41)
        for _ in range(12):
            N = int(rng.integers(1 << 10, 1 << 24))
            K = int(rng.integers(2, max(3, N // 64)))
            inst = make_instance(N, int(rng.integers(0, K)), K)
            angles = angles_of(inst)
            threshold = float(10.0 ** rng.uniform(-4, -0.6))
            horizon = default_horizon(inst)
            report = minimal_odd_l(angles, threshold, horizon, mode)
            ref = _reference_scan(angles, threshold, horizon, mode)
            if ref is None:
                assert not report.found
            else:
                assert (report.l, report.score) == ref


@st.composite
def _triples(draw):
    N = draw(st.integers(4, 1 << 48))
    K = draw(st.integers(1, N))
    return make_instance(N, draw(st.integers(0, K - 1)), K)


@settings(max_examples=60, deadline=None)
@given(
    instance=_triples(),
    mode=st.sampled_from(["relaxed", "strict"]),
    first=st.integers(0, 5 * 10**7),
    cuts=st.lists(st.integers(1, 3000), max_size=8),
)
def test_chunk_scores_independent_of_slicing(instance, mode, first, cuts):
    """Scores of a whole arange equal, bit for bit, those of its pieces."""
    angles = angles_of(instance)
    start, stop = 1 + 2 * first, 1 + 2 * (first + 3001)
    whole = _chunk_scores(np.arange(start, stop, 2, dtype=np.float64), angles, mode)
    bounds = [start] + [start + 2 * c for c in sorted(set(cuts))] + [stop]
    pieces = [
        _chunk_scores(np.arange(a, b, 2, dtype=np.float64), angles, mode)
        for a, b in zip(bounds, bounds[1:])
    ]
    assert whole.tobytes() == np.concatenate(pieces).tobytes()


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


class TestReportsCarryTheScansPair:
    """Every printed relaxed number is the array kernel's that the scan decides with."""

    def test_search_score_is_its_fail_K(self, capsys):
        assert main("search --N 1048576 --M 122 --K 147 --tol 0.25".split()) == 0
        report = json.loads(capsys.readouterr().out)["search"]
        assert report["score"] == report["fail_K"] == 0.230733974960778

    @settings(max_examples=80, deadline=None)
    @given(
        instance=_triples(),
        mode=st.sampled_from(["relaxed", "strict"]),
        exponent=st.floats(-6.0, -0.05),
    )
    @example(instance=make_instance(1048576, 122, 147), mode="relaxed", exponent=math.log10(0.25))
    def test_minimal_odd_l_pair_is_the_array_kernel(self, instance, mode, exponent):
        angles = angles_of(instance)
        horizon = min(default_horizon(instance), 200001)
        report = minimal_odd_l(angles, 10.0**exponent, horizon, mode)
        if not report.found:
            assert report.score is report.fail_K is report.fail_M is None
            return
        fail_K, fail_M = failure_kernel(np.array([report.l], float), angles)
        assert _bits(report.fail_K) + _bits(report.fail_M) == fail_K.tobytes() + fail_M.tobytes()
        if mode == "relaxed":
            assert _bits(report.score) == _bits(max(report.fail_K, report.fail_M))

    def test_table_pair_at_l_minimal_is_the_array_kernel(self):
        triples = [(N, M, K) for N in range(65536, 1048577, 131072)
                   for M in range(1, 41, 3) for K in range(2, 61, 5) if M < K]
        rows = [TableRow(*row) for row in build_table_rows(triples, 0.02)]
        rows = [row for row in rows if row.l_minimal]
        ls = np.array([row.l_minimal for row in rows], float)
        angles = GroverAngles(
            theta_M=np.array([row.theta_M for row in rows]),
            theta_K=np.array([row.theta_K for row in rows]),
            gamma=None,
        )
        fail_K, fail_M = failure_kernel(ls, angles)
        assert len(rows) > 100
        assert np.array([row.fail_K for row in rows]).tobytes() == fail_K.tobytes()
        assert np.array([row.fail_M for row in rows]).tobytes() == fail_M.tobytes()

    def test_orbit_relaxed_score_is_the_relaxed_scan_score(self, capsys):
        assert main("orbit --N 1048576 --M 37 --K 41 --l-max 199999".split()) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        printed = np.array([float(line.rsplit(",", 1)[1]) for line in lines])
        ls = np.arange(1, 200000, 2, dtype=np.float64)
        expected = _chunk_scores(ls, angles_of(make_instance(1 << 20, 37, 41)), "relaxed")
        assert printed.tobytes() == expected.tobytes()


def _assert_rows_match_reference(angles_list, threshold, horizons, mode):
    # The horizons as a list of ints and as an array give the same scan.
    thetas = [a.theta_K for a in angles_list], [a.theta_M for a in angles_list]
    found_l, found_score = scan_rows(*thetas, threshold, list(horizons), mode)
    from_array = scan_rows(*thetas, threshold, np.array(horizons, dtype=np.float64), mode)
    assert found_l.tobytes() + found_score.tobytes() == b"".join(a.tobytes() for a in from_array)
    for i, (angles, horizon) in enumerate(zip(angles_list, horizons)):
        ref = _reference_scan(angles, threshold, horizon, mode)
        if ref is None:
            assert found_l[i] == 0 and np.isnan(found_score[i])
        else:
            assert found_l[i] == ref[0]
            assert _bits(found_score[i]) == _bits(ref[1])


@st.composite
def _scan_rows_cases(draw):
    """A batch of rows: random triples or planted hits, each with its own horizon."""
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        if draw(st.booleans()):
            angles = angles_of(draw(_triples()))
        else:
            angles = _hit_at(1 + 2 * draw(st.integers(0, 20000)))
        rows.append((angles, 1 + 2 * draw(st.integers(0, 40000))))
    return rows


class TestScanRows:
    """Batched scans, filter included, find what one whole-range array finds."""

    @settings(max_examples=80, deadline=None)
    @given(
        rows=_scan_rows_cases(),
        mode=st.sampled_from(["relaxed", "strict"]),
        exponent=st.floats(-12.0, -0.05),
    )
    def test_rows_match_whole_range_scan(self, rows, mode, exponent):
        angles_list, horizons = zip(*rows)
        _assert_rows_match_reference(angles_list, 10.0**exponent, horizons, mode)

    @pytest.mark.parametrize("mode, threshold", STRICT_AND_RELAXED + (("relaxed", 0.25),))
    def test_many_rows_split_into_blocks(self, mode, threshold, monkeypatch):
        # More rows than a first-chunk block holds, with horizons on both sides
        # of chunk edges and planted hits in several chunks.
        rng = np.random.default_rng(43)
        angles_list, horizons = [], []
        for i in range(3 * SCAN_CHUNK // _FIRST_CHUNK + 5):
            if i % 3:
                N = int(rng.integers(1 << 10, 1 << 30))
                K = int(rng.integers(2, N // 2))
                angles_list.append(angles_of(make_instance(N, int(rng.integers(0, K)), K)))
            else:
                angles_list.append(_hit_at(1 + 2 * int(rng.integers(0, 4000))))
            horizons.append(1 + 2 * int(rng.integers(0, 4000)))
        shapes = []
        block_hits = diophantine._block_hits

        def recording(ls, theta_K, *args):
            shapes.append((theta_K.size, ls.size))
            return block_hits(ls, theta_K, *args)

        monkeypatch.setattr(diophantine, "_block_hits", recording)
        _assert_rows_match_reference(angles_list, threshold, horizons, mode)
        assert max(rows * width for rows, width in shapes) == SCAN_CHUNK
        assert len({rows for rows, _ in shapes}) > 2

    def test_minimal_odd_l_is_the_one_row_scan(self):
        inst = make_instance(1048576, 37, 41)
        angles = angles_of(inst)
        report = minimal_odd_l(angles, 1e-3, 999999)
        (l,), (score,) = scan_rows([angles.theta_K], [angles.theta_M], 1e-3, [999999])
        assert report.found and (report.l, report.score) == (l, score)
        assert (report.fail_K, report.fail_M) == failure_kernel(report.l, angles)

    def test_empty_batch_and_bad_input(self):
        for horizons in ([], np.array([])):
            found_l, found_score = scan_rows([], [], 0.25, horizons)
            assert found_l.size == found_score.size == 0
        for horizons in ([5, 0], np.array([5.0, 0.0])):
            with pytest.raises(ValueError):
                scan_rows([0.1, 0.2], [0.05, 0.1], 0.25, horizons)
        for threshold in (0.0, 1.0, math.nan):
            with pytest.raises(ValueError):
                scan_rows([0.1], [0.05], threshold, [5])

    def test_horizon_beyond_exact_doubles_is_accepted(self):
        # Ints past 2**53 and past the double range, and an array past 2**53.
        (l,), (score,) = scan_rows([math.pi / 51], [0.0], 1e-12, [10**30])
        assert l == 51
        for horizons in (np.array([1e30]), [2**53 + 1], [10**400]):
            (other_l,), (other_score,) = scan_rows([math.pi / 51], [0.0], 1e-12, horizons)
            assert (other_l, _bits(other_score)) == (l, _bits(score))


# theta_M and theta_K near 0; theta_K = pi; both within 2^-22 of pi; mid-range.
ADVERSARIAL_TRIPLES = (
    (1 << 48, 1, 2),
    (1 << 48, 3, 1 << 48),
    (1 << 48, (1 << 48) - 2, (1 << 48) - 1),
    (1048576, 37, 41),
)


@pytest.mark.parametrize("mode", ("relaxed", "strict"))
@pytest.mark.parametrize("triple", ADVERSARIAL_TRIPLES)
def test_filter_keeps_hits_at_the_threshold(mode, triple):
    """A threshold equal to an l's exact score keeps that l, one float below drops it.

    l lies just below 10^8, where a turn count carries its largest error;
    the filtered block must find exactly the l whose unfiltered score is
    within the threshold.
    """
    angles = angles_of(make_instance(*triple))
    start = HORIZON_CAP - 2 * 8192 + 2
    ls = np.arange(start, start + 2 * 8192, 2, dtype=np.float64)
    scores = _chunk_scores(ls, angles, mode)
    rng = np.random.default_rng(47)
    picks = np.concatenate([np.argsort(scores)[:24], rng.integers(0, ls.size, size=24)])
    theta_K, theta_M = np.array([angles.theta_K]), np.array([angles.theta_M])
    work = _work_arrays()
    checked = 0
    for score in scores[picks]:
        for threshold in (np.nextafter(score, 0.0), score, np.nextafter(score, 1.0)):
            if not 0.0 < threshold < 1.0:
                continue
            rows, hit_l, hit_scores = _block_hits(
                ls, theta_K, theta_M, np.array([ls[-1]]), float(threshold), mode, work
            )
            expected = np.flatnonzero(scores <= threshold)
            assert hit_l.tolist() == ls[expected].tolist()
            assert hit_scores.tobytes() == scores[expected].tobytes()
            checked += 1
    assert checked >= 100
