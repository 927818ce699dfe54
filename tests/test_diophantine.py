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
    error_bound,
    failure_kernel,
    make_instance,
    minimal_odd_l,
    orbit_coords,
    target_distance,
)
from groverstop.core_model import DEFAULT_EPSILON, GroverAngles
from groverstop import diophantine, transforms
from groverstop.cli import TABLE_FIELDS, _triple_columns, _with_none, build_table_rows, main
from groverstop.diophantine import (
    HORIZON_CAP,
    SCAN_CHUNK,
    _chunk_scores,
    _first_hits,
    circle_distance,
    scan_rows,
)

from test_stopping_rule import sample_applicable


class TestTorusPoint:
    """``orbit_coords`` at one odd l, a Python int."""

    def test_first_orbit_point(self):
        ang = angles_of(make_instance(4, 1, 2))
        x_K, x_M = orbit_coords(1, ang.theta_K, ang.theta_M)
        assert x_K == pytest.approx(1 / 8, abs=1e-15)
        assert x_M == pytest.approx(1 / 12, abs=1e-15)

    def test_exact_hit(self):
        ang = angles_of(make_instance(4, 0, 1))
        x_K, x_M = orbit_coords(3, ang.theta_K, ang.theta_M)
        assert x_K == pytest.approx(0.25, abs=1e-15)
        assert x_M == 0.0

    def test_wrap_around(self):
        # theta_K = pi when K = N, so l=5 gives frac(5/4) = 1/4.
        ang = angles_of(make_instance(4, 1, 4))
        x_K, _ = orbit_coords(5, ang.theta_K, ang.theta_M)
        assert x_K == pytest.approx(0.25, abs=1e-15)

    def test_coordinates_in_unit_interval(self):
        ang = angles_of(make_instance(997, 13, 19))
        for l in range(1, 400, 2):
            x_K, x_M = orbit_coords(l, ang.theta_K, ang.theta_M)
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
        ang = angles_of(make_instance(4, 0, 1))
        score = max(failure_kernel(3, ang.theta_K, ang.theta_M))
        assert score == pytest.approx(0.0, abs=1e-30)

    def test_closed_form(self):
        ang = angles_of(make_instance(4, 1, 2))
        score = max(failure_kernel(1, ang.theta_K, ang.theta_M))
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
            if target_distance(*orbit_coords(l, ang.theta_K, ang.theta_M)) <= eps:
                triggered += 1
                fails = failure_kernel(l, ang.theta_K, ang.theta_M)
                assert max(fails) <= math.sin(2 * math.pi * eps) ** 2 + 1e-12
        assert triggered > 10


class TestOrbitArrays:
    def test_array_coords_match_scalar_bit_for_bit(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            N = int(rng.integers(64, 1 << 40))
            K = int(rng.integers(2, N // 2))
            ang = angles_of(make_instance(N, int(rng.integers(1, K)), K))
            ls = 1 + 2 * rng.integers(0, HORIZON_CAP // 2, size=200)
            x_K, x_M = orbit_coords(ls, ang.theta_K, ang.theta_M)
            dist = target_distance(x_K, x_M)
            for i, l in enumerate(ls.tolist()):
                point = orbit_coords(l, ang.theta_K, ang.theta_M)
                assert (x_K[i], x_M[i]) == point
                assert dist[i] == target_distance(*point)


class TestStrictScoreIsOrbitDistance:
    """A strict scan scores the very doubles ``orbit`` prints."""

    def test_chunk_scores_equal_target_distance_of_orbit_coords(self):
        angles = angles_of(make_instance(1 << 20, 37, 41))
        ls = np.arange(1, 2 * 10**6, 2, dtype=np.float64)
        expected = target_distance(*orbit_coords(ls, angles.theta_K, angles.theta_M))
        scores = _chunk_scores(ls, angles.theta_K, angles.theta_M, "strict")
        assert scores.tobytes() == expected.tobytes()

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
        rule = construct_rule(inst)
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
            assert max(failure_kernel(l, ang.theta_K, ang.theta_M)) > 0.25

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


def _reference_scan(angles, threshold, horizon, mode, start=1):
    """Whole-range scan in one array: (l, score) of the first hit, or None."""
    ls = np.arange(start, horizon + 1, 2, dtype=np.float64)
    scores = _chunk_scores(ls, angles.theta_K, angles.theta_M, mode)
    hits = np.nonzero(scores <= threshold)[0]
    return (int(ls[hits[0]]), scores[hits[0]]) if hits.size else None


def _window_scan(angles, threshold, start, horizon, mode):
    """One row's scan of the odd l in [start, horizon]: (l, score) of its hit, or None."""
    thetas = np.array([angles.theta_K]), np.array([angles.theta_M])
    bounds = np.array([float(start)]), np.array([float(horizon)])
    (l,), (score,) = _first_hits(*thetas, float(threshold), *bounds, mode)
    return (int(l), score) if l else None


def _hit_at(L: int) -> GroverAngles:
    # cos^2(l*theta_K/2) vanishes at l = L and, over odd l <= L, nowhere else
    # within (pi/L)^2; the strict orbit point reaches (1/4, 0) at l = L.
    return GroverAngles(theta_M=0.0, theta_K=math.pi / L, gamma=None)


def _later_round_hit(L: int) -> GroverAngles:
    # theta_K, the slower, returns at odd multiples of L (relaxed) or at
    # L, 5L, 9L, ... (strict), and theta_M at multiples of 1.5L (relaxed) or
    # 3L (strict): the first return of theta_K with one of theta_M in its
    # run is its second (3L) or third (9L), which a scan reaches in its
    # second round.
    return GroverAngles(theta_M=4.0 * math.pi / (3 * L), theta_K=math.pi / L, gamma=None)


def _recording(monkeypatch, name):
    """Patch diophantine.<name> to record its arguments, one tuple per call."""
    calls, function = [], getattr(diophantine, name)

    def recording(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(diophantine, name, recording)
    return calls


STRICT_AND_RELAXED = (("relaxed", 1e-12), ("strict", 1e-9))
# Per mode, a planted hit whose run is several odd l long (half-width
# 2*L*asin(1e-6)/pi = 6.4 l relaxed, 4*L*1e-9 = 8 l strict), scanned from
# 2000 l before it.
LONG_RUN = {"relaxed": 10**7 + 1, "strict": 2 * 10**9 + 1}


def _edge_case(position, mode):
    """(angles, first l scanned) of a hit on the edge a position names.

    0: the first odd l of a run several l long; 1: the only odd l of a run
    shorter than one; 2: a run that a scan reaches in its second round.
    """
    if position == 0:
        return _hit_at(LONG_RUN[mode]), LONG_RUN[mode] - 2000
    return (_hit_at, _later_round_hit)[position - 1](1001), 1


class TestGrowingScan:
    """Hits and horizons on the edges of what a scan round scores.

    A round scores, for each row, the first odd l of each intersection of
    the runs of its two coordinates (its chunk of l), and a row's next round
    resumes at the first l it left out.  Each case matches one whole-range
    array.  The rounds are pinned on scans from the given first l (1 or the
    window's), since ``scan_rows`` starts a row at its small-divisor bound,
    past rounds these cases pin; ``minimal_odd_l`` must find the same.
    """

    @pytest.mark.parametrize("mode, threshold", STRICT_AND_RELAXED)
    @pytest.mark.parametrize("position", range(3))
    def test_minimal_odd_l_hit_on_chunk_boundary(self, mode, threshold, position, monkeypatch):
        angles, start = _edge_case(position, mode)
        l_ref, score_ref = _reference_scan(angles, threshold, start + 20000, mode, start)
        for horizon in (l_ref, l_ref + 2 * SCAN_CHUNK):  # the hit ends the scan, or not
            if start == 1:
                report = minimal_odd_l(angles, threshold, horizon, mode)
                assert report.found and (report.l, report.score) == (l_ref, score_ref)
            rounds = _recording(monkeypatch, "_chunk_scores")
            assert _window_scan(angles, threshold, start, horizon, mode) == (l_ref, score_ref)
            monkeypatch.undo()
            scored = [set(ls.tolist()) for ls, *_ in rounds]
            hit_round = next(r for r, ls in enumerate(scored) if l_ref in ls)
            assert l_ref - 2 not in scored[hit_round]  # the first l of its chunk
            assert (l_ref + 2 in scored[hit_round]) == (position == 0 and horizon > l_ref)
            assert (hit_round > 0) == (position == 2)
        if position == 0:
            assert l_ref < LONG_RUN[mode] - 4  # the run holds several l before its centre

    @pytest.mark.parametrize("mode, threshold", STRICT_AND_RELAXED)
    def test_horizon_shorter_than_first_chunk(self, mode, threshold):
        horizon = 255  # before the first run of _hit_at(257)
        found = minimal_odd_l(_hit_at(51), threshold, horizon, mode)
        assert found.found and found.l == 51
        missed = minimal_odd_l(_hit_at(horizon + 2), threshold, horizon, mode)
        assert not missed.found and missed.horizon == horizon
        assert _reference_scan(_hit_at(horizon + 2), threshold, horizon, mode) is None

    @pytest.mark.parametrize("mode, threshold", STRICT_AND_RELAXED)
    @pytest.mark.parametrize("position", range(3))
    def test_horizon_ending_on_chunk_boundary(self, mode, threshold, position):
        # The horizon is the hit: it is found; two below it, nothing is.  A
        # horizon inside the run of position 0 ends its intersection there.
        angles, start = _edge_case(position, mode)
        hit = _reference_scan(angles, threshold, start + 20000, mode, start)
        for horizon in (hit[0], hit[0] + 2, hit[0] + 4):
            assert _window_scan(angles, threshold, start, horizon, mode) == hit
        assert _window_scan(angles, threshold, start, hit[0] - 2, mode) is None
        assert _reference_scan(angles, threshold, hit[0] - 2, mode, start) is None

    def test_exhausted_horizon_spanning_capped_chunks(self, monkeypatch):
        # theta_K returns at odd multiples of 51 (strict: 51 mod 204) and
        # theta_M at multiples of 102 (204): no odd l is near both.  The scan
        # steps through about 3900 returns of each, over many rounds.
        angles = GroverAngles(theta_M=math.pi / 51, theta_K=math.pi / 51, gamma=None)
        horizon = 1 + 2 * (3 * SCAN_CHUNK + 99)
        for mode, threshold in STRICT_AND_RELAXED:
            assert _reference_scan(angles, threshold, horizon, mode) is None
            rounds = _recording(monkeypatch, "_chunk_scores")
            assert _window_scan(angles, threshold, 1, horizon, mode) is None
            assert len(rounds) > 8
            monkeypatch.undo()
            report = minimal_odd_l(angles, threshold, horizon, mode)
            assert not report.found and report.l is None and report.horizon == horizon

    def test_hit_in_a_resumed_intersection(self):
        # Within 2^-42 of 1, the relaxed radius rounds up to half a turn while
        # the kernel's falls 2^-21/pi short of it.  So the first intersection,
        # from l = 1, starts about 320 l before its first hit and is resumed
        # over several rounds, while the next, from about l = 104700, hits
        # at its first l in the first round and must not count.
        angles = GroverAngles(theta_M=3e-5, theta_K=3e-9, gamma=None)
        threshold, horizon = 1.0 - 2.0**-42, 999999
        report = minimal_odd_l(angles, threshold, horizon)
        assert (report.l, report.score) == _reference_scan(angles, threshold, horizon, "relaxed")
        assert report.l == 319

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
    thetas = angles.theta_K, angles.theta_M
    whole = _chunk_scores(np.arange(start, stop, 2, dtype=np.float64), *thetas, mode)
    bounds = [start] + [start + 2 * c for c in sorted(set(cuts))] + [stop]
    pieces = [
        _chunk_scores(np.arange(a, b, 2, dtype=np.float64), *thetas, mode)
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
        ls = np.array([report.l], float)
        fail_K, fail_M = failure_kernel(ls, angles.theta_K, angles.theta_M)
        assert _bits(report.fail_K) + _bits(report.fail_M) == fail_K.tobytes() + fail_M.tobytes()
        if mode == "relaxed":
            assert _bits(report.score) == _bits(max(report.fail_K, report.fail_M))

    def test_table_pair_at_l_minimal_is_the_array_kernel(self):
        triples = [(N, M, K) for N in range(65536, 1048577, 131072)
                   for M in range(1, 41, 3) for K in range(2, 61, 5) if M < K]
        columns, present = build_table_rows(_triple_columns(triples), 0.02)
        rows = [dict(zip(TABLE_FIELDS, row)) for row in zip(*map(_with_none, columns, present))]
        rows = [row for row in rows if row["l_minimal"]]
        ls = np.array([row["l_minimal"] for row in rows], float)
        fail_K, fail_M = failure_kernel(
            ls,
            np.array([row["theta_K"] for row in rows]),
            np.array([row["theta_M"] for row in rows]),
        )
        assert len(rows) > 100
        assert np.array([row["fail_K"] for row in rows]).tobytes() == fail_K.tobytes()
        assert np.array([row["fail_M"] for row in rows]).tobytes() == fail_M.tobytes()

    def test_orbit_relaxed_score_is_the_relaxed_scan_score(self, capsys):
        assert main("orbit --N 1048576 --M 37 --K 41 --l-max 199999".split()) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        printed = np.array([float(line.rsplit(",", 1)[1]) for line in lines])
        ls = np.arange(1, 200000, 2, dtype=np.float64)
        angles = angles_of(make_instance(1 << 20, 37, 41))
        expected = _chunk_scores(ls, angles.theta_K, angles.theta_M, "relaxed")
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
    """A batch of rows, each with its own horizon.

    Random triples; slow rows (N up to 2^48, small K: runs many l long);
    fast rows (K at or next to N, theta_K near pi: runs shorter than one l);
    and planted hits, at a run's first l wherever the threshold makes the
    run longer than one l.
    """
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["triple", "slow", "fast", "planted"]))
        if kind == "planted":
            angles = _hit_at(1 + 2 * draw(st.integers(0, 20000)))
        elif kind == "triple":
            angles = angles_of(draw(_triples()))
        else:
            N = draw(st.integers(1 << 20, 1 << 48) if kind == "slow" else st.integers(4, 1 << 48))
            K = draw(st.integers(1, 64)) if kind == "slow" else N - draw(st.integers(0, 2))
            angles = angles_of(make_instance(N, draw(st.integers(0, K - 1)), K))
        rows.append((angles, 1 + 2 * draw(st.integers(0, 40000))))
    return rows


def _linear_scan_rows(theta_K, theta_M, threshold, horizons, mode):
    """The scan over every odd l that the run scan replaced: a second oracle.

    Every round filters one chunk of odd l for each row still scanning (256
    l, then twice as many each round, up to 65536; at most 65536 (row, l)
    pairs at once), keeping the l whose two turn counts lie within the
    radius plus (l*max(w) + 1)*2^-50 of their targets, and scores those.
    """
    turn, shift = diophantine._TURN_AND_SHIFT[mode]
    radius = diophantine._relaxed_reach(threshold) if mode == "relaxed" else threshold
    w, shifts = np.stack([theta_K, theta_M]) / turn, np.array([shift, 0.0])[:, None, None]
    found_l, found_score = np.zeros(horizons.size, np.int64), np.full(horizons.size, np.nan)
    active, start, width = np.arange(horizons.size), 1, 256
    while active.size:
        ls = np.arange(start, min(start + 2 * width, horizons[active].max() + 1), 2.0)
        for block in np.array_split(active, -(-active.size * width // 65536)):
            bound = radius + (ls[-1] * w[:, block].max() + 1.0) * 2.0**-50
            y = ls * w[:, block, None] + shifts
            rows, cols = np.nonzero((np.abs(y - np.rint(y)) <= bound).all(axis=0))
            thetas = theta_K[block][rows], theta_M[block][rows]
            scores = _chunk_scores(ls[cols], *thetas, mode)
            hit = (scores <= threshold) & (ls[cols] <= horizons[block][rows])
            rows, cols, scores = rows[hit], cols[hit], scores[hit]
            first = np.flatnonzero(np.diff(rows, prepend=-1))
            found_l[block[rows[first]]] = ls[cols[first]]
            found_score[block[rows[first]]] = scores[first]
        start += 2 * width
        active = active[(found_l[active] == 0) & (horizons[active] >= start)]
        width = min(2 * width, 65536)
    return found_l, found_score


def _table_grid_rows(count):
    """(theta_K, theta_M, horizons) of rows shaped like the benchmark's table input.

    N log-uniform in [2^16, 2^24]; every fourth row has K/M near 1 and a
    small K, the others K/M in (1, 5].  Horizons are the default ones.
    """
    rng = np.random.default_rng(53)
    instances = []
    for i in range(count):
        N = int(round(2.0 ** rng.uniform(16, 24)))
        if i % 4 == 0:
            excess = rng.uniform(0.02, 0.04)
            K = int(rng.integers(2, max(3, math.floor(256.0 * excess**4 * N)) + 1))
            M = min(K - 1, max(1, round(K / (1.0 + excess) ** 2)))
        else:
            M = int(rng.integers(1, 201))
            K = M + int(rng.integers(1, 4 * M + 1))
        instances.append(make_instance(N, M, K))
    return _columns(instances)


def _columns(instances):
    """(theta_K, theta_M, default horizons) of the instances, as float arrays."""
    angles = [angles_of(instance) for instance in instances]
    return (
        np.array([a.theta_K for a in angles]),
        np.array([a.theta_M for a in angles]),
        np.array([float(default_horizon(instance)) for instance in instances]),
    )


class TestHorizonForBound:
    def test_column_is_int64_and_matches_default_horizon(self):
        # Up to the capped K = M + 1 pairs at the top of the envelope.
        triples = [(4096, 8, 12), (1024, 0, 1), (65536, 12, 13), (2**48, 2**20, 2**20 + 1),
                   (2**48, 2**47 - 2, 2**47 - 1)]
        N, M, K = (np.array(column) for column in zip(*triples))
        horizons = diophantine.horizon_for_bound(transforms.l_bound_of(N, M, K))
        assert horizons.dtype == np.int64
        expected = [default_horizon(make_instance(*triple)) for triple in triples]
        assert horizons.tolist() == expected and HORIZON_CAP in expected


class TestScanRows:
    """Batched scans find what one whole-range array finds."""

    @settings(max_examples=80, deadline=None)
    @given(
        rows=_scan_rows_cases(),
        mode=st.sampled_from(["relaxed", "strict"]),
        threshold=st.one_of(st.floats(-12.0, -0.05).map(lambda e: 10.0**e), st.floats(0.5, 0.99)),
    )
    def test_rows_match_whole_range_scan(self, rows, mode, threshold):
        # Past a threshold of 1/2 a run covers most of a turn; a strict one
        # of 1/2 or more accepts every l.
        angles_list, horizons = zip(*rows)
        _assert_rows_match_reference(angles_list, threshold, horizons, mode)

    @pytest.mark.parametrize("mode, threshold", STRICT_AND_RELAXED + (("relaxed", 0.25),))
    def test_many_rows_split_into_blocks(self, mode, threshold, monkeypatch):
        # With rounds of at most 1024 scores or runs, a block holds at most
        # 256 rows, so every pass over these rows crosses a block.
        rng = np.random.default_rng(43)
        angles_list, horizons = [], []
        for i in range(773):
            if i % 3:
                N = int(rng.integers(1 << 10, 1 << 30))
                K = int(rng.integers(2, N // 2))
                angles_list.append(angles_of(make_instance(N, int(rng.integers(0, K)), K)))
            else:
                angles_list.append(_hit_at(1 + 2 * int(rng.integers(0, 4000))))
            horizons.append(1 + 2 * int(rng.integers(0, 4000)))
        monkeypatch.setattr(diophantine, "SCAN_CHUNK", 1 << 10)
        ranges = _recording(monkeypatch, "_ranges")
        _assert_rows_match_reference(angles_list, threshold, horizons, mode)
        assert max(max(start.size, count.sum()) for start, count in ranges) <= 1 << 10
        assert ranges[0][1].size < len(angles_list)  # the first round's block of rows

    def test_working_set_is_bounded(self, monkeypatch):
        # 4000 rows like the benchmark's table input.  No round holds more
        # than SCAN_CHUNK runs of either coordinate or scores, and smaller
        # rounds, whose blocks split the rows, change nothing.
        theta_K, theta_M, horizons = _table_grid_rows(4000)
        threshold = error_bound(1.0 / 12.0)
        expected = _linear_scan_rows(theta_K, theta_M, threshold, horizons, "relaxed")
        for chunk in (SCAN_CHUNK, 1 << 12):
            monkeypatch.setattr(diophantine, "SCAN_CHUNK", chunk)
            ranges = _recording(monkeypatch, "_ranges")
            scored = _recording(monkeypatch, "_chunk_scores")
            found = scan_rows(theta_K, theta_M, threshold, horizons)
            monkeypatch.undo()
            assert b"".join(a.tobytes() for a in found) == b"".join(a.tobytes() for a in expected)
            assert max(max(start.size, count.sum()) for start, count in ranges) <= chunk
            assert max(ls.size for ls, *_ in scored) <= chunk
            first_block = ranges[0][1].size  # the rows of the first round
            assert (first_block < theta_K.size) == (chunk < SCAN_CHUNK)
        assert (expected[0] > 0).sum() > 3000

    @pytest.mark.parametrize("d_K, d_M", [(0.0016, 0.0089), (0.0026, 0.0154)])
    def test_residues_end_at_the_horizon(self, d_K, d_M):
        # Near pi, both strict coordinates turn by nearly a quarter turn per
        # step of l, so the scan splits the odd l into l = 4i + 1 and 4i + 3.
        # The first hit is in the second; a horizon below it ends that one.
        angles = GroverAngles(theta_M=math.pi - d_M, theta_K=math.pi - d_K, gamma=None)
        l_ref, score_ref = _reference_scan(angles, 0.01, 99999, "strict")
        assert l_ref % 4 == 3 and l_ref > 1000
        for horizon in (l_ref, 99999):
            report = minimal_odd_l(angles, 0.01, horizon, "strict")
            assert (report.l, _bits(report.score)) == (l_ref, _bits(score_ref))
        assert not minimal_odd_l(angles, 0.01, l_ref - 2, "strict").found

    def test_strict_half_turn_accepts_the_first_l(self):
        # No circle distance exceeds 1/2, so every row hits at l = 1.
        theta_K, theta_M, horizons = _table_grid_rows(40)
        theta_K = np.concatenate([theta_K, [math.pi - 0.0016, math.pi / 2, 3.0]])
        theta_M = np.concatenate([theta_M, [math.pi - 0.0089, math.pi / 2 - 1e-3, 1.0]])
        horizons = np.concatenate([horizons, [99999.0, 99999.0, 1.0]])
        for threshold in (0.5, 0.75):
            found_l, _ = scan_rows(theta_K, theta_M, threshold, horizons, "strict")
            assert (found_l == 1).all()

    def test_minimal_odd_l_is_the_one_row_scan(self):
        inst = make_instance(1048576, 37, 41)
        angles = angles_of(inst)
        report = minimal_odd_l(angles, 1e-3, 999999)
        (l,), (score,) = scan_rows([angles.theta_K], [angles.theta_M], 1e-3, [999999])
        assert report.found and (report.l, report.score) == (l, score)
        pair = failure_kernel(report.l, angles.theta_K, angles.theta_M)
        assert (report.fail_K, report.fail_M) == pair

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

    The l lie just below 10^8 (HORIZON_CAP) and 10^9 (reached with
    --horizon), where a turn count carries its largest error.  A scan from
    the first l of their window, and one from the picked l itself, find
    exactly the first l whose score is within the threshold.
    """
    angles = angles_of(make_instance(*triple))
    rng = np.random.default_rng(47)
    checked = 0
    for top in (HORIZON_CAP, 10**9 - 1):
        ls = np.arange(top - 2 * 8191, top + 1, 2, dtype=np.float64)
        scores = _chunk_scores(ls, angles.theta_K, angles.theta_M, mode)
        picks = np.concatenate([np.argsort(scores)[:10], rng.integers(0, ls.size, size=10)])
        for pick in picks:
            score = scores[pick]
            for threshold in (np.nextafter(score, 0.0), score, np.nextafter(score, 1.0)):
                if not 0.0 < threshold < 1.0:
                    continue
                for first in (0, pick):
                    hits = first + np.flatnonzero(scores[first:] <= threshold)
                    found = _window_scan(angles, threshold, int(ls[first]), top, mode)
                    if not hits.size:
                        assert found is None
                    else:
                        assert found[0] == ls[hits[0]]
                        assert _bits(found[1]) == _bits(scores[hits[0]])
                    checked += 1
    assert checked >= 200


@st.composite
def _near_small_divisor(draw):
    """A triple whose gamma, about sqrt(K/M), lies near a/b with small odd b."""
    b = draw(st.sampled_from([1, 3, 5, 7, 9, 11]))
    a = draw(st.integers(b + 1, 4 * b))
    M = draw(st.integers(1, 4000))
    K = max(M + 1, round(M * a * a / (b * b)) + draw(st.integers(-2, 2)))
    return make_instance(draw(st.integers(max(K, 1 << 16), 1 << 48)), M, K)


# gamma within 7e-9 of 3: no relaxed hit below l = 4.38e12 at threshold 0.0157.
SHOWCASE = make_instance(7104134430, 11, 99)


class TestSmallDivisorBound:
    """Scans start at a certified lower bound on each row's first hit."""

    @settings(max_examples=60, deadline=None)
    @given(
        instances=st.lists(st.one_of(_triples(), _near_small_divisor()), min_size=1, max_size=8),
        mode=st.sampled_from(["relaxed", "strict"]),
        epsilon=st.floats(0.005, DEFAULT_EPSILON),
    )
    def test_scan_from_the_bound_is_the_scan_from_one(self, instances, mode, epsilon):
        threshold = error_bound(epsilon)
        theta_K, theta_M, horizons = _columns(instances)
        starts = diophantine._small_divisor_starts(theta_K, theta_M, threshold, horizons, mode)
        assert (starts >= 1).all() and (starts % 2 == 1).all()
        found = scan_rows(theta_K, theta_M, threshold, horizons, mode)
        from_one = _first_hits(theta_K, theta_M, threshold, np.ones_like(horizons), horizons, mode)
        assert b"".join(a.tobytes() for a in found) == b"".join(a.tobytes() for a in from_one)
        hit = from_one[0] > 0
        assert (from_one[0][hit] >= starts[hit]).all()

    def test_table_grid_rows_match_the_linear_scan(self):
        # At epsilon 0.02 the bound passes l = 1 on most of these rows, and
        # convergents with b > 1 join in.
        theta_K, theta_M, horizons = _table_grid_rows(2000)
        threshold = error_bound(0.02)
        starts = diophantine._small_divisor_starts(theta_K, theta_M, threshold, horizons, "relaxed")
        expected = _linear_scan_rows(theta_K, theta_M, threshold, horizons, "relaxed")
        found = scan_rows(theta_K, theta_M, threshold, horizons)
        assert b"".join(a.tobytes() for a in found) == b"".join(a.tobytes() for a in expected)
        assert (starts > 1).sum() > 1000 and (starts > horizons).any()

    @pytest.mark.parametrize(
        "angles, threshold, horizon, mode",
        [
            (angles_of(SHOWCASE), 0.0157, 10**12 + 1, "relaxed"),
            (angles_of(SHOWCASE), 0.0157, 10**12 + 1, "strict"),
            # gamma = 1: gamma*j is never near Z + 1/2 (Z + 1/4), though the
            # outward rounding of |gamma - 1| caps the bound near 5e15.
            (GroverAngles(theta_M=math.pi / 51, theta_K=math.pi / 51, gamma=None), 1e-12,
             10**15 + 1, "relaxed"),
            (GroverAngles(theta_M=math.pi / 51, theta_K=math.pi / 51, gamma=None), 1e-9,
             10**15 + 1, "strict"),
        ],
    )
    def test_row_bounded_past_its_horizon_scores_nothing(
        self, angles, threshold, horizon, mode, monkeypatch
    ):
        scored = _recording(monkeypatch, "_chunk_scores")
        report = minimal_odd_l(angles, threshold, horizon, mode)
        assert not report.found and report.l is None and report.horizon == horizon
        assert scored == []

    def test_no_continued_fraction_at_the_default_epsilon(self, monkeypatch):
        # Only b = 1 can leave slack: relaxed, where gamma < 2; strict, nowhere.
        theta_K, theta_M, horizons = _table_grid_rows(4000)
        gamma = theta_K / theta_M
        expansions = _recording(monkeypatch, "_odd_denominators")
        for mode in ("relaxed", "strict"):
            threshold = error_bound(DEFAULT_EPSILON)
            starts = diophantine._small_divisor_starts(theta_K, theta_M, threshold, horizons, mode)
            assert ((starts > 1) == ((gamma < 2) & (mode == "relaxed"))).all()
        assert expansions == []
        diophantine._small_divisor_starts(theta_K, theta_M, error_bound(0.02), horizons, "relaxed")
        assert len(expansions) == 1

    @settings(max_examples=100, deadline=None)
    @given(
        b=st.integers(0, 12).map(lambda k: 2 * k + 1),
        a=st.integers(0, 200),
        offset=st.floats(-1e-9, 1e-9),
    )
    @example(b=1, a=0, offset=2.225073858507e-311)  # a subnormal gamma: 1/gamma overflows
    def test_odd_denominators_hold_each_close_odd_b(self, b, a, offset):
        # a/b in lowest terms within 1/(2b^2) of gamma is a convergent of it.
        if math.gcd(a, b) != 1 or a + offset * b <= 0:
            return
        gamma = np.array([a / b + offset])
        denominators = diophantine._odd_denominators(gamma, np.array([30.0]))
        assert b in denominators and (denominators % 2 == 1).all() and (denominators <= 30).all()


class TestAccelerationsPay:
    """Each scan acceleration for the paper's slow cases cuts the scan's work, by count.

    No benchmark workload has a row whose coordinates both turn fast, nor a
    small epsilon, so these counts are what guards the residue split and the
    odd-denominator bound.
    """

    SPLIT = make_instance(64, 13, 29)  # both coordinates turn fast

    @pytest.mark.parametrize(
        "mode, threshold, l", [("strict", 1e-4, 7664117), ("relaxed", 1e-6, 6650513)]
    )
    def test_residue_split_halves_the_rounds(self, monkeypatch, mode, threshold, l):
        # 51 rounds against 150 strict, 60 against 253 relaxed.
        rounds = []
        for strides in (diophantine._STRIDES, 1):
            monkeypatch.setattr(diophantine, "_STRIDES", strides)
            scored = _recording(monkeypatch, "_chunk_scores")
            assert minimal_odd_l(angles_of(self.SPLIT), threshold, 9999999, mode).l == l
            rounds.append(len(scored))
        split, unsplit = rounds
        assert 2 * split <= unsplit

    def test_odd_denominators_cut_the_scored_l_tenfold(self, monkeypatch):
        # gamma near 5/3 at epsilon 0.02: 3 l in 7 rounds, against 998 in 15
        # from the b = 1 bound alone.
        angles = angles_of(make_instance(1048576, 9, 25))
        scored = []
        for only_b_1 in (False, True):
            if only_b_1:
                monkeypatch.setattr(
                    diophantine, "_odd_denominators", lambda gamma, b_max: np.ones((gamma.size, 1))
                )
            rounds = _recording(monkeypatch, "_chunk_scores")
            assert minimal_odd_l(angles, error_bound(0.02), 10**9 + 1).l == 15298957
            scored.append(sum(ls.size for ls, *_ in rounds))
        bounded, from_b_1 = scored
        assert 10 * bounded <= from_b_1
