"""Acceptance gate: every release-blocking criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see the one-line
pass/fail verdict printed per criterion.
"""

import math
import time

import numpy as np
import pytest

from groverstop import (
    angles_of,
    certify,
    check_applicability,
    construct_rule,
    failure_probabilities,
    half_angle,
    init_uniform,
    make_instance,
    minimal_odd_l,
    pad_for_ratio,
    run_discrimination,
    simulate,
)
from groverstop.cli import TABLE_FIELDS, _triple_columns, _with_none, build_table_rows, main
from oracles import (
    apply_oracle,
    chebyshev_residuals,
    grover_step,
    reduce_common_divisor,
    state_after,
)

QUARTER = math.sin(2 * math.pi / 12) ** 2  # = 1/4, the eps = 1/12 threshold

_verdicts = []


def verdict(num, name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {name}" + (
        f" ({detail})" if detail else ""
    )
    _verdicts.append(line)
    print("\n" + line)
    assert ok, line


@pytest.fixture(scope="module")
def certified_sweep():
    """>= 1e4 triples with every applicability flag true, rules constructed."""
    rng = np.random.default_rng(20260823)
    out = []
    while len(out) < 10_000:
        N = 1 << int(rng.integers(10, 21))
        M = int(rng.integers(4, min(N // 4, 5000)))
        K = int(M * (1.0 + rng.uniform(0.01, 0.5)))
        if K <= M or 2 * K >= N:
            continue
        inst = make_instance(N, M, K)
        if check_applicability(inst).all_ok:
            out.append((inst, construct_rule(inst)))
    return out


def test_criterion_1_subspace_statevector_equivalence():
    rng = np.random.default_rng(1)
    start = time.monotonic()
    worst = 0.0
    for _ in range(200):
        N = int(rng.integers(4, (1 << 12) + 1))
        size = int(rng.integers(1, N))
        m = int(rng.integers(0, 201))
        S = rng.choice(N, size=size, replace=False)
        state = simulate(N, S, m)
        sub = state_after(m, 2 * half_angle(size, N))
        pred = np.full(N, sub.alpha_amp / math.sqrt(N - size) if size < N else 0.0)
        pred[np.sort(S)] = sub.beta_amp / math.sqrt(size)
        worst = max(worst, float(np.abs(state - pred).max()))
    elapsed = time.monotonic() - start
    verdict(
        1,
        "subspace-statevector equivalence",
        worst <= 1e-10 and elapsed <= 60.0,
        f"max deviation {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_theorem_certification_sweep(certified_sweep):
    start = time.monotonic()
    counterexamples = 0
    for inst, rule in certified_sweep:
        excess = angles_of(inst).gamma - 1.0
        ok = (
            rule.residual_K < 2.0 * excess
            and rule.residual_M < excess
            and rule.l % 2 == 1
            and rule.l <= 4.0 * math.sqrt(inst.N) / (math.sqrt(inst.K) - math.sqrt(inst.M))
        )
        if not ok:
            counterexamples += 1
    elapsed = time.monotonic() - start
    verdict(
        2,
        "theorem certification sweep",
        counterexamples == 0 and elapsed <= 120.0,
        f"{len(certified_sweep)} triples, {counterexamples} counterexamples, {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def certified_at_twelfth(certified_sweep):
    subset = [
        (inst, rule)
        for inst, rule in certified_sweep
        if certify(rule, inst, 1.0 / 12.0).certified
    ]
    assert subset, "no instance from the sweep certifies at eps = 1/12"
    return subset


def test_criterion_3_error_probability_bound(certified_at_twelfth):
    violations = 0
    for inst, rule in certified_at_twelfth:
        fails = failure_probabilities(rule.l, angles_of(inst))
        if not (fails.fail_K < 0.25 and fails.fail_M < 0.25):
            violations += 1
    verdict(
        3,
        "error probabilities below 1/4 at eps=1/12",
        violations == 0,
        f"{len(certified_at_twelfth)} certified instances",
    )


def test_criterion_4_monte_carlo_reproduction():
    instances = [
        (1024, 8, 12),
        (2048, 20, 30),
        (4096, 8, 12),
        (4096, 32, 48),
        (4096, 50, 72),
    ]
    trials = 10_000
    ok = True
    details = []
    for N, M, K in instances:
        inst = make_instance(N, M, K)
        assert check_applicability(inst).all_ok
        rule = construct_rule(inst)
        # These three flags do not depend on epsilon; 2*(gamma - 1) itself may
        # exceed 1/4, the top of epsilon's domain.
        cert = certify(rule, inst)
        ok &= cert.residual_K_ok and cert.residual_M_ok and cert.l_within_bound
        fails = failure_probabilities(rule.l, angles_of(inst))
        result = run_discrimination(inst, rule.l, trials, seed=2026)
        for outcome, p in ((result.M, fails.fail_M), (result.K, fails.fail_K)):
            sigma = math.sqrt(p * (1.0 - p) / trials)
            within = abs(outcome.empirical_error - p) <= 4.0 * sigma
            ok &= within
            details.append(f"{N}/{M}/{K}/{outcome.truth}:{outcome.empirical_error:.4f}~={p:.4f}")
    exact = make_instance(4, 0, 1)
    result = run_discrimination(exact, 3, trials, seed=2026)
    ok &= result.M.errors == result.K.errors == 0
    verdict(4, "Monte Carlo reproduces closed-form error rates", ok, "; ".join(details[:4]) + "...")


def test_criterion_5_minimal_vs_constructive(certified_at_twelfth):
    violations = 0
    for inst, rule in certified_at_twelfth:
        report = minimal_odd_l(angles_of(inst), QUARTER, rule.l)
        if not (report.found and report.l <= rule.l):
            violations += 1
    verdict(
        5,
        "exhaustive minimal l never exceeds constructive l",
        violations == 0,
        f"{len(certified_at_twelfth)} certified instances",
    )


def test_criterion_6_successor_regime():
    N = 1 << 20
    ms = [M for M in range(1, 64) if math.sqrt((M + 1) / N) < (4.0 / (3.0 * M)) ** 2]
    ok = bool(ms)
    for M in ms:
        inst = make_instance(N, M, M + 1)
        rule = construct_rule(inst)
        excess = angles_of(inst).gamma - 1.0
        ok &= check_applicability(inst).size_condition_ok
        ok &= rule.residual_K < 2.0 * excess and rule.residual_M < excess
        ok &= rule.l % 2 == 1
        ok &= rule.l <= 8.0 * math.sqrt((M + 1) * N) + 2.0
    verdict(6, "K=M+1 regime at N=2^20", ok, f"M in 1..{ms[-1] if ms else '-'}")


def test_criterion_7_padding_chain():
    N = 1 << 20
    padded = pad_for_ratio(1, N, a=2.0, epsilon=1.0 / 12.0)
    ok = padded.r == 16
    inst = padded.padded
    assert check_applicability(inst).all_ok
    rule = construct_rule(inst)
    cert = certify(rule, inst, 1.0 / 12.0)
    ok &= cert.certified
    ok &= rule.m <= 5.0 * 17.0 * math.sqrt(N / 1.0)
    verdict(7, "padding chain (a=2, eps=1/12)", ok, f"r={padded.r}, m={rule.m}")


def test_criterion_8_chebyshev_bridge():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1000):
        N = int(rng.integers(4, 1 << 20))
        K = int(rng.integers(2, N // 2 + 1))
        M = int(rng.integers(1, K))
        l = int(rng.integers(1, 1001))
        r1, r2 = chebyshev_residuals(l, make_instance(N, M, K))
        worst = max(worst, r1, r2)
    verdict(8, "Chebyshev bridge residuals", worst <= 1e-9, f"max {worst:.3e}")


def test_criterion_9_invariance_suite(capsys, tmp_path):
    ok = True
    # gcd-reduction angle invariance within 1e-15
    rng = np.random.default_rng(9)
    for _ in range(200):
        N = int(rng.integers(2, 1 << 14))
        K = int(rng.integers(1, N + 1))
        M = int(rng.integers(0, K))
        n = int(rng.integers(2, 16))
        m0, k0, n0 = reduce_common_divisor(n * M, n * K, n * N)
        a = angles_of(make_instance(n * N, n * M, n * K))
        b = angles_of(make_instance(n0, m0, k0))
        ok &= abs(a.theta_M - b.theta_M) <= 1e-15 and abs(a.theta_K - b.theta_K) <= 1e-15
    # oracle involution, exact
    for _ in range(50):
        N = int(rng.integers(2, 1 << 10))
        state = rng.normal(size=N)
        state /= np.linalg.norm(state)
        S = rng.choice(N, size=int(rng.integers(0, N + 1)), replace=False)
        ok &= bool(np.array_equal(apply_oracle(apply_oracle(state, S), S), state))
    # unitarity drift over 1e3 steps
    N = 1 << 10
    state = init_uniform(N)
    S = rng.choice(N, size=31, replace=False)
    for _ in range(1000):
        state = grover_step(state, S)
    drift = abs(float(np.sum(state * state)) - 1.0)
    ok &= drift <= 1e-10
    # CSV round-trip, exact
    triples = tmp_path / "triples.txt"
    triples.write_text("1024 8 12\n4096 0 5\n4096 32 48\n")
    code = main(["table", "--triples", str(triples)])
    out = capsys.readouterr().out
    ok &= code == 0
    lines = out.splitlines()
    for line, (n, m, k) in zip(lines[1:], [(1024, 8, 12), (4096, 0, 5), (4096, 32, 48)]):
        parsed = dict(zip(TABLE_FIELDS, line.split(",")))
        columns, present = build_table_rows(_triple_columns([(n, m, k)]), 1.0 / 12.0)
        row = dict(zip(TABLE_FIELDS, [cells[0] for cells in map(_with_none, columns, present)]))
        for field, value in row.items():
            cell = parsed[field]
            if value is None:
                ok &= cell == ""
            elif isinstance(value, bool):
                ok &= cell == ("true" if value else "false")
            elif isinstance(value, float):
                ok &= float(cell) == value
            else:
                ok &= int(cell) == value
    verdict(9, "invariance suite", ok, f"unitarity drift {drift:.3e}")
