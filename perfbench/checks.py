"""Output checks for the benchmark workloads, against references written here.

Nothing in this module calls groverstop.  Angles, failure probabilities, the
default scan horizon and the linear first-hit scan are recomputed from the
formulas.  The scan scores each odd l with the same float expression the
package uses, so every hit/miss decision is the same comparison and the
first hit must be the same l.

Each ``check_<workload>`` takes the workload and the outputs of one pass and
returns a list of (command index, reason), empty when everything holds.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

FOUR_PI = 4.0 * math.pi
HORIZON_CAP = 10**8 - 1
DEFAULT_EPSILON = 1.0 / 12.0
REF_CHUNK = 1 << 18  # odd l values per reference chunk


def theta(count: int, N: int) -> float:
    return 2.0 * math.asin(math.sqrt(count / N))


def error_bound(epsilon: float) -> float:
    return math.sin(2.0 * math.pi * epsilon) ** 2


def fails_at(l: int, N: int, M: int, K: int) -> tuple[float, float]:
    """(fail_K, fail_M) = (cos^2(l*theta_K/2), sin^2(l*theta_M/2))."""
    return (
        math.cos(0.5 * l * theta(K, N)) ** 2,
        math.sin(0.5 * l * theta(M, N)) ** 2,
    )


def default_horizon(N: int, M: int, K: int) -> int:
    l_bound = 4.0 * math.sqrt(N) / (math.sqrt(K) - math.sqrt(M))
    horizon = math.ceil(10.0 * l_bound)
    horizon += 1 - horizon % 2
    return min(horizon, HORIZON_CAP)


def first_hit(N: int, M: int, K: int, threshold: float, horizon: int, mode: str) -> int | None:
    """Smallest odd l <= horizon whose score is within the threshold, by linear scan."""
    t_K, t_M = theta(K, N), theta(M, N)
    for start in range(1, horizon + 1, 2 * REF_CHUNK):
        ls = np.arange(start, min(start + 2 * REF_CHUNK, horizon + 1), 2, dtype=np.float64)
        if mode == "relaxed":
            score = np.maximum(np.cos(0.5 * ls * t_K) ** 2, np.sin(0.5 * ls * t_M) ** 2)
        else:
            d_K = np.abs(ls * (t_K / FOUR_PI) - 0.25) % 1.0
            d_M = np.abs(ls * (t_M / FOUR_PI)) % 1.0
            score = np.maximum(np.minimum(d_K, 1.0 - d_K), np.minimum(d_M, 1.0 - d_M))
        hits = np.flatnonzero(score <= threshold)
        if hits.size:
            return int(ls[hits[0]])
    return None


def binomial_ok(errors: int, trials: int, p: float, sigmas: float = 4.0) -> bool:
    """Two-sided exact binomial test at the tail mass of a `sigmas` normal deviation."""
    if p <= 0.0 or p >= 1.0:
        return errors == (0 if p <= 0.0 else trials)
    alpha = 0.5 * math.erfc(sigmas / math.sqrt(2.0))
    log_p, log_q = math.log(p), math.log1p(-p)
    lg = math.lgamma(trials + 1)
    pmf = [
        math.exp(lg - math.lgamma(k + 1) - math.lgamma(trials - k + 1) + k * log_p
                 + (trials - k) * log_q)
        for k in range(trials + 1)
    ]
    return sum(pmf[: errors + 1]) > alpha and sum(pmf[errors:]) > alpha


def _circle_gap(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _cell(value: str) -> int | None:
    return int(value) if value else None


def _sample(rng: np.random.Generator, count: int, size: int) -> list[int]:
    return sorted(rng.choice(count, size=min(size, count), replace=False).tolist())


def check_table_grid(workload, outputs, seed):
    problems = []
    bound = error_bound(DEFAULT_EPSILON)
    triples_path = _flag(workload.commands[0], "--triples")
    triples = [tuple(map(int, line.split())) for line in workload.files[triples_path].splitlines()]
    rows = list(csv.DictReader(io.StringIO(outputs[0])))
    if len(rows) != len(triples):
        return [(0, f"{len(rows)} rows for {len(triples)} triples")]
    for i, (row, (N, M, K)) in enumerate(zip(rows, triples)):
        if (int(row["N"]), int(row["M"]), int(row["K"])) != (N, M, K):
            problems.append((0, f"row {i}: triple {row['N']},{row['M']},{row['K']}"))
            continue
        if not (_close(float(row["theta_M"]), theta(M, N))
                and _close(float(row["theta_K"]), theta(K, N))):
            problems.append((0, f"row {i}: angles"))
        l_min, l_con = _cell(row["l_minimal"]), _cell(row["l_constructive"])
        if l_con is not None and (l_min is None or l_min > l_con):
            problems.append((0, f"row {i}: l_minimal {l_min} vs l_constructive {l_con}"))
        if l_min is not None:
            fail_K, fail_M = float(row["fail_K"]), float(row["fail_M"])
            ref_K, ref_M = fails_at(l_min, N, M, K)
            if not (fail_K <= bound and fail_M <= bound
                    and _close(fail_K, ref_K) and _close(fail_M, ref_M)):
                problems.append((0, f"row {i}: fails {fail_K},{fail_M} at l={l_min}"))
    rng = np.random.default_rng([seed, 101])
    for i in _sample(rng, len(rows), workload.params["sample"]):
        N, M, K = triples[i]
        horizon = default_horizon(N, M, K)
        l_con = _cell(rows[i]["l_constructive"])
        if l_con is not None:
            horizon = max(horizon, l_con)
        ref = first_hit(N, M, K, bound, horizon, "relaxed")
        if ref != _cell(rows[i]["l_minimal"]):
            problems.append((0, f"row {i}: l_minimal {rows[i]['l_minimal']!r}, reference {ref}"))
    return problems


def check_deep_scan(workload, outputs, seed):
    problems, found, exhausted = [], [], []
    for c, (argv, text) in enumerate(zip(workload.commands, outputs)):
        N, M, K = (int(_flag(argv, f)) for f in ("--N", "--M", "--K"))
        tol, horizon = float(_flag(argv, "--tol")), int(_flag(argv, "--horizon"))
        mode = _flag(argv, "--mode")
        search = json.loads(text)["search"]
        if (search["horizon"], search["mode"], search["threshold"]) != (horizon, mode, tol):
            problems.append((c, "search parameters not echoed"))
            continue
        if not search["found"]:
            exhausted.append(c)
            continue
        l = search["l"]
        ref_K, ref_M = fails_at(l, N, M, K)
        if not (l % 2 == 1 and 1 <= l <= horizon and search["score"] <= tol
                and _close(search["fail_K"], ref_K) and _close(search["fail_M"], ref_M)):
            problems.append((c, f"hit l={l} does not satisfy the tolerance"))
        found.append(c)
    rng = np.random.default_rng([seed, 102])
    picks = [found[i] for i in _sample(rng, len(found), workload.params["sample_hits"])]
    picks += [exhausted[i]
              for i in _sample(rng, len(exhausted), workload.params["sample_exhausted"])]
    for c in picks:
        argv = workload.commands[c]
        N, M, K = (int(_flag(argv, f)) for f in ("--N", "--M", "--K"))
        ref = first_hit(N, M, K, float(_flag(argv, "--tol")), int(_flag(argv, "--horizon")),
                        _flag(argv, "--mode"))
        got = json.loads(outputs[c])["search"]["l"]
        if ref != got:
            problems.append((c, f"search l={got}, reference {ref}"))
    return problems


def check_monte_carlo(workload, outputs, seed):
    problems = []
    for c, (argv, text) in enumerate(zip(workload.commands, outputs)):
        N, M, K, l, trials = (int(_flag(argv, f)) for f in ("--N", "--M", "--K", "--l", "--trials"))
        report = json.loads(text)
        p_K, p_M = fails_at(l, N, M, K)
        if not (_close(report["expected"]["fail_K"], p_K)
                and _close(report["expected"]["fail_M"], p_M)):
            problems.append((c, "expected failure probabilities"))
        for truth, p in (("M", p_M), ("K", p_K)):
            outcome = report["outcomes"][truth]
            if outcome["trials"] != trials or not binomial_ok(outcome["errors"], trials, p):
                problems.append((c, f"truth {truth}: {outcome['errors']}/{trials} errors, p={p}"))
    return problems


def check_orbit_trace(workload, outputs, seed):
    argv = workload.commands[0]
    N, M, K, l_max = (int(_flag(argv, f)) for f in ("--N", "--M", "--K", "--l-max"))
    t_K, t_M = theta(K, N), theta(M, N)
    lines = outputs[0].split("\n")
    if lines[0] != "l,x_K,x_M,strict_distance,relaxed_score" or lines[-1] != "":
        return [(0, "header or trailing newline")]
    rows = lines[1:-1]
    if len(rows) != (l_max + 1) // 2:
        return [(0, f"{len(rows)} rows for l_max {l_max}")]
    if [int(row.partition(",")[0]) for row in rows] != list(range(1, l_max + 1, 2)):
        return [(0, "l column is not 1, 3, ..., l_max")]
    problems = []
    rng = np.random.default_rng([seed, 104])
    for i in _sample(rng, len(rows), workload.params["sample"]):
        l_text, *reals = rows[i].split(",")
        l = int(l_text)
        x_K, x_M, dist, score = map(float, reals)
        ref_K, ref_M = (l * t_K / FOUR_PI) % 1.0, (l * t_M / FOUR_PI) % 1.0
        ref_dist = max(_circle_gap(ref_K, 0.25), _circle_gap(ref_M, 0.0))
        ref_score = max(math.cos(0.5 * l * t_K) ** 2, math.sin(0.5 * l * t_M) ** 2)
        if not (_circle_gap(x_K, ref_K) <= 1e-9
                and _circle_gap(x_M, ref_M) <= 1e-9
                and abs(dist - ref_dist) <= 1e-9 and abs(score - ref_score) <= 1e-9):
            problems.append((0, f"row l={l} differs from the formula"))
    return problems


CHECKS = {
    "table_grid": check_table_grid,
    "deep_scan": check_deep_scan,
    "monte_carlo": check_monte_carlo,
    "orbit_trace": check_orbit_trace,
}


def count_failures(workload, seed, passes, outputs) -> tuple[int, int, list[str]]:
    """(failed, attempted, reasons) over every command of every pass.

    A command fails in a pass when it exits non-zero, when its output hash
    differs from the first pass, or when the first pass's output fails the
    workload's check (then it fails in every pass).
    """
    try:
        problems = CHECKS[workload.name](workload, outputs, seed)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError, csv.Error) as exc:
        problems = [(c, f"unparseable output: {exc!r}") for c in range(len(outputs))]
    bad = {c for c, _ in problems}
    reasons = [f"command {c}: {why}" for c, why in problems]
    failed = attempted = 0
    for record in passes:
        for c, (code, digest) in enumerate(zip(record["exit_codes"], record["sha256"])):
            attempted += 1
            if c in bad or code != 0 or digest != passes[0]["sha256"][c]:
                failed += 1
    return failed, attempted, reasons
