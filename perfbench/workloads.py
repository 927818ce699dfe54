"""Seeded input generators for the four benchmark workloads.

Each generator turns (seed, scale) into the argv lists one pass issues through
``groverstop.cli.main`` and the input files those commands read.  The program
only ever sees the generated argv and files; the seed never reaches it except
as the documented ``experiment --seed`` flag.  ``scale`` shrinks the inputs
for the self-tests; the benchmark itself always runs at scale 1.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Workload:
    name: str
    unit: str  # what units_per_s counts
    units_per_pass: int
    commands: list[list[str]]
    files: dict[str, str] = field(default_factory=dict)  # relative path -> text
    params: dict = field(default_factory=dict)  # what the output checks need


def _odd_at_least(x: float, floor: int) -> int:
    n = max(floor, int(x))
    return n if n % 2 else n + 1


def _log_uniform_int(rng: np.random.Generator, lo_exp: float, hi_exp: float) -> int:
    return int(round(2.0 ** rng.uniform(lo_exp, hi_exp)))


def table_grid(seed: int, scale: float, run_dir: str) -> Workload:
    """4000 triples, N log-uniform in [2^16, 2^24], in two classes.

    Every fourth row draws K/M near 1 and K small enough for the size
    condition to have a chance, so many of them certify; their horizons are
    long, so the scan pays for a whole chunk although the hit comes early.
    The other rows draw K/M in (1, 5], mostly not applicable, with short
    horizons.  A pass takes a few seconds, so a run holds several.
    """
    rng = np.random.default_rng([seed, 1])
    count = max(4, round(4000 * scale))
    lines = []
    for i in range(count):
        N = _log_uniform_int(rng, 16, 24)
        if i % 4 == 0:
            excess = rng.uniform(0.02, 0.04)
            k_max = max(3, math.floor(256.0 * excess**4 * N))
            K = int(rng.integers(2, k_max + 1))
            M = min(K - 1, max(1, round(K / (1.0 + excess) ** 2)))
        else:
            M = int(rng.integers(1, 201))
            K = M + int(rng.integers(1, 4 * M + 1))
        lines.append(f"{N} {M} {K}\n")
    path = os.path.join(run_dir, "table_grid.triples")
    return Workload(
        name="table_grid",
        unit="rows",
        units_per_pass=count,
        commands=[["table", "--triples", path]],
        files={path: "".join(lines)},
        params={"sample": 200},
    )


def _strata(rng: np.random.Generator, count: int) -> list[float]:
    """One uniform draw from each of `count` equal slices of [0, 1), shuffled."""
    u = (np.arange(count) + rng.uniform(size=count)) / count
    rng.shuffle(u)
    return u.tolist()


def deep_scan(seed: int, scale: float, run_dir: str) -> Workload:
    """21 `search` commands, strict first and then alternating with relaxed.

    Tolerances are tight (1e-6..1e-5) at N in [2^20, 2^40] with a horizon of
    9999999.  At these tolerances a strict scan practically never hits, so
    every strict command scans to the horizon; relaxed hits land anywhere in
    the horizon and some exhaust it too.  The strict commands are the
    majority, so the median latency sits inside the cluster of full-horizon
    scans.

    M is set from theta_M, log-uniform in [1e-3, 0.1], so the orbit winds
    many times within the horizon and relaxed hits come at the rate the
    tolerance implies.  log N, log theta_M and log tol are stratified within
    each mode: every seed gets the same spread of them, in another order and
    combination, so the cost of a pass varies little between seeds.
    """
    rng = np.random.default_rng([seed, 2])
    relaxed_count = max(1, round(10 * scale))
    horizon = _odd_at_least(9999999 * scale, 999)
    plans = {}
    for mode, count in (("strict", relaxed_count + 1), ("relaxed", relaxed_count)):
        plans[mode] = list(zip(_strata(rng, count), _strata(rng, count), _strata(rng, count)))
    commands = []
    for i in range(2 * relaxed_count + 1):
        mode = "strict" if i % 2 == 0 else "relaxed"
        u_n, u_theta, u_tol = plans[mode][i // 2]
        N = int(round(2.0 ** (20.0 + 20.0 * u_n)))
        theta_M = 10.0 ** (-3.0 + 2.0 * u_theta)
        M = max(1, int(round(N * math.sin(0.5 * theta_M) ** 2)))
        K = M + int(rng.integers(1, M + 1))
        tol = 10.0 ** (-6.0 + u_tol)
        commands.append(
            ["search", "--N", str(N), "--M", str(M), "--K", str(K), "--tol", repr(tol),
             "--horizon", str(horizon), "--mode", mode]
        )
    return Workload(
        name="deep_scan",
        unit="searches",
        units_per_pass=len(commands),
        commands=commands,
        params={"sample_hits": 5, "sample_exhausted": 1},
    )


# (N, M, K, l, trials at scale 1): the README experiment, and a mid-N instance
# at the certified constructive rule's l (rule --N 65536 --M 12 --K 13).
MONTE_CARLO_INSTANCES = ((4096, 8, 12, 79, 5000), (65536, 12, 13, 3255, 500))


def monte_carlo(seed: int, scale: float, run_dir: str) -> Workload:
    """A trial-heavy and a simulate-heavy `experiment`, seeded by --seed."""
    commands = []
    units = 0
    for N, M, K, l, trials in MONTE_CARLO_INSTANCES:
        n = max(20, round(trials * scale))
        units += 2 * n  # both truths
        commands.append(
            ["experiment", "--N", str(N), "--M", str(M), "--K", str(K), "--l", str(l),
             "--trials", str(n), "--seed", str(seed)]
        )
    return Workload(name="monte_carlo", unit="trials", units_per_pass=units, commands=commands)


def orbit_trace(seed: int, scale: float, run_dir: str) -> Workload:
    """One `orbit --l-max 199999` (100k CSV rows) of a seeded triple."""
    rng = np.random.default_rng([seed, 4])
    N = _log_uniform_int(rng, 16, 32)
    M = int(rng.integers(1, 501))
    K = M + int(rng.integers(1, 2 * M + 1))
    l_max = _odd_at_least(199999 * scale, 99)
    return Workload(
        name="orbit_trace",
        unit="rows",
        units_per_pass=(l_max + 1) // 2,
        commands=[["orbit", "--N", str(N), "--M", str(M), "--K", str(K),
                   "--l-max", str(l_max)]],
        params={"sample": 500},
    )


GENERATORS = {
    "table_grid": table_grid,
    "deep_scan": deep_scan,
    "monte_carlo": monte_carlo,
    "orbit_trace": orbit_trace,
}

# Tiny commands, one family per layer, appended to every traced run so that
# each layer has spans there even when the workload itself does not call it.
LAYER_PROBE = [
    ["rule", "--N", "65536", "--M", "12", "--K", "13"],
    ["pad", "--M", "1", "--N", "1048576"],
    ["search", "--N", "4096", "--M", "8", "--K", "12", "--tol", "0.25"],
    ["orbit", "--N", "4096", "--M", "8", "--K", "12", "--l-max", "9"],
    ["experiment", "--N", "1024", "--M", "2", "--K", "3", "--l", "5", "--trials", "20",
     "--seed", "0"],
]


def generate(name: str, seed: int, scale: float, run_dir: str) -> Workload:
    workload = GENERATORS[name](seed, scale, run_dir)
    for path, text in workload.files.items():
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return workload
