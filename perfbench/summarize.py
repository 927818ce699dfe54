"""Summarise benchmark runs into one trajectory entry.

Usage, from the root of a checkout, after running the benchmark:

    python3 perfbench/summarize.py --label "seed baseline" --seeds 101-110 --traced-seed 101

Reads ``.perfbench_run/<workload>-seed<n>-trace<t>.json`` and prints a JSON
entry: for every workload BENCHMARK.json lists, each end-to-end metric's median and quartiles over
the untraced seeds, the per-layer metrics of the traced seed, and the stdout
sha256 of every run.  Append the entry to ``perfbench/trajectory.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics

import run


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _load(workload: str, seed: int, trace: int) -> dict:
    path = os.path.join(run.RUN_DIR, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def entry(label: str, seeds: list[int], traced_seed: int) -> dict:
    out: dict = {"label": label, "seeds": seeds, "workloads": {}}
    for name in (w["name"] for w in run.load_spec()["workloads"]):
        results = [_load(name, seed, 0) for seed in seeds]
        end_to_end = {}
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            end_to_end[metric] = {
                "unit": results[0]["metrics"][metric]["unit"],
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / statistics.median(values),
            }
        traced = _load(name, traced_seed, 1)
        out["workloads"][name] = {
            "unit": results[0]["unit"],
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "runs_with_failures": sum(r["failed_ratio"] > 0 for r in results),
            "stdout_sha256": {str(r["seed"]): r["stdout_sha256"] for r in results},
        }
        out["machine"] = results[0]["machine"]
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", required=True, help="FIRST-LAST, inclusive, two or more")
    parser.add_argument("--traced-seed", type=int, required=True)
    args = parser.parse_args()
    print(json.dumps(entry(args.label, _seeds(args.seeds), args.traced_seed), indent=1))


if __name__ == "__main__":
    main()
