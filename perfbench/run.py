"""groverstop benchmark: one seeded workload, end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload table_grid --seed 1 --seconds 55 --trace 0

Workloads: table_grid and monte_carlo, the ones BENCHMARK.json lists, and
deep_scan and orbit_trace, which run the same way but are not listed because
their throughput could not be held steady on a shared host (see README.md).
The package is imported from ./src; nothing has to be installed.

--trace 0 measures the end-to-end metrics: set-up time of a fresh CLI
process, then passes of the workload in a fresh worker process for the given
seconds (throughput, per-command latency, peak RSS).  --trace 1 runs the same
passes with tracing wrappers installed and reports the per-layer metrics.
Every command's output is checked; the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  Lines before it give
the same metrics readably, with failed_ratio, the tail percentile, the output
sha256 and the machine facts.  Files go to ./.perfbench_run/.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import checks
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_DIR = ".perfbench_run"
SRC = "src"
SETUP_REPS = 9
SETUP_CODE = "import groverstop.cli as c; c.build_parser()"
SPAWN_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150


def load_spec() -> dict:
    with open(os.path.join(BENCH_DIR, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def _spawn(argv: list[str], env: dict) -> float:
    """Wall time of one child process, waited for with a blocking wait.

    subprocess's own timeout polls with sleeps of up to 50 ms, which would
    quantise the measurement; a timer kills a child that hangs instead.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env)
    watchdog = threading.Timer(SPAWN_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise subprocess.CalledProcessError(code, argv)
    return elapsed


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters importing groverstop.cli and building its parser."""
    env = _child_env()
    argv = [sys.executable, "-c", SETUP_CODE]
    _spawn(argv, env)  # writes bytecode caches
    return [_spawn(argv, env) for _ in range(SETUP_REPS)]


def tail_latency(latencies: list[float]) -> tuple[int, float, int]:
    """(percentile, value, sample count): the highest whole percentile with at
    least ten samples beyond it (nearest rank), or p90 when no percentile from
    p90 up has ten samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    for q in range(99, 89, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= 10:
            return q, xs[rank - 1], n
    return 90, xs[math.ceil(0.9 * n) - 1], n


def machine_facts(largest_sim_n: int) -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "caches": {},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": None,
        "src_sha256": None,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            parts = [open(os.path.join(index, f), encoding="utf-8").read().strip()
                     for f in ("level", "type", "size")]
        except OSError:
            continue
        facts["caches"][f"L{parts[0]} {parts[1]}"] = parts[2]
    if os.path.isdir(".git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=30)
        facts["git_sha"] = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "groverstop", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    facts["src_sha256"] = digest.hexdigest()
    facts["statevector_array_kib"] = largest_sim_n * 8 // 1024
    facts["statevector_note"] = (
        "monte_carlo amplitude arrays fit in L2, so ns_per_amp_step is an in-cache "
        "figure, not a memory-bandwidth one; an array 4x the last-level cache would "
        "exceed FULL_SIM_CAP"
    )
    return facts


def run_worker(workload, trace: bool, seconds: float) -> dict:
    job_path = os.path.join(RUN_DIR, f"{workload.name}.job.json")
    result_path = os.path.join(RUN_DIR, f"{workload.name}.worker.json")
    job = {
        "src": os.path.abspath(SRC),
        "commands": workload.commands,
        "seconds": seconds,
        "trace": trace,
        "probe": workloads.LAYER_PROBE,
        "spans_path": os.path.join(RUN_DIR, f"{workload.name}.spans.csv") if trace else None,
    }
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    if os.path.exists(result_path):
        os.remove(result_path)
    subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), job_path, result_path],
        env=_child_env(), check=True, timeout=WORKER_TIMEOUT_S, stdout=subprocess.DEVNULL,
    )
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(workload, result: dict, setup_times: list[float]) -> tuple[dict, dict]:
    passes = result["passes"]
    latencies = [x for p in passes for x in p["latencies_s"]]
    q, tail, n = tail_latency(latencies)
    values = {
        "setup_s": statistics.median(setup_times),
        "units_per_s": workload.units_per_pass * len(passes) / sum(p["wall_s"] for p in passes),
        # Each command's latency is its mean over the passes that repeated it.
        "cmd_p50_ms": statistics.median(
            statistics.fmean(c) for c in zip(*(p["latencies_s"] for p in passes))) * 1e3,
        "cmd_tail_ms": tail * 1e3,
        "peak_rss_mb": result["maxrss_kib"] / 1024.0,
    }
    extra = {"tail_percentile": q, "latency_samples": n, "passes": len(passes),
             "setup_samples": len(setup_times)}
    return values, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor; below 1 only for the self-tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "groverstop", "cli.py")):
        print("perfbench: no src/groverstop here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    os.makedirs(RUN_DIR, exist_ok=True)
    workload = workloads.generate(args.workload, args.seed, args.scale, RUN_DIR)
    trace = bool(args.trace)
    setup_times = [] if trace else measure_setup()
    result = run_worker(workload, trace, args.seconds)
    passes = result["passes"] + result["traced_passes"]
    failed, attempted, reasons = checks.count_failures(
        workload, args.seed, passes, result["outputs"]
    )
    if trace:
        probe_failed = sum(code != 0 for code in result["probe"]["exit_codes"])
        failed += probe_failed
        attempted += len(result["probe"]["exit_codes"])
        if probe_failed:
            reasons.append(f"layer probe: {probe_failed} commands exited non-zero")
        untraced = statistics.median(p["wall_s"] for p in result["passes"])
        traced = statistics.median(p["wall_s"] for p in result["traced_passes"])
        values = dict(result["layer"], **{"trace.overhead_s": traced - untraced})
        declared, extra = spec["per_layer"], {"span_count": result["span_count"]}
    else:
        values, extra = end_to_end(workload, result, setup_times)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    digest = hashlib.sha256("".join(result["outputs"]).encode("utf-8")).hexdigest()
    largest_n = max(n for n, *_ in workloads.MONTE_CARLO_INSTANCES)
    report = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "unit": workload.unit, "units_per_pass": workload.units_per_pass,
        "commands_per_pass": len(workload.commands), "failed_ratio": failed / attempted,
        "stdout_sha256": digest, "wrapped_after_run": result["wrapped"],
        "problems": reasons[:20], **extra, "machine": machine_facts(largest_n),
    }
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"unit={workload.unit} units_per_pass={workload.units_per_pass}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(f"  failed_ratio = {failed / attempted!r} 1 ({failed} of {attempted} commands)")
    if not trace:
        print(f"  cmd_tail_ms is p{extra['tail_percentile']} of {extra['latency_samples']} "
              f"latencies over {extra['passes']} passes")
    for why in reasons[:20]:
        print(f"  problem: {why}")
    print("report " + json.dumps(report, sort_keys=True))
    with open(os.path.join(RUN_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, **report}, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
