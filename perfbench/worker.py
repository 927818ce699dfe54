"""Runs one workload's commands in passes, in a fresh interpreter.

Usage: python3 perfbench/worker.py JOB_JSON RESULT_JSON

The job names the package source directory, the commands of one pass, how
many seconds to keep running passes, and whether to trace.  Each command goes
through ``groverstop.cli.main(argv)`` with stdout captured in memory, one
after another: a closed loop with one client, single-threaded.

Untraced, passes repeat while the next one, taking as long as the last,
would still end within the seconds (at least one pass), and no wrapper is
installed.  Traced, each round is an untraced pass and then a traced pass (at
most three rounds, by the same rule), so that the tracing overhead is the
difference of the two; the layer probe runs traced once at the end.
The result holds per-pass latencies, exit codes and output hashes, the first
pass's outputs, the process's peak RSS and, when traced, per-layer metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time

import tracer as tracing

MAX_TRACED_ROUNDS = 3


def _records(text: str) -> int:
    """Output records: CSV data rows, or JSON reports (a list counts its items)."""
    if text.startswith("["):
        return len(json.loads(text))
    if text.startswith("{"):
        return 1
    return max(0, text.count("\n") - 1)


def run_pass(cli, commands):
    latencies, codes, outputs = [], [], []
    clock = time.perf_counter
    start = clock()
    for argv in commands:
        buf = io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        latencies.append(clock() - t0)
        codes.append(code)
        outputs.append(buf.getvalue())
    return {
        "wall_s": clock() - start,
        "latencies_s": latencies,
        "exit_codes": codes,
        "sha256": [hashlib.sha256(o.encode("utf-8")).hexdigest() for o in outputs],
    }, outputs


def _out_of_time(begin: float, last: float, seconds: float) -> bool:
    """True when another round as long as the last one would end after the seconds."""
    return time.perf_counter() - begin + last > seconds


def main(job_path: str, result_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    cli = importlib.import_module("groverstop.cli")
    package_dir = os.path.dirname(os.path.abspath(cli.__file__))
    if os.path.dirname(package_dir) != os.path.abspath(job["src"]):
        print(f"worker: groverstop imported from {package_dir}, not {job['src']}",
              file=sys.stderr)
        return 2
    commands, seconds = job["commands"], job["seconds"]
    result: dict = {"passes": [], "traced_passes": []}
    first_outputs = None
    begin = time.perf_counter()

    if not job["trace"]:
        while True:
            record, outputs = run_pass(cli, commands)
            result["passes"].append(record)
            if first_outputs is None:
                first_outputs = outputs
                result["wrapped_while_running"] = tracing.wrapped_names()
            if _out_of_time(begin, record["wall_s"], seconds):
                break
    else:
        tracer = tracing.Tracer()
        for round_no in range(MAX_TRACED_ROUNDS):
            round_start = time.perf_counter()
            record, outputs = run_pass(cli, commands)
            result["passes"].append(record)
            first_outputs = first_outputs or outputs
            tracer.run = round_no
            tracer.install()
            result.setdefault("wrapped_while_running", tracing.wrapped_names())
            try:
                record, _ = run_pass(cli, commands)
            finally:
                tracer.uninstall()
            result["traced_passes"].append(record)
            if _out_of_time(begin, time.perf_counter() - round_start, seconds):
                break
        tracer.run = -1
        tracer.install()
        try:
            probe, probe_outputs = run_pass(cli, job["probe"])
        finally:
            tracer.uninstall()
        result["probe"] = probe
        emitted = first_outputs + probe_outputs
        rows_out = sum(_records(o) for o in emitted)
        bytes_out = sum(len(o.encode("utf-8")) for o in emitted)
        probe_spans = [s for s in tracer.spans if s[6] == -1]
        layers = [
            tracing.layer_metrics([s for s in tracer.spans if s[6] == run] + probe_spans,
                                  tracer.counts, rows_out, bytes_out)
            for run in range(len(result["traced_passes"]))
        ]
        result["layer"] = {
            name: statistics.median(m[name] for m in layers) for name in layers[0]
        }
        result["span_count"] = len(tracer.spans)
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])

    result["wrapped"] = tracing.wrapped_names()
    result["outputs"] = first_outputs
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
