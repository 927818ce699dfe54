"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from groverstop import cli  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

TINY = 0.02


def _bench(workload: str, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--scale", str(TINY)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_tiny_pass_prints_every_metric_with_its_unit(workload, trace):
    lines = _bench(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in declared:
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value)
        assert any(line.strip().startswith(f"{m['name']} = ")
                   and line.endswith(f" {m['unit']}") for line in lines[:-1])


def _run_in_process(commands):
    outputs, codes = [], []
    for argv in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            codes.append(cli.main(argv))
        outputs.append(buf.getvalue())
    return outputs, codes


def _pass_record(outputs, codes):
    return {"exit_codes": codes,
            "sha256": [hashlib.sha256(o.encode()).hexdigest() for o in outputs]}


def _corrupt_table(outputs):
    lines = outputs[0].split("\n")
    header = lines[0].split(",")
    col = header.index("l_minimal")
    for i, line in enumerate(lines[1:-1], start=1):
        cells = line.split(",")
        if cells[col]:
            cells[col] = str(int(cells[col]) + 2)
            lines[i] = ",".join(cells)
            break
    return ["\n".join(lines)]


def _corrupt_deep_scan(outputs):
    report = json.loads(outputs[0])
    report["search"].update(found=True, l=1, score=0.5, fail_K=0.5, fail_M=0.5)
    return [json.dumps(report)] + outputs[1:]


def _corrupt_monte_carlo(outputs):
    report = json.loads(outputs[0])
    report["outcomes"]["M"]["errors"] = 0
    return [json.dumps(report)] + outputs[1:]


def _corrupt_orbit(outputs):
    lines = outputs[0].split("\n")
    for i in range(1, len(lines) - 1):
        cells = lines[i].split(",")
        cells[1] = repr((float(cells[1]) + 0.01) % 1.0)
        lines[i] = ",".join(cells)
    return ["\n".join(lines)]


CORRUPTIONS = {
    "table_grid": _corrupt_table,
    "deep_scan": _corrupt_deep_scan,
    "monte_carlo": _corrupt_monte_carlo,
    "orbit_trace": _corrupt_orbit,
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupted_output_is_counted_as_failed(name, tmp_path):
    workload = workloads.generate(name, 5, TINY, str(tmp_path))
    outputs, codes = _run_in_process(workload.commands)
    passes = [_pass_record(outputs, codes)] * 2
    assert checks.count_failures(workload, 5, passes, outputs)[:2] == (0, 2 * len(outputs))

    bad = CORRUPTIONS[name](outputs)
    failed, attempted, reasons = checks.count_failures(workload, 5, passes, bad)
    assert failed == 2 and attempted == 2 * len(outputs) and reasons

    # A pass whose output differs from the first pass also fails.
    changed = [_pass_record(outputs, codes), _pass_record(bad, codes)]
    assert checks.count_failures(workload, 5, changed, outputs)[0] == 1


def test_nonzero_exit_is_counted_as_failed(tmp_path):
    workload = workloads.generate("orbit_trace", 5, TINY, str(tmp_path))
    outputs, codes = _run_in_process(workload.commands)
    passes = [_pass_record(outputs, codes), _pass_record(outputs, [1])]
    assert checks.count_failures(workload, 5, passes, outputs)[0] == 1


def _worker(tmp_path, trace):
    job = {"src": os.path.join(ROOT, "src"), "seconds": 0.0, "trace": trace,
           "commands": [["search", "--N", "4096", "--M", "8", "--K", "12", "--tol", "0.25"]],
           "probe": workloads.LAYER_PROBE, "spans_path": None}
    job_path, result_path = tmp_path / "job.json", tmp_path / "result.json"
    job_path.write_text(json.dumps(job))
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), str(job_path),
                    str(result_path)], check=True, timeout=120)
    return json.loads(result_path.read_text())


def test_untraced_run_installs_no_wrappers(tmp_path):
    untraced = _worker(tmp_path, False)
    assert untraced["wrapped_while_running"] == [] and untraced["wrapped"] == []
    assert "layer" not in untraced and untraced["traced_passes"] == []
    traced = _worker(tmp_path, True)
    assert "cli.minimal_odd_l" in traced["wrapped_while_running"]
    assert traced["wrapped"] == []


def test_tracer_spans_nest_and_uninstall_restores():
    original = cli.minimal_odd_l
    t = tracer.Tracer()
    t.install()
    try:
        cli.main(["search", "--N", "4096", "--M", "8", "--K", "12", "--tol", "0.25",
                  "--out", os.devnull])
    finally:
        t.uninstall()
    assert cli.minimal_odd_l is original and tracer.wrapped_names() == []
    by_id = {s[0]: s for s in t.spans}
    (main,) = [s for s in t.spans if s[2] == "cli.main"]
    (scan,) = [s for s in t.spans if s[2] == "diophantine.minimal_odd_l"]
    assert scan[1] == main[0] and main[3] <= scan[3] <= scan[4] <= main[4]
    assert all(s[1] in by_id or s is main for s in t.spans)
    metrics = tracer.layer_metrics(t.spans, t.counts, rows_out=1, bytes_out=1)
    total_self = sum(v for name, v in metrics.items() if name.endswith(".self_s"))
    assert total_self == pytest.approx(main[4] - main[3])
    assert metrics["diophantine.scans"] == 1 and metrics["diophantine.l_needed"] >= 1
