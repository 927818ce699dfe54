"""The bench tracer's contract with the package, checked in-process.

``perfbench/tracer.py`` wraps functions by name (``cli.main``,
``statevector.simulate``, ``core_model.failure_probabilities`` and every
cross-module import) and reads fields of their results, so a rename in
``src/`` breaks traced bench runs.  This test installs the tracer, runs the
bench's layer probe through ``cli.main`` and checks that nothing stays wrapped.
The perfbench files are only read.
"""

import importlib.util
import sys
from pathlib import Path

from groverstop import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def test_layer_probe_runs_traced_and_unwraps(monkeypatch, capsys):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracer, workloads = _load("tracer"), _load("workloads")
    t = tracer.Tracer()
    t.install()
    try:
        codes = [cli.main(list(argv)) for argv in workloads.LAYER_PROBE]
    finally:
        t.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(workloads.LAYER_PROBE)
    assert tracer.wrapped_names() == []
    assert sum(1 for span in t.spans if span[2] == "cli.main") == len(workloads.LAYER_PROBE)
    metrics = tracer.layer_metrics(t.spans, t.counts, rows_out=1, bytes_out=1)
    assert metrics["stopping_rule.certified_ratio"] == 1.0  # the probe's rule certifies
    assert metrics["diophantine.scans"] >= 1 and metrics["statevector.trials"] > 0
