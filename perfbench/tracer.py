"""Span tracing of groverstop's layers, installed from outside the package.

``Tracer.install`` replaces every function that one groverstop module looks
up from another (``cli.minimal_odd_l``, ``stopping_rule.angles_of``, ...) by a
wrapper that records a span, plus three names that are looked up inside their
own module: ``cli.main`` (one span per command), ``statevector.simulate``
(called by ``run_discrimination``) and ``core_model.failure_probabilities``
(imported lazily by ``cli``).  A span's layer is the module that defines the
function.  ``uninstall`` puts the original functions back.

Spans (id, parent id, function, start, end, raised, run id) and the counts
taken at the same boundaries stay in memory until ``write_spans``.
``layer_metrics`` derives the per-layer metrics from them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time

LAYERS = ("cli", "core_model", "stopping_rule", "transforms", "diophantine", "statevector")
PACKAGE = "groverstop"
OWN_MODULE_TARGETS = (
    ("cli", "main"),
    ("statevector", "simulate"),
    ("core_model", "failure_probabilities"),
)
POINT_FUNCTIONS = ("torus_point", "strict_distance", "relaxed_score")
MARK = "__perfbench_span__"


def wrapped_names() -> list[str]:
    """Every `module.name` in the package that currently holds a tracing wrapper."""
    found = []
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, value in vars(module).items():
            if getattr(value, MARK, False):
                found.append(f"{layer}.{name}")
    return sorted(found)


def _targets():
    """(module, attribute name, original function, layer that defines it)."""
    modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    for layer, module in modules.items():
        for name, value in vars(module).items():
            if not inspect.isfunction(value):
                continue
            owner = value.__module__.rpartition(".")[2]
            if value.__module__.startswith(PACKAGE + ".") and owner != layer:
                yield module, name, value, owner
    for layer, name in OWN_MODULE_TARGETS:
        yield modules[layer], name, getattr(modules[layer], name), layer


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, function, t0, t1, raised, run)
        self.counts: dict[int, tuple] = {}  # span id -> what the boundary counted
        self.run = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, name, fn, layer in list(_targets()):
            self._saved.append((module, name, fn))
            setattr(module, name, self._wrap(fn, f"{layer}.{fn.__name__}"))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def _wrap(self, fn, qualname: str):
        spans, counts, stack = self.spans, self.counts, self._stack
        clock = time.perf_counter
        count = _COUNTERS.get(fn.__name__)
        sig = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, qualname, t0, t1, True, self.run))
                raise
            t1 = clock()
            stack.pop()
            spans.append((sid, parent, qualname, t0, t1, False, self.run))
            if count:
                counts[sid] = count(sig.bind(*args, **kwargs).arguments, result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,function,start_s,end_s,raised,run\n")
            for sid, parent, qualname, t0, t1, raised, run in self.spans:
                fh.write(f"{sid},{parent},{qualname},{t0!r},{t1!r},{int(raised)},{run}\n")


# Counts taken at a boundary, from the call's arguments and result.
_COUNTERS = {
    # (odd l needed up to the first hit or the horizon, found, first-hit l / horizon)
    "minimal_odd_l": lambda a, r: (
        (r.l + 1) // 2 if r.found else (r.horizon + 1) // 2,
        r.found,
        r.l / r.horizon if r.found else None,
    ),
    "simulate": lambda a, r: (a["N"] * a["m"],),  # amplitude-steps
    "run_discrimination": lambda a, r: (r.trials,),
    "certify": lambda a, r: (r.certified,),
}


def _median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, counts, rows_out: int, bytes_out: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (its spans and counts)."""
    child_time: dict[int, float] = {}
    for sid, parent, _, t0, t1, _, _ in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    raised = dict.fromkeys(LAYERS, 0)
    by_function: dict[str, list[tuple[int, float, float]]] = {}
    for sid, _, qualname, t0, t1, err, _ in spans:
        layer, _, function = qualname.partition(".")
        own = (t1 - t0) - child_time.get(sid, 0.0)
        calls[layer] += 1
        self_s[layer] += own
        raised[layer] += int(err)
        by_function.setdefault(function, []).append((sid, t1 - t0, own))

    def spans_of(function):
        return by_function.get(function, [])

    scans = spans_of("minimal_odd_l")
    scan_counts = [counts[sid] for sid, _, _ in scans if sid in counts]
    l_needed = sum(c[0] for c in scan_counts)
    scan_self = sum(own for _, _, own in scans)
    simulate_s = sum(dur for _, dur, _ in spans_of("simulate"))
    amp_steps = sum(counts[sid][0] for sid, _, _ in spans_of("simulate") if sid in counts)
    runs = spans_of("run_discrimination")
    trials = sum(counts[sid][0] for sid, _, _ in runs if sid in counts)
    sample_s = sum(dur for _, dur, _ in runs) - simulate_s
    certs = [counts[sid][0] for sid, _, _ in spans_of("certify") if sid in counts]
    triples = len(spans_of("check_applicability"))

    metrics = {
        "cli.self_s": self_s["cli"],
        "cli.us_per_row": _ratio(self_s["cli"] * 1e6, rows_out),
        "cli.bytes_out": bytes_out,
        "core_model.calls": calls["core_model"],
        "core_model.self_s": self_s["core_model"],
        "stopping_rule.calls": calls["stopping_rule"],
        "stopping_rule.self_s": self_s["stopping_rule"],
        "stopping_rule.us_per_triple": _ratio(self_s["stopping_rule"] * 1e6, triples),
        "stopping_rule.certified_ratio": _ratio(sum(certs), len(certs)),
        "transforms.calls": calls["transforms"],
        "transforms.self_s": self_s["transforms"],
        "diophantine.scans": len(scans),
        "diophantine.self_s": self_s["diophantine"],
        "diophantine.l_needed": l_needed,
        "diophantine.ns_per_l_needed": _ratio(scan_self * 1e9, l_needed),
        "diophantine.exhausted_ratio": _ratio(
            sum(1 for c in scan_counts if not c[1]), len(scan_counts)
        ),
        "diophantine.first_hit_frac_p50": _median_or_zero(
            [c[2] for c in scan_counts if c[1]]
        ),
        "diophantine.point_calls": sum(len(spans_of(f)) for f in POINT_FUNCTIONS),
        "statevector.simulate_s": simulate_s,
        "statevector.amp_steps": amp_steps,
        "statevector.ns_per_amp_step": _ratio(simulate_s * 1e9, amp_steps),
        "statevector.sample_s": sample_s,
        "statevector.trials": trials,
        "statevector.us_per_trial": _ratio(sample_s * 1e6, trials),
    }
    for layer in LAYERS:
        metrics[f"{layer}.raised"] = raised[layer]
    return metrics
