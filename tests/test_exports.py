"""The package's public names are consistent.

A stale ``__all__`` entry breaks ``from groverstop.<module> import *``, and a
name the package imports but its module does not list is public by accident.
"""

import ast
import importlib
from pathlib import Path

import pytest

import groverstop

MODULES = ("cli", "core_model", "diophantine", "statevector", "stopping_rule", "transforms")
RETIRED = ("TorusPoint", "torus_point", "strict_distance", "relaxed_score")
RETIRED_STRICT_RULE = ("NotApplicable", "GammaTooLarge", "require_applicable")
# Test-only oracles, now in tests/oracles.py, and the second gcd reduction.
RETIRED_TO_TESTS = [
    ("core_model", "chebyshev_T"),
    ("core_model", "chebyshev_residuals"),
    ("core_model", "state_after"),
    ("core_model", "SubspaceState"),
    ("statevector", "apply_oracle"),
    ("statevector", "grover_step"),
    ("statevector", "measure"),
    ("transforms", "reduce_common_divisor"),
]
# Records and one-line wrappers that only carried numbers to or from a formula.
RETIRED_CARRIERS = [
    ("transforms", "IterationBounds"),
    ("transforms", "iteration_bound"),
    ("stopping_rule", "gamma_upper_bound"),
    ("cli", "TableRow"),
]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"groverstop.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    for attr in module.__all__:
        assert hasattr(module, attr), f"groverstop.{name}.__all__ lists missing {attr!r}"
    namespace = {}
    exec(f"from groverstop.{name} import *", namespace)


def test_package_imports_only_listed_names():
    tree = ast.parse(Path(groverstop.__file__).read_text())
    imported = 0
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"groverstop.{node.module}")
            for alias in node.names:
                assert alias.name in module.__all__, f"{node.module}.{alias.name}"
                imported += 1
    assert imported > 0


@pytest.mark.parametrize("name", RETIRED)
def test_retired_point_api_is_gone(name):
    diophantine = importlib.import_module("groverstop.diophantine")
    assert not hasattr(groverstop, name)
    assert not hasattr(diophantine, name)
    assert name not in diophantine.__all__


@pytest.mark.parametrize("name", RETIRED_STRICT_RULE)
def test_retired_strict_rule_api_is_gone(name):
    stopping_rule = importlib.import_module("groverstop.stopping_rule")
    assert not hasattr(groverstop, name)
    assert not hasattr(stopping_rule, name)
    assert name not in stopping_rule.__all__


@pytest.mark.parametrize("module_name, name", RETIRED_TO_TESTS)
def test_retired_oracles_are_gone(module_name, name):
    module = importlib.import_module(f"groverstop.{module_name}")
    assert not hasattr(groverstop, name)
    assert not hasattr(module, name)
    assert name not in module.__all__


@pytest.mark.parametrize("module_name, name", RETIRED_CARRIERS)
def test_retired_carriers_are_gone(module_name, name):
    module = importlib.import_module(f"groverstop.{module_name}")
    assert not hasattr(groverstop, name)
    assert not hasattr(module, name)
    assert name not in module.__all__
