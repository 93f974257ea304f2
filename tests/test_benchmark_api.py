"""The names of levring that the levbench harness reads all exist.

levbench calls the package through its modules' attributes
(``pipeline.solve_point``, ``dynamics.build_model``, ...), hooks some
of them by dotted name in ``spans.py``, and reads
``levring._kernels.JIT_ENABLED`` for its report.  These tests read those
names from the harness's source, so a change that deletes or renames
one fails here, not only when the benchmark runs.
"""
import ast
import importlib
import pathlib

import pytest

LEVBENCH = pathlib.Path(__file__).resolve().parents[1] / "levbench"
MODULES = ("cli", "dynamics", "entanglement", "model", "pipeline", "spectra",
           "steady_state")


def parsed(name):
    return ast.parse((LEVBENCH / name).read_text(), name)


def workload_names():
    """(module, attribute) of every `module.attribute` in workloads.py
    whose module is one of MODULES, and of every name it imports from a
    levring module."""
    names = set()
    for node in ast.walk(parsed("workloads.py")):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in MODULES):
            names.add((node.value.id, node.attr))
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.startswith("levring.")):
            module = node.module.removeprefix("levring.")
            names.update((module, alias.name) for alias in node.names)
    return sorted(names)


def hooked_names():
    """(module, function) of every key of spans.py's AFTER and BEFORE
    hooks, "module.function" strings."""
    keys = []
    for node in parsed("spans.py").body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] in (["AFTER"], ["BEFORE"])):
            keys += [key.value for key in node.value.keys]
    return sorted(tuple(key.split(".")) for key in keys)


def test_the_harness_names_some_of_every_module():
    modules = {module for module, _ in workload_names()}
    assert modules >= set(MODULES)
    assert ("dynamics", "build_model") in workload_names()
    assert ("entanglement", "lyapunov_residual") in workload_names()
    assert len(hooked_names()) >= 5


@pytest.mark.parametrize("module, name", workload_names())
def test_workload_name_exists(module, name):
    assert hasattr(importlib.import_module(f"levring.{module}"), name)


@pytest.mark.parametrize("module, name", hooked_names())
def test_hooked_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"levring.{module}"),
                            name, None))


def test_jit_flag_exists():
    assert "JIT_ENABLED" in (LEVBENCH / "run.py").read_text()
    assert isinstance(importlib.import_module("levring._kernels").JIT_ENABLED,
                      bool)
