"""The names the benchmark under ``perfbench/`` imports from hingekit.

``perfbench/run.py`` and ``perfbench/workloads.py`` call into the package
by dotted name, and the tracer wraps every ``__all__`` entry of its layer
modules. Moving or renaming any of these would pass the unit tests and
break every benchmark run, so this file reads the benchmark's sources
(without importing or editing them) and checks that each name resolves.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

from hingekit import cli

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def _tuple_constant(path: Path, name: str) -> tuple:
    """Literal value of a module-level ``name = (...)`` in a source file."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} has no {name}")


def _benchmark_calls() -> list[tuple[str, str]]:
    text = (BENCH / "run.py").read_text() + (BENCH / "workloads.py").read_text()
    return sorted(set(re.findall(r"hingekit\.(\w+)\.(\w+)", text)))


def test_benchmark_reads_at_least_the_fifteen_known_names():
    assert len(_benchmark_calls()) >= 15


@pytest.mark.parametrize("module, attr", _benchmark_calls(), ids=".".join)
def test_each_name_the_benchmark_calls_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"hingekit.{module}"), attr))


def test_sweep_accepts_workers():
    assert "workers" in inspect.signature(cli.sweep).parameters


def test_tracer_layers_exist_with_all():
    layers = _tuple_constant(BENCH / "tracer.py", "LAYERS")
    assert len(layers) == 7
    for layer in layers:
        assert importlib.import_module(f"hingekit.{layer}").__all__


def test_source_line_modules_exist():
    modules = _tuple_constant(BENCH / "run.py", "MODULES")
    assert len(modules) == 9
    for name in modules:
        assert (ROOT / "src" / "hingekit" / f"{name}.py").is_file()
