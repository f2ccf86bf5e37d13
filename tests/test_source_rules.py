"""The runtime keeps the north star's two source rules: standard library
only, and no floats anywhere in the arithmetic.  Every function the
benchmark's span tracer wraps must exist under its recorded name."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "oraclegames").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_is_stdlib_only_and_float_free(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots = [node.module.split(".")[0]]
        else:
            roots = []
        for root in roots:
            assert root in sys.stdlib_module_names, f"{where} imports {root}"
        if isinstance(node, ast.Constant):
            assert not isinstance(node.value, float), f"{where} has a float literal"
        assert not (isinstance(node, ast.Name) and node.id == "float"), f"{where} names float"


def _wrapped_paths():
    """The (module, attribute path) pairs the benchmark's span tracer wraps,
    read from its source without importing it."""
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    for node in ast.parse(spans.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "WRAPPED":
            return [(module, path) for _, module, path, _ in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/spans.py defines no WRAPPED table")


@pytest.mark.parametrize("module, path", _wrapped_paths(), ids=lambda v: v)
def test_every_wrapped_function_resolves(module, path):
    target = importlib.import_module(f"oraclegames.{module}")
    for name in path.split("."):
        assert hasattr(target, name), f"oraclegames.{module} has no {path}"
        target = getattr(target, name)
    assert callable(target)
