"""The runtime keeps the north star's two source rules: standard library
only, and no floats anywhere in the arithmetic."""

import ast
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
