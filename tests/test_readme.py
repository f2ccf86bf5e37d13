"""The README's Python quick tour runs as written and shows what it says."""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick tour (Python)", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _shown(value) -> set:
    """The ways a tour comment may print a value: repr, str, or a tuple of
    exact rationals written as (1/2, 1/2, 0)."""
    forms = {repr(value), str(value)}
    if isinstance(value, tuple):
        forms.add("(" + ", ".join(map(str, value)) + ")")
    return forms


def test_readme_quick_tour_matches_its_comments():
    source = _tour()
    comments = [
        (tok.start[0], tok.string.lstrip("#").strip())
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    ]
    body = ast.parse(source).body
    namespace: dict = {}
    checked = 0
    for k, stmt in enumerate(body):
        stop = body[k + 1].lineno if k + 1 < len(body) else float("inf")
        said = [text for line, text in comments if stmt.lineno <= line < stop]
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), str(README), "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), str(README), "eval"), namespace)
        assert len(said) == 1, f"tour line {stmt.lineno} should state its value once"
        # A comment may run on after the value ("5 joint posterior profiles").
        assert said[0] in _shown(value) or said[0].split()[0] in _shown(value), (
            f"tour line {stmt.lineno}: comment {said[0]!r}, value {value!r}"
        )
        checked += 1
    assert checked == 6
