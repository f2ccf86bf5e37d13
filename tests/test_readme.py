"""The README's Python quick tour runs as written and shows what it says, and
its JSON examples parse and run through the command line."""

import ast
import io
import json
import re
import tokenize
from fractions import Fraction
from pathlib import Path

import oraclegames
from oraclegames import (
    best_common_payoff,
    cli,
    game_from_json,
    signaling_from_json,
    structure_from_json,
)

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


def readme_json(title: str) -> object:
    """The JSON example under the README's bold ``title`` in "JSON formats"."""
    section = README.read_text(encoding="utf-8").split("## JSON formats", 1)[1]
    after = section.split(f"**{title}**", 1)[1]
    return json.loads(re.search(r"```json\n(.*?)```", after, re.S).group(1))


def test_readme_json_examples_parse_and_run(tmp_path, capsys):
    structure = structure_from_json(readme_json("Structure"))
    tau = signaling_from_json(structure, readme_json("Signaling"))
    assert tau.signals == ("s1", "s2", "s3")
    game = game_from_json(structure, readme_json("Game"))
    assert game.actions == (("in", "out"), ("in", "out"))
    assert game.payoff("w3", ("out", "out")) == (2, 2)
    # Matching "in" on w1, w2 and "out" on w3, w4 is worth 2; the signaling
    # lets the players get part of the way there from 3/2.
    assert best_common_payoff(game, tau) == Fraction(29, 16)
    spath, tpath = tmp_path / "structure.json", tmp_path / "tau.json"
    spath.write_text(json.dumps(readme_json("Structure")))
    tpath.write_text(json.dumps(readme_json("Signaling")))
    assert cli.main(["ckc", str(spath)]) == 0
    assert cli.main(["post", str(spath), str(tpath)]) == 0
    assert capsys.readouterr().err == ""


def _resolves(name: str) -> bool:
    """``name`` is a package attribute, a dotted path from the package, or a
    method of an exported class."""
    target = oraclegames
    for part in name.split("."):
        target = getattr(target, part, None)
        if target is None:
            break
    else:
        return True
    return "." not in name and any(
        isinstance(getattr(oraclegames, exported), type)
        and hasattr(getattr(oraclegames, exported), name)
        for exported in oraclegames.__all__
    )


def test_readme_inside_bullets_name_only_public_api():
    section = README.read_text(encoding="utf-8").split("## What's inside", 1)[1]
    section = section.split("\n## ", 1)[0]
    bullets = "\n\n".join(p for p in section.split("\n\n") if p.startswith("- "))
    names = re.findall(r"`([A-Za-z_][\w.]*)`", bullets)
    assert len(names) > 30
    unresolved = sorted({name for name in names if not _resolves(name)})
    assert unresolved == []
