"""The runtime keeps the north star's two source rules: standard library
only, and no floats anywhere in the arithmetic.  Every function the
benchmark's span tracer wraps must exist under its recorded name, and so
must every name the benchmark imports from the library.  No top-level
definition is an orphan: each undecorated function and class is named
somewhere besides its own definition.  Only ``types._unchecked`` builds an
object without its constructor, only ``types`` builds a distribution that
way, only ``types`` reads a rational's integer form, and only ``types``
turns a partition mask into states."""

import ast
import importlib
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "oraclegames").glob("*.py"))


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
    spans = ROOT / "perfbench" / "spans.py"
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


def _benchmark_imports():
    """Every (script, module, name) the benchmark imports from the library,
    read from its sources without importing them; ``name`` is None for a
    plain ``import oraclegames...``."""
    found = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                pairs = [(alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                pairs = [(node.module, alias.name) for alias in node.names]
            else:
                pairs = []
            found.extend(
                pytest.param(path.name, module, name, id=f"{path.name}:{module}:{name or ''}")
                for module, name in pairs
                if module.split(".")[0] == "oraclegames"
            )
    assert found, "perfbench imports nothing from oraclegames"
    return found


@pytest.mark.parametrize("script, module, name", _benchmark_imports())
def test_every_name_the_benchmark_imports_exists(script, module, name):
    target = importlib.import_module(module)
    assert name is None or hasattr(target, name), f"perfbench/{script} imports {module}.{name}"


def _corpus():
    """The text of the library, the tests, the benchmark and the README."""
    paths = [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "tests").glob("*.py"))]
    paths += [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "README.md"]
    return {path: path.read_text(encoding="utf-8") for path in paths}


def _orphans(corpus):
    """Each undecorated top-level function and class of the library outside
    ``__init__.py`` that ``corpus`` names only in its own definition.  A
    whole-word match of an identifier is exactly one ``\\w+`` run, so the
    corpus's words are counted once and each name's count is compared."""
    words = Counter(w for text in corpus.values() for w in re.findall(r"\w+", text))
    orphans = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        lines = corpus[path].splitlines()
        for node in ast.parse(corpus[path]).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.decorator_list:
                continue
            own = re.findall(r"\w+", "\n".join(lines[node.lineno - 1 : node.end_lineno]))
            if words[node.name] == own.count(node.name):
                orphans.append(f"{path.name}:{node.lineno} {node.name}")
    return orphans


def test_every_definition_is_named_elsewhere():
    """Each undecorated top-level function and class of the library outside
    ``__init__.py`` is named in the library, the tests, the benchmark or
    the README somewhere besides its own definition."""
    orphans = _orphans(_corpus())
    assert not orphans, orphans


def test_the_orphan_rule_finds_a_planted_orphan():
    """A function named only inside its own body is found; naming it once
    elsewhere, or only as part of a longer word, decides as a whole-word
    match would."""
    name = "_".join(("planted", "orphan"))  # never written whole in this file
    corpus = _corpus()
    games = ROOT / "src" / "oraclegames" / "games.py"
    line = corpus[games].count("\n") + 3
    corpus[games] += f"\n\ndef {name}():\n    return {name}\n"
    readme = ROOT / "README.md"
    corpus[readme] += f"\n{name}s and x{name} and {name}_2\n"
    assert _orphans(corpus) == [f"games.py:{line} {name}"]
    corpus[readme] += f"\n`{name}`\n"
    assert _orphans(corpus) == []


def test_only_the_one_unchecked_builder_skips_a_constructor():
    """``__new__`` (``object.__new__`` or any other) is named in the library
    only inside ``types._unchecked``, so a fast path that skips a
    constructor's checks reuses that one builder."""
    found = []
    for path in SOURCES:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            named = (isinstance(n, ast.Attribute) and n.attr == "__new__" for n in ast.walk(top))
            if any(named):
                found.append(f"{path.name}:{getattr(top, 'name', top.lineno)}")
    assert found == ["types.py:_unchecked"]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "types.py"], ids=lambda p: p.name
)
def test_only_types_builds_a_distribution_unchecked(path):
    """No module but ``types`` passes ``Distribution`` or ``Prior`` to
    ``_unchecked``: every posterior is built by ``Distribution._on_block``."""
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).endswith("_unchecked")
        and node.args
        and ast.unparse(node.args[0]) in ("Distribution", "Prior")
    ]
    assert not found, found


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "types.py"], ids=lambda p: p.name
)
def test_only_types_reads_the_integer_form_of_a_rational(path):
    """No module but ``types`` names ``.numerator``, ``.denominator`` or
    ``gcd``: an integer path scales by ``types._over_lcm`` and reduces by
    ``types._reduced``, the one owner of that format."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.asname or node.name
        else:
            continue
        if name in ("numerator", "denominator", "gcd"):
            found.append(f"{path.name}:{getattr(node, 'lineno', '?')} {name}")
    assert not found, found


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "types.py"], ids=lambda p: p.name
)
def test_only_types_turns_a_mask_into_states(path):
    """No module but ``types`` names ``states_of``: a partition is built from
    its masks by ``Partition.from_masks``, so ``types`` owns the mask format."""
    text = path.read_text(encoding="utf-8")
    found = [
        f"{path.name}:{number}"
        for number, line in enumerate(text.splitlines(), 1)
        if re.search(r"\bstates_of\b", line)
    ]
    assert not found, found
