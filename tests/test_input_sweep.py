"""Malformed input never escapes as a traceback.

Every JSON node of every bundled fixture, and of the README's structure and
signaling examples and an experiment matrix file, is replaced in turn by
``[]``, ``0``, ``null``, ``"x"`` or ``{}``, or deleted. Each mutated fixture
must run or raise an ``OracleGamesError``; each mutated command-line file
must exit 0 or 2.
"""

import copy
import json

from oraclegames import OracleGamesError, ResourceLimitError, cli, harness
from oraclegames.signaling import experiment_matrix, signaling_from_json
from oraclegames.types import structure_from_json

from test_readme import readme_json

# Fresh replacement values for every mutation; None stands for deletion.
REPLACEMENTS = (list, int, lambda: None, lambda: "x", dict, None)
NAMED_SECTIONS = ("signalings", "games", "strategies", "profiles")


def _paths(value, path=()):
    """The path of every node below ``value``, parents before children."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutated(data, path, make):
    """``data`` with the node at ``path`` replaced by ``make()`` (deleted when
    ``make`` is None), copying only the containers on the path."""
    root = node = copy.copy(data)
    for key in path[:-1]:
        node[key] = copy.copy(node[key])
        node = node[key]
    if make is None:
        del node[path[-1]]
    else:
        node[path[-1]] = make()
    return root


def _mutations(data):
    for path in _paths(data):
        for make in REPLACEMENTS:
            yield path, _mutated(data, path, make)


def _strings(value) -> set:
    if isinstance(value, str):
        return {value}
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return set().union(*map(_strings, value))
    return set()


def _claims_naming(data, name):
    """The claims that name ``name``, directly or through a strategy they name."""
    strategies = data.get("strategies", {})
    for claim in data.get("claims", []):
        named = _strings(claim)
        for strategy in named & set(strategies):
            named |= _strings(strategies[strategy])
        if name in named:
            yield claim


def _evaluate(base: harness.Fixture, data, path) -> None:
    """Evaluate what the mutation at ``path`` can change: the claim under a
    mutated claim node, the claims that name a mutated named entry, or else
    the whole fixture."""
    if path[0] == "claims" and len(path) > 1:
        if path[1] < len(data["claims"]):
            harness.run_claim(base, data["claims"][path[1]])
    elif path[0] in NAMED_SECTIONS and len(path) > 1:
        fix = harness.Fixture(data)
        for claim in _claims_naming(data, path[1]):
            harness.run_claim(fix, claim)
    else:
        harness.run_fixture(data)


def test_no_fixture_mutation_escapes(tmp_path, capsys):
    refused = []
    for name in harness.available_fixtures():
        data = harness.load_fixture(name)
        base = harness.Fixture(data)
        for path, mutated in _mutations(data):
            try:
                _evaluate(base, mutated, path)
            except ResourceLimitError:
                pass
            except OracleGamesError:
                refused.append((name, path, mutated))
    assert len(refused) > 1000
    # A fixed sample of the refused mutations, run end to end.
    for name, path, mutated in refused[:: len(refused) // 24]:
        fixture = tmp_path / "mutated.json"
        fixture.write_text(json.dumps(mutated))
        assert cli.main(["verify", str(fixture)]) == 2, (name, path)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (name, path, err)


def _matrix_json():
    structure = structure_from_json(readme_json("Structure"))
    tau = signaling_from_json(structure, readme_json("Signaling"))
    return experiment_matrix(tau, structure.players[0]).as_json()


def _exit_codes(tmp_path, capsys, original, make_args):
    """(node, exit code of ``make_args(path)``) for every mutation of
    ``original``, each written to ``path``."""
    path = tmp_path / "mutated.json"
    for node, mutated in _mutations(original):
        path.write_text(json.dumps(mutated))
        yield node, cli.main(make_args(str(path)))
        capsys.readouterr()


def test_no_cli_file_mutation_exits_1(tmp_path, capsys):
    files = {
        "structure": readme_json("Structure"),
        "signaling": readme_json("Signaling"),
        "matrix": _matrix_json(),
    }
    good = {}
    for kind, data in files.items():
        good[kind] = str(tmp_path / f"{kind}.json")
        with open(good[kind], "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    verbs = {
        "structure": [
            lambda p: ["ckc", p],
            lambda p: ["post", p, good["signaling"]],
        ],
        "signaling": [
            lambda p: ["post", good["structure"], p],
            lambda p: ["matrix", good["structure"], p, "--player", "DM"],
        ],
        "matrix": [lambda p: ["garble-check", p, good["matrix"]]],
    }
    codes = set()
    for kind, makers in verbs.items():
        for make_args in makers:
            assert cli.main(make_args(good[kind])) == 0
            for node, code in _exit_codes(tmp_path, capsys, files[kind], make_args):
                assert code in (0, 2), (kind, make_args(kind), node, code)
                codes.add(code)
    assert codes == {0, 2}
