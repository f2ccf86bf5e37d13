"""Malformed input never escapes as a traceback.

Every JSON node of every bundled fixture, and of the README's structure and
signaling examples and an experiment matrix file, is replaced in turn by
``[]``, ``0``, ``null``, ``"x"`` or ``{}``, or deleted. Each mutated fixture
must run or raise an ``OracleGamesError``; each mutated command-line file
must exit 0 or 2. An unknown key added to a fixture, its structure, a player
or oracle entry, a claim, its arguments, an object nested in an argument, or
a named signaling, game or strategy entry that a claim names must be refused,
and so must one added to an experiment matrix or a plain matrix file. Every
rational string of a fixture or command-line file, replaced in turn by a
string outside the rational grammar, must be refused too, and the same string
in a claim's expected value must make that claim fail.
"""

import copy
import json

import pytest

from oraclegames import InputError, OracleGamesError, ResourceLimitError, cli, harness
from oraclegames.signaling import experiment_matrix, matrix_from_json, signaling_from_json
from oraclegames.types import parse_rational, structure_from_json

from test_readme import readme_json

# Fresh replacement values for every mutation; None stands for deletion.
REPLACEMENTS = (list, int, lambda: None, lambda: "x", dict, None)
# Strings outside the rational grammar: a decimal, an exponent whose value has
# millions of digits, a 5,000-digit denominator, non-ASCII digits and a digit
# separator.
RATIONAL_PROBES = ("0.5", "1e-4000000", "1/" + "3" * 5000, "\u0661/\u0662", "1_0")
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


def _node(data, path):
    for key in path:
        data = data[key]
    return data


def _rational_paths(data):
    """The path of every string value below ``data`` that ``parse_rational`` reads."""
    for path in _paths(data):
        value = _node(data, path)
        if isinstance(value, str):
            try:
                parse_rational(value)
            except InputError:
                continue
            yield path


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


def _claim_objects(data):
    """The path of every claim object, its arguments object, and each object
    nested in an argument. A garble map's keys are signals and an expected
    value is data, so neither holds fields."""
    for i, claim in enumerate(data["claims"]):
        yield ("claims", i)
        if "args" not in claim:
            continue
        yield ("claims", i, "args")
        for path in _paths(claim["args"]):
            if isinstance(_node(claim["args"], path), dict) and path[0] != "garble":
                yield ("claims", i, "args") + path


def _reader_objects(data):
    """The path of the fixture itself, its structure and each player and
    oracle entry."""
    yield ()
    yield ("structure",)
    for kind in ("players", "oracles"):
        for i in range(len(data["structure"].get(kind, []))):
            yield ("structure", kind, i)


def _named_entries(data):
    """The path of every named signaling, game and strategy entry a claim names."""
    for section in ("signalings", "games", "strategies"):
        for name in data.get(section, {}):
            if any(_claims_naming(data, name)):
                yield (section, name)


def test_no_unknown_key_is_accepted(tmp_path, capsys):
    refused = []
    for name in harness.available_fixtures():
        data = harness.load_fixture(name)
        base = harness.Fixture(data)
        for path in [*_reader_objects(data), *_claim_objects(data), *_named_entries(data)]:
            mutated = _mutated(data, path + ("unknown",), lambda: True)
            with pytest.raises(OracleGamesError):
                _evaluate(base, mutated, path + ("unknown",))
            refused.append((name, path, mutated))
    depths = {len(path) for _, path, _ in refused}
    assert {0, 1, 2, 3, 4} <= depths, depths  # fixtures, structures, claims, arguments, specs
    sections = {path[0] for _, path, _ in refused if len(path) == 2}
    assert {"claims", "signalings", "games", "strategies"} <= sections, sections
    experiment = _matrix_json()
    plain = {key: experiment[key] for key in ("states", "entries")}
    plain["columns"] = ["@".join(column) for column in experiment["columns"]]
    for matrix in (experiment, plain):
        matrix_from_json(matrix)
        with pytest.raises(InputError, match="unexpected 'unknown' field"):
            matrix_from_json(dict(matrix, unknown=True))
    for name, path, mutated in refused[:: len(refused) // 12]:
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


def _cli_files(tmp_path):
    """The README's structure and signaling examples and an experiment
    matrix, each written to ``tmp_path``, and the command lines that read
    each kind of file from a path given in place of the written one."""
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
    return files, good, verbs


def test_no_cli_file_mutation_exits_1(tmp_path, capsys):
    files, good, verbs = _cli_files(tmp_path)
    codes = set()
    for kind, makers in verbs.items():
        for make_args in makers:
            assert cli.main(make_args(good[kind])) == 0
            for node, code in _exit_codes(tmp_path, capsys, files[kind], make_args):
                assert code in (0, 2), (kind, make_args(kind), node, code)
                codes.add(code)
    assert codes == {0, 2}


def _claim_row(base, claim):
    """The result row of ``claim``, or a failing row when it is refused."""
    try:
        return harness.run_claim(base, claim)
    except OracleGamesError:
        return {"pass": False}


def test_no_string_outside_the_rational_grammar_is_accepted(tmp_path, capsys):
    # In process: every rational string of every fixture, each probe in turn.
    refused, accepted, failed = [], [], 0
    for name in harness.available_fixtures():
        data = harness.load_fixture(name)
        base = harness.Fixture(data)
        for path in _rational_paths(data):
            for probe in RATIONAL_PROBES:
                mutated = _mutated(data, path, lambda: probe)
                if path[0] == "claims" and path[2] == "expected":
                    assert not _claim_row(base, mutated["claims"][path[1]])["pass"], (name, path)
                    failed += 1
                    continue
                try:
                    _evaluate(base, mutated, path)
                except OracleGamesError:
                    refused.append((name, path, probe, mutated))
                else:
                    accepted.append((name, path, probe))
    assert not accepted, accepted
    assert len(refused) > 1000 and failed > 400, (len(refused), failed)
    # End to end: five refused mutations per probe, spread over the fixtures.
    written = tmp_path / "mutated.json"
    for probe in RATIONAL_PROBES:
        of_probe = [entry for entry in refused if entry[2] == probe]
        for name, path, _, mutated in of_probe[:: len(of_probe) // 4]:
            written.write_text(json.dumps(mutated))
            assert cli.main(["verify", str(written)]) == 2, (name, path)
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, (name, path, err)
    # Every rational string of every command-line file, through every verb that reads it.
    files, _, verbs = _cli_files(tmp_path)
    runs = 0
    for kind, makers in verbs.items():
        for path in _rational_paths(files[kind]):
            for probe in RATIONAL_PROBES:
                written.write_text(json.dumps(_mutated(files[kind], path, lambda: probe)))
                for make_args in makers:
                    assert cli.main(make_args(str(written))) == 2, (kind, path, probe)
                    err = capsys.readouterr().err
                    assert err.startswith("error: ") and err.count("\n") == 1, (kind, path, err)
                    runs += 1
    assert runs > 100, runs
