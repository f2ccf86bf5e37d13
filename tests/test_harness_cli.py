"""Fixture harness and command line interface."""

import json
import os
import subprocess
import sys
import time
from operator import delitem, setitem
from pathlib import Path

import pytest

from oraclegames import InputError, cli, games, harness


def test_every_bundled_fixture_passes():
    names = harness.available_fixtures()
    assert len(names) >= 10
    for name in names:
        report = harness.run_fixture(harness.load_fixture(name))
        assert harness.report_passed(report), harness.report_lines(report)
        assert report["fixture"] == name
        for claim in report["claims"]:
            assert claim["provenance"] in {"paper", "derived", "trivial"}
            assert claim["pass"] is True


def test_load_fixture_by_path(tmp_path):
    source = harness.load_fixture("one-dm")
    path = tmp_path / "copy.json"
    path.write_text(json.dumps(source))
    assert harness.load_fixture(str(path))["name"] == source["name"]
    with pytest.raises(InputError):
        harness.load_fixture("no-such-fixture")


def test_expect_error_claims():
    # A single-decision-maker structure cannot host the two-stage game.
    data = harness.load_fixture("one-dm")
    data["claims"] = [
        {
            "id": "two_stage_needs_two_players",
            "op": "two_stage_truthful_aggregate",
            "args": {"signaling": "tau2"},
            "expect_error": "domain",
            "provenance": "trivial",
        }
    ]
    report = harness.run_fixture(data)
    assert harness.report_passed(report), harness.report_lines(report)


def test_a_claim_may_give_its_signaling_inline():
    # Every claim names its signalings; given inline instead, each passes alike.
    data = harness.load_fixture("witness-two-stage")
    inlined = 0
    for claim in data["claims"]:
        for key, value in claim["args"].items():
            if isinstance(value, str) and value in data["signalings"]:
                claim["args"][key] = data["signalings"][value]
                inlined += 1
    assert inlined >= len(data["claims"])
    report = harness.run_fixture(data)
    assert harness.report_passed(report), harness.report_lines(report)
    claim = dict(data["claims"][0], args={"signaling": {"type": "stochastic"}})
    with pytest.raises(InputError, match="signaling needs an 'oracle' name"):
        harness.run_claim(harness.Fixture(data), claim)


def test_failing_claim_is_reported_not_raised():
    data = harness.load_fixture("one-dm")
    claim = next(c for c in data["claims"] if "expected" in c)
    claim["expected"] = {"deliberately": "wrong"}
    report = harness.run_fixture(data)
    assert not harness.report_passed(report)
    lines = harness.report_lines(report)
    assert any(line.startswith("FAIL") for line in lines)
    assert any(line.startswith("PASS") for line in lines)


def test_unknown_op_and_missing_fields_are_input_errors(tmp_path, capsys):
    data = harness.load_fixture("one-dm")
    bad = dict(data)
    bad["claims"] = [
        {"id": "x", "op": "no-such-op", "expected": 1, "provenance": "trivial"}
    ]
    with pytest.raises(InputError):
        harness.run_fixture(bad)
    bad["claims"] = [{"id": "x", "op": "ckc_count", "provenance": "trivial"}]
    with pytest.raises(InputError):
        harness.run_fixture(bad)
    # A missing argument is the fixture's fault, also where an error is expected.
    claim = {"id": "x", "op": "refines", "args": {"f1": "F1"}, "provenance": "trivial"}
    for outcome in ({"expected": True}, {"expect_error": "input"}):
        bad["claims"] = [dict(claim, **outcome)]
        with pytest.raises(InputError, match="claim 'x' is missing argument 'f2'"):
            harness.run_fixture(bad)
    path = tmp_path / "missing-argument.json"
    path.write_text(json.dumps(bad))
    assert cli.main(["verify", str(path)]) == 2
    assert "claim 'x' is missing argument 'f2'" in capsys.readouterr().err


def test_cli_verify_all_and_exit_codes(capsys):
    assert cli.main(["verify", "--all"]) == 0
    out = capsys.readouterr().out
    assert "claims passed" in out
    golden = Path(__file__).parent.parent / "perfbench" / "golden" / "verify-all.txt"
    assert out == golden.read_text(encoding="utf-8")

    assert cli.main(["verify", "rock-concert", "one-dm"]) == 0
    capsys.readouterr()

    assert cli.main(["verify", "does-not-exist"]) == 2
    capsys.readouterr()

    assert cli.main(["verify"]) == 2  # no fixtures named, no --all
    capsys.readouterr()

    assert cli.main(["fixtures"]) == 0
    out = capsys.readouterr().out
    assert "rock-concert" in out


def _given_event_args(data):
    claims = data["claims"]
    return next(c for c in claims if c["op"] == "expected_payoffs_given_event")["args"]


def _payoffs(data):
    return data["games"]["concert"]["payoffs"]


# (what the error message names, how rock-concert is broken)
MALFORMED = [
    ("payoffs row 'n1'", lambda d: setitem(_payoffs(d), "n1", [])),
    ("payoff entry 'n1': 'D|D'", lambda d: setitem(_payoffs(d)["n1"], "D|D", "-3")),
    (
        "strategy of player 'Band1'",
        lambda d: setitem(d["strategies"]["guided"]["players"], "Band1", []),
    ),
    (
        "strategy 'guided' is missing its 'game'",
        lambda d: delitem(d["strategies"]["guided"], "game"),
    ),
    ("args must be a JSON object", lambda d: setitem(d["claims"][0], "args", ["F1"])),
    ("structure 'players'", lambda d: setitem(d["structure"], "players", "Band1")),
    ("a player entry", lambda d: setitem(d["structure"]["players"], 0, "Band1")),
    ("structure 'oracles'", lambda d: setitem(d["structure"], "oracles", "F1")),
    ("fixture 'games'", lambda d: setitem(d, "games", ["concert"])),
    ("fixture 'signalings'", lambda d: setitem(d, "signalings", ["guided"])),
    ("fixture 'claims'", lambda d: setitem(d, "claims", {"id": "x"})),
    ("claim argument 'event'", lambda d: setitem(_given_event_args(d), "event", 5)),
    # A log-score game has no JSON form; a game file that still says so is
    # not read as rational payoffs.
    (
        "game 'concert' has a 'log_domain' field",
        lambda d: setitem(d["games"]["concert"], "log_domain", True),
    ),
    ("not a rational: '-inf'", lambda d: setitem(_payoffs(d)["n1"], "D|D", ["-inf", "-3"])),
]


@pytest.mark.parametrize("section, edit", MALFORMED)
def test_cli_verify_exits_2_naming_a_malformed_section(tmp_path, capsys, section, edit):
    data = harness.load_fixture("rock-concert")
    edit(data)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    assert cli.main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert section in err and err.count("\n") == 1 and err.startswith("error: ")


def _claim_of(data, op):
    return next(c for c in data["claims"] if c["op"] == op)


def test_a_mixed_claim_expecting_minus_infinity_fails_without_raising():
    data = harness.load_fixture("witness-kld-combined")
    claim = _claim_of(data, "combined_truthful_aggregate")
    assert harness.run_claim(harness.Fixture(data), claim)["pass"] is True
    claim["expected"]["log"] = "-inf"
    row = harness.run_claim(harness.Fixture(data), claim)
    assert row["pass"] is False and row["expected"]["log"] == "-inf"


def _mixed_expected(data):
    return _claim_of(data, "combined_truthful_aggregate")["expected"]


# (fixture, what the error message names, how one of its claims is broken)
MALFORMED_CLAIMS = [
    (
        "witness-permutation",
        "action labels must be nonempty strings",
        lambda d: setitem(_claim_of(d, "permutation_payoff_row")["args"], "action", ["x"]),
    ),
    (
        "rock-concert",
        "action labels must be nonempty strings",
        lambda d: setitem(_claim_of(d, "ned_mass")["args"], "actions", [["M"], "D"]),
    ),
    (
        "rock-concert",
        "claim argument 'actions'",
        lambda d: setitem(_claim_of(d, "ned_mass")["args"], "actions", {"M": "D"}),
    ),
    (
        "one-dm",
        "claim argument 'm1' must be a JSON object",
        lambda d: setitem(_claim_of(d, "garbling")["args"], "m1", "tau2"),
    ),
    (
        "one-dm",
        "claim argument 'm2' is missing its 'partition' field",
        lambda d: delitem(_claim_of(d, "garbling")["args"]["m2"], "partition"),
    ),
    (
        "one-dm",
        "claim argument 'm1' is missing its 'signaling' field",
        lambda d: delitem(_claim_of(d, "garbling")["args"]["m1"], "signaling"),
    ),
    (
        "witness-kld-combined",
        "mixed 'expected' must be a JSON object",
        lambda d: setitem(_claim_of(d, "combined_truthful_aggregate"), "expected", "-1"),
    ),
    (
        "witness-kld-combined",
        "mixed 'expected' is missing its 'log' field",
        lambda d: delitem(_mixed_expected(d), "log"),
    ),
    (
        "witness-kld-combined",
        "mixed 'expected' is missing its 'rational' field",
        lambda d: delitem(_mixed_expected(d), "rational"),
    ),
    (
        "witness-kld-combined",
        "mixed 'expected' log denom must be an integer",
        lambda d: setitem(_mixed_expected(d)["log"], "denom", "1/2"),
    ),
    (
        "witness-kld-combined",
        "floats are not accepted",
        lambda d: setitem(_mixed_expected(d)["log"], "denom", 1.5),
    ),
    # Claims about outcomes or profiles that cannot exist are refused, not
    # answered with a mass of 0 or a membership of false.
    (
        "rock-concert",
        "unknown state 'nowhere' in claim argument 'state'",
        lambda d: setitem(_claim_of(d, "ned_mass")["args"], "state", "nowhere"),
    ),
    (
        "rock-concert",
        "claim argument 'actions' ['Q', 'Z'] is not an action profile of the game",
        lambda d: setitem(_claim_of(d, "ned_mass")["args"], "actions", ["Q", "Z"]),
    ),
    (
        "rock-concert",
        "claim argument 'actions' ['M'] is not an action profile of the game",
        lambda d: setitem(_claim_of(d, "ned_mass")["args"], "actions", ["M"]),
    ),
    (
        "stochastic-imi-fail",
        "claim argument 'profile' must hold 2 posteriors, one per player, not 1",
        lambda d: d["profiles"]["w1-s2-profile"].pop(),
    ),
    (
        "stochastic-imi-fail",
        "claim argument 'profile' must hold 2 posteriors, one per player, not 3",
        lambda d: d["profiles"]["w1-s2-profile"].append(["1", "0", "0", "0"]),
    ),
    (
        "unique-ckc-3-player",
        "claim argument 'profile' must hold 3 posteriors, one per player, not 2",
        lambda d: d["profiles"]["w1-s1-profile"].pop(),
    ),
    # A misspelt error kind is not a failed claim, nor a misspelt comparison
    # an exact one.
    (
        "one-dm",
        "claim 'experiment-row-w1' expect_error must be 'input', 'domain' or 'resource', "
        "got 'inputt'",
        lambda d: setitem(d["claims"][0], "expect_error", "inputt"),
    ),
    (
        "one-dm",
        "claim 'experiment-row-w1' compare must be 'mixed', got 'mixd'",
        lambda d: setitem(d["claims"][0], "compare", "mixd"),
    ),
    # An argument the operation does not declare is a typo or a leftover,
    # also on a claim that expects an error.
    (
        "witness-two-stage",
        "claim 'truthful-aggregate' has argument 'penalty', "
        "which operation 'two_stage_truthful_aggregate' does not read",
        lambda d: _claim_of(d, "two_stage_truthful_aggregate")["args"].update(
            penalty="1/2", typo=1
        ),
    ),
    (
        "stochastic-imi-fail",
        "claim 'dominance-needs-unique-component' has argument 'f3', "
        "which operation 'unique_dominates' does not read",
        lambda d: setitem(_claim_of(d, "unique_dominates")["args"], "f3", "F1"),
    ),
    # Each spec form is one exact key set, and a flag is exactly true: a
    # partition is named, listed, or {"trivial": true}.
    (
        "imi-vs-refinement",
        "cannot interpret partition spec {'oracle': 'F1'}",
        lambda d: setitem(_claim_of(d, "refines")["args"], "f1", {"oracle": "F1"}),
    ),
    (
        "imi-vs-refinement",
        "cannot interpret partition spec {'trivial': 'no'}",
        lambda d: setitem(_claim_of(d, "refines")["args"], "f1", {"trivial": "no"}),
    ),
    (
        "imi-vs-refinement",
        "cannot interpret partition spec {'trivial': True, 'oracle': 'F1'}",
        lambda d: setitem(
            _claim_of(d, "refines")["args"], "f1", {"trivial": True, "oracle": "F1"}
        ),
    ),
    (
        "common-objective",
        "cannot interpret signaling spec {'reveal': 'F1', 'uninformative': True}",
        lambda d: setitem(
            _claim_of(d, "best_common")["args"],
            "signaling",
            {"reveal": "F1", "uninformative": True},
        ),
    ),
    (
        "one-dm",
        "claim argument 'm1' has an unexpected 'oracle' field",
        lambda d: setitem(_claim_of(d, "garbling")["args"]["m1"], "oracle", "F1"),
    ),
    # A claim holds only its own fields, exactly one outcome, and a known
    # provenance.
    (
        "one-dm",
        "claim 'experiment-row-w1' has an unexpected 'expectd' field",
        lambda d: setitem(d["claims"][0], "expectd", ["0"]),
    ),
    (
        "one-dm",
        "claim 'experiment-row-w1' has an unexpected 'expected' field",
        lambda d: setitem(d["claims"][0], "expect_error", "input"),
    ),
    (
        "one-dm",
        "claim 'experiment-row-w1' provenance must be 'paper', 'derived' or 'trivial', "
        "got 'paperr'",
        lambda d: setitem(d["claims"][0], "provenance", "paperr"),
    ),
]


@pytest.mark.parametrize("fixture, section, edit", MALFORMED_CLAIMS)
def test_cli_verify_exits_2_naming_a_malformed_claim(
    tmp_path, capsys, fixture, section, edit
):
    data = harness.load_fixture(fixture)
    edit(data)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    assert cli.main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert section in err and err.count("\n") == 1 and err.startswith("error: ")


def test_every_operation_and_argument_is_used_by_a_bundled_claim():
    used = {}
    for name in harness.available_fixtures():
        for claim in harness.load_fixture(name)["claims"]:
            used.setdefault(claim["op"], set()).update(claim.get("args", {}))
    assert sorted(used) == sorted(harness.OPS)
    for name, (_, params) in harness.OPS.items():
        assert set(params) == used[name], name


def test_cli_report_json_shape(capsys):
    assert cli.main(["report", "one-dm", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fixture"] == "one-dm"
    assert {"id", "op", "pass", "provenance", "expected", "actual"} <= set(
        payload["claims"][0]
    )
    assert cli.main(["report", "one-dm", "rock-concert", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert isinstance(payload, list) and len(payload) == 2
    assert cli.main(["report", "one-dm", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS")


def test_cli_detects_claim_failures(tmp_path, capsys):
    data = harness.load_fixture("one-dm")
    claim = next(c for c in data["claims"] if "expected" in c)
    claim["expected"] = {"deliberately": "wrong"}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    assert cli.main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def _write_structure(tmp_path, fixture_name):
    fixture = harness.load_fixture(fixture_name)
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(fixture["structure"]))
    return fixture, path


def test_cli_ckc_verb(tmp_path, capsys):
    _, spath = _write_structure(tmp_path, "rock-concert")
    assert cli.main(["ckc", str(spath)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "components" in out


def test_cli_relation_verbs(tmp_path, capsys):
    _, spath = _write_structure(tmp_path, "rock-concert")
    assert cli.main(["imi", str(spath), "F1", "F2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["holds"] is True and out["witness"] is None

    assert cli.main(["imi", str(spath), "F2", "F1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["holds"] is False and out["witness"] is not None

    assert cli.main(["dominates", "--mode", "unique-ckc", str(spath), "Fall", "F1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["holds"] is True

    assert cli.main(["dominates", "--mode", "deterministic", str(spath), "F1", "F2"]) == 0
    capsys.readouterr()

    assert cli.main(["common-objective", str(spath), "F1", "F2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["relation"] == "common-objective"

    assert cli.main(["imi", str(spath), "F1", "nope"]) == 2
    capsys.readouterr()


def test_cli_imi_exits_3_past_the_coarsening_cap(tmp_path, capsys):
    # The first oracle does not refine the second, whose 11 blocks are past
    # the cap of 10, so the scan is refused before it starts.
    states = [f"w{i}" for i in range(11)]
    structure = {
        "states": states,
        "prior": ["1/11"] * 11,
        "players": [{"name": "P", "partition": [states]}],
        "oracles": [
            {"name": "F1", "partition": [states]},
            {"name": "F2", "partition": [[s] for s in states]},
        ],
    }
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(structure))
    assert cli.main(["imi", str(path), "F1", "F2"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "capped at 10 blocks" in err


def test_cli_verbs_in_one_process_match_separate_runs(tmp_path, capsys):
    fixture, spath = _write_structure(tmp_path, "witness-two-stage")
    tpath = tmp_path / "tau.json"
    tpath.write_text(json.dumps(fixture["signalings"]["tau2"]))
    s, t = str(spath), str(tpath)
    runs = [
        ["ckc", s],
        ["imi", s, "F2", "F1"],
        ["imi", s, "F1", "nope"],
        ["dominates", "--mode", "unique-ckc", s, "F1", "F2"],
        ["imi"],
        ["post", s, t],
        ["matrix", s, t, "--player", "P1"],
        ["common-objective", s, "F1", "F2"],
        ["fixtures"],
    ]
    in_process = []
    for argv in runs:
        code = cli.main(argv)
        in_process.append((code, capsys.readouterr().out))
    separate = [
        subprocess.run(
            [sys.executable, "-m", "oraclegames.cli", *argv],
            capture_output=True,
            text=True,
            timeout=120,
        )
        for argv in runs
    ]
    assert in_process == [(proc.returncode, proc.stdout) for proc in separate]
    assert {code for code, _ in in_process} == {0, 2}


def test_cli_post_and_matrix_verbs(tmp_path, capsys):
    fixture, spath = _write_structure(tmp_path, "witness-two-stage")
    tpath = tmp_path / "tau.json"
    tpath.write_text(json.dumps(fixture["signalings"]["tau2"]))
    assert cli.main(["post", str(spath), str(tpath)]) == 0
    out = capsys.readouterr().out
    assert "2/5" in out
    assert cli.main(["matrix", str(spath), str(tpath), "--player", "P1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "entries" in out and "columns" in out
    assert cli.main(["matrix", str(spath), str(tpath), "--player", "nobody"]) == 2
    capsys.readouterr()


def test_cli_garble_check_verb(tmp_path, capsys):
    base = {
        "states": ["w1", "w2"],
        "columns": ["a", "b"],
        "entries": {"w1": ["1/2", "1/2"], "w2": ["0", "1"]},
    }
    target = {
        "states": ["w1", "w2"],
        "columns": ["c"],
        "entries": {"w1": ["1"], "w2": ["1"]},
    }
    bpath = tmp_path / "base.json"
    bpath.write_text(json.dumps(base))
    tpath = tmp_path / "target.json"
    tpath.write_text(json.dumps(target))
    assert cli.main(["garble-check", str(bpath), str(tpath)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["exists"] is True and "garbling" in out
    # The reverse direction would have to manufacture information.
    assert cli.main(["garble-check", str(tpath), str(bpath)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["exists"] is False


@pytest.mark.parametrize(
    "edit",
    [
        lambda tau: setitem(tau["kernel"], "w1", ["s1", "1"]),
        lambda tau: setitem(tau["kernel"]["w1"], "typo", "0"),
        lambda tau: setitem(tau, "signals", "s1"),
    ],
    ids=["list-row", "unknown-signal", "signals-not-a-list"],
)
def test_cli_post_exits_2_on_a_malformed_signaling(tmp_path, capsys, edit):
    fixture, spath = _write_structure(tmp_path, "witness-two-stage")
    tau = fixture["signalings"]["tau2"]
    edit(tau)
    tpath = tmp_path / "tau.json"
    tpath.write_text(json.dumps(tau))
    assert cli.main(["post", str(spath), str(tpath)]) == 2
    assert "error" in capsys.readouterr().err.lower()


def test_cli_post_exits_2_on_a_stray_assignment_key(tmp_path, capsys):
    _, spath = _write_structure(tmp_path, "one-dm")
    tau = {
        "type": "deterministic",
        "oracle": "F2",
        "assignment": {"block0": "a", "block1": "b", "blokc2": "c"},
    }
    tpath = tmp_path / "tau.json"
    tpath.write_text(json.dumps(tau))
    assert cli.main(["post", str(spath), str(tpath)]) == 2
    assert "'blokc2'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: delitem(m, "columns"), "matrix is missing its 'columns' field"),
        (
            lambda m: setitem(m, "columns", [["a", "b0", "x"], ["b", "b0", "x"]]),
            "matrix column ['a', 'b0', 'x'] is not a [signal, label] pair",
        ),
        (
            lambda m: setitem(m, "entries", [["1/2", "1/2"], ["0", "1"]]),
            "matrix 'entries' must be a JSON object, got [['1/2', '1/2'], ['0', '1']]",
        ),
        (
            lambda m: setitem(m, "blocks", [["w1", "w2"]]),
            "matrix 'blocks' must be a JSON object, got [['w1', 'w2']]",
        ),
        (
            lambda m: setitem(m, "blocks", {"b0": ["w1", "w2"], "b1": ["zz"]}),
            "matrix block 'b1' names unknown state 'zz'",
        ),
        (
            lambda m: setitem(m, "blocks", {"b0": ["w1", "w2"], "b1": ["w2"]}),
            "matrix block 'b1' repeats state 'w2'",
        ),
        (
            lambda m: setitem(m["entries"], "w2", ["-1", "2"]),
            "matrix row for state 'w2' has negative probability -1 at column 'a@b0'",
        ),
        (
            lambda m: setitem(m, "blocks", {"b0": ["w1"], "b1": ["w2"]}),
            "matrix row for state 'w2' is positive at column 'b@b0' outside its block",
        ),
        (
            lambda m: setitem(m, "columns", [["a", "b9"], ["b", "b0"]]),
            "matrix column 'a@b9' references unknown block 'b9'",
        ),
        (
            lambda m: setitem(m["entries"], "w1", [0.5, "1/2"]),
            "matrix row for state 'w1': not a rational: 0.5 (floats are not accepted)",
        ),
    ],
    ids=[
        "no-columns",
        "columns-not-pairs",
        "entries-not-object",
        "blocks-not-object",
        "block-of-an-unknown-state",
        "overlapping-blocks",
        "negative-entry",
        "positive-outside-its-block",
        "column-of-an-unknown-block",
        "float-entry",
    ],
)
def test_cli_garble_check_exits_2_on_a_malformed_matrix(tmp_path, capsys, edit, message):
    matrix = {
        "states": ["w1", "w2"],
        "columns": [["a", "b0"], ["b", "b0"]],
        "entries": {"w1": ["1/2", "1/2"], "w2": ["0", "1"]},
        "blocks": {"b0": ["w1", "w2"]},
    }
    good = tmp_path / "good.json"
    good.write_text(json.dumps(matrix))
    edit(matrix)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(matrix))
    assert cli.main(["garble-check", str(good), str(good)]) == 0
    capsys.readouterr()
    assert cli.main(["garble-check", str(bad), str(good)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_garble_check_names_the_row_of_a_float_in_a_plain_matrix(tmp_path, capsys):
    matrix = {"states": ["w1", "w2"], "columns": ["x", "y"]}
    matrix["entries"] = {"w1": [0.5, "1/2"], "w2": ["0", "1"]}
    path = tmp_path / "plain.json"
    path.write_text(json.dumps(matrix))
    assert cli.main(["garble-check", str(path), str(path)]) == 2
    message = "matrix row for state 'w1': not a rational: 0.5 (floats are not accepted)"
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "probe, shown",
    [
        ("0.5", "'0.5'"),
        ("1e-4000000", "'1e-4000000'"),
        ("1/" + "3" * 5000, "a part of more than 1000 digits"),
        ("١/٢", "'١/٢'"),
        ("1_0", "'1_0'"),
    ],
    ids=["decimal", "huge-exponent", "5000-digit-denominator", "arabic-indic-digits", "underscore"],
)
def test_cli_garble_check_refuses_a_string_outside_the_rational_grammar(
    tmp_path, capsys, probe, shown
):
    """Each probe is refused (exit 2, one error line naming the row) in
    milliseconds; an exponent no longer costs superlinear time."""
    matrix = {"states": ["w1", "w2"], "columns": ["x", "y"]}
    matrix["entries"] = {"w1": [probe, "1/2"], "w2": ["0", "1"]}
    path = tmp_path / "plain.json"
    path.write_text(json.dumps(matrix, ensure_ascii=False), encoding="utf-8")
    start = time.perf_counter()
    assert cli.main(["garble-check", str(path), str(path)]) == 2
    assert time.perf_counter() - start < 0.5
    message = f"matrix row for state 'w1': not a rational: {shown}"
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_post_names_the_row_of_a_float_in_a_kernel(tmp_path, capsys):
    fixture, spath = _write_structure(tmp_path, "witness-two-stage")
    tau = fixture["signalings"]["tau2"]
    tau["kernel"]["w2"]["s1"] = 0.25
    tpath = tmp_path / "tau.json"
    tpath.write_text(json.dumps(tau))
    assert cli.main(["post", str(spath), str(tpath)]) == 2
    message = "kernel row for state 'w2': not a rational: 0.25 (floats are not accepted)"
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_names_the_state_of_a_float_in_a_prior(tmp_path, capsys):
    fixture, spath = _write_structure(tmp_path, "witness-two-stage")
    structure = fixture["structure"]
    structure["prior"]["w3"] = 0.25
    spath.write_text(json.dumps(structure))
    assert cli.main(["ckc", str(spath)]) == 2
    message = "prior mass at state 'w3': not a rational: 0.25 (floats are not accepted)"
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_names_the_partition_with_an_unknown_state(tmp_path, capsys):
    fixture, spath = _write_structure(tmp_path, "rock-concert")
    structure = fixture["structure"]
    structure["players"][1]["partition"][0].append("zz")
    spath.write_text(json.dumps(structure))
    assert cli.main(["ckc", str(spath)]) == 2
    name = structure["players"][1]["name"]
    assert capsys.readouterr().err == f"error: player '{name}' partition: unknown state 'zz'\n"


def test_cli_usage_errors(capsys, tmp_path):
    assert cli.main([]) == 2
    capsys.readouterr()
    assert cli.main(["no-such-verb"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["ckc", str(bad)]) == 2
    capsys.readouterr()


def test_cli_exits_2_on_unreadable_input(tmp_path, capsys):
    assert cli.main(["ckc", str(tmp_path)]) == 2
    assert str(tmp_path) in capsys.readouterr().err
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    assert cli.main(["verify", str(latin1)]) == 2
    assert str(latin1) in capsys.readouterr().err


def test_cli_verify_exits_2_on_an_unknown_permutation_action(tmp_path, capsys):
    data = harness.load_fixture("witness-permutation")
    claim = next(c for c in data["claims"] if c["op"] == "permutation_payoff_row")
    claim["args"]["action"] = "b9:w1"
    path = tmp_path / "unknown-action.json"
    path.write_text(json.dumps(data))
    assert cli.main(["verify", str(path)]) == 2
    assert "no payoff entry" in capsys.readouterr().err


def test_cli_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "oraclegames.cli", "verify", "--all"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "claims passed" in proc.stdout


@pytest.mark.parametrize(
    "argv", [["verify", "--all"], ["report", "--all", "--format", "json"]], ids=" ".join
)
def test_cli_output_does_not_depend_on_the_hash_seed(argv):
    outputs = [
        subprocess.run(
            [sys.executable, "-m", "oraclegames.cli", *argv],
            capture_output=True,
            timeout=120,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        for seed in ("0", "1")
    ]
    assert [proc.returncode for proc in outputs] == [0, 0]
    assert outputs[0].stdout == outputs[1].stdout and outputs[0].stdout


def test_fixture_builds_each_two_stage_game_once(monkeypatch):
    built = []
    build = games.TwoStageGame.__init__

    def counting_build(self, structure, tau):
        built.append(tau)
        build(self, structure, tau)

    monkeypatch.setattr(games.TwoStageGame, "__init__", counting_build)
    report = harness.run_fixture(harness.load_fixture("witness-two-stage"))
    assert harness.report_passed(report) and len(report["claims"]) == 6
    assert len(built) == 1
    # The combined game is built on the stage the stage-drop claim uses.
    built.clear()
    assert harness.report_passed(harness.run_fixture(harness.load_fixture("witness-kld-combined")))
    assert len(built) == 1
