"""The game-solve answers stored in ``perfbench/golden/game-solve.json`` still
come out of the library.  Each stored round is rebuilt with the benchmark's
own ``inputs`` and ``queries`` scripts, and every canonical answer is
compared with the stored one, so a game-layer change that moves an answer
fails here and not only in a benchmark run.  The scripts are compiled from
their source text, so nothing is written under ``perfbench/``."""

import json
import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _script(name: str) -> types.ModuleType:
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def test_game_solve_answers_equal_the_golden_file():
    inputs, queries = _script("inputs"), _script("queries")
    golden = json.loads((PERFBENCH / "golden" / "game-solve.json").read_text(encoding="utf-8"))
    assert golden["workload"] == "game-solve" and golden["rounds"]
    for r, stored in enumerate(golden["rounds"]):
        specs = inputs.generate_round("game-solve", golden["seed"], r, [])
        built = queries.build_round("game-solve", specs, {})
        assert len(built) == len(stored)
        for k, (query, expected) in enumerate(zip(built, stored)):
            result = query.run()
            assert query.check(result) == [], f"round {r}, query {k} ({query.kind})"
            answer = _canonical(query.answer(result))
            assert answer == _canonical(expected), f"round {r}, query {k} ({query.kind})"
