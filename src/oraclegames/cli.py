"""Command-line interface.

Exit codes: 0 success, 1 at least one fixture claim failed, 2 malformed
input or an operation applied outside its domain, 3 an enumeration cap was
exceeded.  Relation verbs (imi, dominates, common-objective, garble-check)
exit 0 whenever the computation succeeds; the verdict lives in the JSON
output, not in the exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from typing import Optional, Sequence

from .dominance import (
    common_objective_condition,
    garbling_exists,
    is_imi,
    unique_ckc_dominates,
)
from .errors import DomainError, InputError, ResourceLimitError
from .harness import (
    available_fixtures,
    load_fixture,
    report_lines,
    report_passed,
    run_fixture,
)
from .partitions import ckc_decompose
from .signaling import (
    experiment_matrix,
    matrix_from_json,
    posterior_atlas,
    signaling_from_json,
)
from .types import load_json, load_structure


def _dump(data: object) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


def _cmd_ckc(args) -> int:
    structure = load_structure(args.structure)
    components = ckc_decompose(structure.players)
    _dump({"components": components.as_json()})
    return 0


def _cmd_imi(args) -> int:
    structure = load_structure(args.structure)
    result = is_imi(
        structure, structure.oracle(args.first), structure.oracle(args.second)
    )
    _dump(
        {
            "relation": "individually-more-informative",
            "first": args.first,
            "second": args.second,
            "holds": result.holds,
            "witness": None if result.witness is None else result.witness.as_json(),
        }
    )
    return 0


def _cmd_dominates(args) -> int:
    structure = load_structure(args.structure)
    first = structure.oracle(args.first)
    second = structure.oracle(args.second)
    if args.mode == "deterministic":
        result = is_imi(structure, first, second)
        payload = {
            "mode": "deterministic",
            "holds": result.holds,
            "witness": None if result.witness is None else result.witness.as_json(),
        }
    else:
        payload = {
            "mode": "unique-ckc",
            "holds": unique_ckc_dominates(structure, first, second),
            "witness": None,
        }
    payload.update({"first": args.first, "second": args.second})
    _dump(payload)
    return 0


def _cmd_common_objective(args) -> int:
    structure = load_structure(args.structure)
    holds = common_objective_condition(
        structure, structure.oracle(args.first), structure.oracle(args.second)
    )
    _dump(
        {
            "relation": "common-objective",
            "first": args.first,
            "second": args.second,
            "holds": holds,
        }
    )
    return 0


def _cmd_post(args) -> int:
    structure = load_structure(args.structure)
    tau = signaling_from_json(structure, load_json(args.signaling))
    atlas = posterior_atlas(structure, tau)
    _dump({"players": list(structure.player_names), "atlas": atlas.as_json()})
    return 0


def _cmd_matrix(args) -> int:
    structure = load_structure(args.structure)
    tau = signaling_from_json(structure, load_json(args.signaling))
    partition = structure.players[structure.player_index(args.player)]
    _dump(experiment_matrix(tau, partition).as_json())
    return 0


def _cmd_garble_check(args) -> int:
    first = matrix_from_json(load_json(args.first))
    second = matrix_from_json(load_json(args.second))
    _dump(garbling_exists(first, second).as_json())
    return 0


def _fixture_names(args) -> list[str]:
    if args.all:
        return available_fixtures()
    if not args.fixtures:
        raise InputError(
            "name at least one fixture or pass --all; available: "
            + ", ".join(available_fixtures())
        )
    return list(args.fixtures)


def _run_fixtures(names: Sequence[str]) -> list[dict]:
    return [run_fixture(load_fixture(name)) for name in names]


def _cmd_verify(args) -> int:
    reports = _run_fixtures(_fixture_names(args))
    failed = 0
    for report in reports:
        for line in report_lines(report):
            print(line)
        if not report_passed(report):
            failed += 1
    total = sum(len(r["claims"]) for r in reports)
    bad = sum(1 for r in reports for row in r["claims"] if not row["pass"])
    print(f"{total - bad}/{total} claims passed across {len(reports)} fixture(s)")
    return 1 if failed else 0


def _cmd_report(args) -> int:
    reports = _run_fixtures(_fixture_names(args))
    if args.format == "json":
        _dump(reports if len(reports) != 1 else reports[0])
    else:
        for report in reports:
            for line in report_lines(report):
                print(line)
    return 1 if any(not report_passed(r) for r in reports) else 0


def _cmd_fixtures(args) -> int:
    for name in available_fixtures():
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oraclegames",
        description="Exact analysis of information oracles: partition algebra, "
        "posterior atlases, dominance orders, and witness games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ckc", help="common-knowledge components of a structure")
    p.add_argument("structure")
    p.set_defaults(fn=_cmd_ckc)

    p = sub.add_parser(
        "imi", help="individually-more-informative check between two oracles"
    )
    p.add_argument("structure")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(fn=_cmd_imi)

    p = sub.add_parser("dominates", help="oracle dominance verdict")
    p.add_argument("--mode", choices=("deterministic", "unique-ckc"), required=True)
    p.add_argument("structure")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(fn=_cmd_dominates)

    p = sub.add_parser(
        "common-objective",
        help="join-refinement condition for common-objective dominance",
    )
    p.add_argument("structure")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(fn=_cmd_common_objective)

    p = sub.add_parser("post", help="posterior atlas of a signaling function")
    p.add_argument("structure")
    p.add_argument("signaling")
    p.set_defaults(fn=_cmd_post)

    p = sub.add_parser(
        "matrix", help="experiment matrix of a signaling for one player"
    )
    p.add_argument("structure")
    p.add_argument("signaling")
    p.add_argument("--player", required=True)
    p.set_defaults(fn=_cmd_matrix)

    p = sub.add_parser(
        "garble-check", help="does a garbling map the first matrix onto the second"
    )
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(fn=_cmd_garble_check)

    for name, fn in (("verify", _cmd_verify), ("report", _cmd_report)):
        p = sub.add_parser(
            name,
            help="evaluate fixture claims"
            + (" and print a report" if name == "report" else ""),
        )
        p.add_argument("fixtures", nargs="*")
        p.add_argument("--all", action="store_true")
        if name == "report":
            p.add_argument("--format", choices=("json", "text"), default="json")
        p.set_defaults(fn=fn)

    p = sub.add_parser("fixtures", help="list packaged fixtures")
    p.set_defaults(fn=_cmd_fixtures)

    return parser


# Built on the first call and reused: parsing leaves the parser unchanged.
_parser = cache(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; normalize.
        return int(exc.code or 0) and 2
    try:
        return args.fn(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InputError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
