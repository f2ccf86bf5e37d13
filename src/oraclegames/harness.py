"""Fixture harness: load golden examples, evaluate their claims exactly.

A fixture is a JSON object bundling one information structure with named
signalings, games, strategies, and belief profiles, plus a list of claims.
Each claim names an operation from the registry below, its arguments, the
expected value, and a provenance tag; expected values are compared exactly.
A claim may instead carry ``expect_error`` ("input", "domain" or
"resource") when the operation is required to be rejected.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from typing import Callable, Mapping, Optional, Sequence

from .dominance import (
    coarsening_profiles,
    common_objective_condition,
    garbling_exists,
    induced_profile,
    is_imi,
    restrict_to_ckc,
    two_sided_imi_equal,
    unique_ckc_dominates,
)
from .errors import DomainError, InputError, ResourceLimitError
from .games import (
    belief_best_response,
    belief_expected_payoffs,
    belief_is_equilibrium,
    BeliefGame,
    best_common_payoff,
    build_kld_game,
    build_permutation_game,
    CombinedGame,
    decision_value,
    enumerate_pure_equilibria,
    expected_payoffs,
    game_from_json,
    information_partition,
    is_equilibrium,
    kld_aggregate,
    kld_expected_scores,
    kld_menus,
    log_score,
    log_score_argmax,
    LogScore,
    make_strategy,
    MixedValue,
    ned_distribution,
    reachable_pairs,
    strategy_from_json,
    truthful_choices,
    truthful_kld_strategy,
    TwoStageGame,
)
from .partitions import ckc_decompose, connect_path, join, refines
from .signaling import (
    StochasticSignaling,
    det_posterior,
    experiment_matrix,
    merge_garbled,
    posterior_atlas,
    post_included,
    proportional_decompose,
    separating_strategy,
    signaling_from_json,
    stoch_posterior,
    JointPosteriorProfile,
)
from .types import (
    Distribution,
    InformationStructure,
    Partition,
    format_rational,
    json_section,
    parse_rational,
    partition_from_json,
    structure_from_json,
)

FIXTURE_PACKAGE = "oraclegames.fixtures"


def available_fixtures() -> list[str]:
    """Names of the fixtures packaged with the library, sorted."""
    names = []
    for entry in resources.files(FIXTURE_PACKAGE).iterdir():
        if entry.name.endswith(".json"):
            names.append(entry.name[: -len(".json")])
    return sorted(names)


def load_fixture(name_or_path: str) -> dict:
    """Load a fixture by packaged name, or from a filesystem path when the
    argument contains a path separator or a .json suffix."""
    if "/" in name_or_path or name_or_path.endswith(".json"):
        try:
            with open(name_or_path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise InputError(f"cannot read fixture file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise InputError(f"fixture file is not valid JSON: {exc}") from None
    else:
        names = available_fixtures()
        if name_or_path not in names:
            raise InputError(
                f"unknown fixture '{name_or_path}'; available: {', '.join(names)}"
            )
        text = (
            resources.files(FIXTURE_PACKAGE)
            .joinpath(f"{name_or_path}.json")
            .read_text(encoding="utf-8")
        )
        data = json.loads(text)
    if not isinstance(data, dict):
        raise InputError("a fixture must be a JSON object")
    return data


def _jsonify(value: object) -> object:
    """Normalize computed values into plain JSON data for exact comparison."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, Distribution):
        return [format_rational(v) for v in value.vector]
    if isinstance(value, (LogScore, MixedValue)):
        return value.as_json()
    if isinstance(value, (tuple, list)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    return value


class Fixture:
    """A loaded fixture with caching resolvers for its named objects."""

    def __init__(self, data: Mapping):
        self.data = data
        try:
            self.name = data["name"]
            self.structure: InformationStructure = structure_from_json(
                data["structure"]
            )
        except KeyError as exc:
            raise InputError(f"fixture is missing the {exc.args[0]!r} section") from None
        self._signalings: dict[str, object] = {}
        self._games: dict[str, object] = {}

    def _section(self, name: str) -> Mapping:
        return json_section(self.data.get(name, {}), "object", f"fixture '{name}'")

    # -- resolvers ---------------------------------------------------------

    def partition(self, spec: object) -> Partition:
        """A partition given by oracle name, player name, inline blocks, or
        a {"oracle"|"player"|"trivial"|"singletons": ...} object."""
        structure = self.structure
        if isinstance(spec, str):
            if spec in structure.oracle_names:
                return structure.oracle(spec)
            if spec in structure.player_names:
                return structure.players[structure.player_index(spec)]
            raise InputError(f"'{spec}' names neither an oracle nor a player")
        if isinstance(spec, list):
            return partition_from_json(structure.space, spec)
        if isinstance(spec, Mapping):
            if "oracle" in spec:
                return structure.oracle(spec["oracle"])
            if "player" in spec:
                return structure.players[structure.player_index(spec["player"])]
            if spec.get("trivial"):
                return Partition.trivial(structure.space)
            if spec.get("singletons"):
                return Partition.singletons(structure.space)
        raise InputError(f"cannot interpret partition spec {spec!r}")

    def signaling(self, spec: object):
        """A signaling given by fixture name, inline JSON, or one of the
        generated forms {"separating"|"reveal": partition-spec} and
        {"uninformative": true}."""
        if isinstance(spec, str):
            if spec not in self._signalings:
                table = self._section("signalings")
                if spec not in table:
                    raise InputError(f"fixture defines no signaling '{spec}'")
                self._signalings[spec] = signaling_from_json(
                    self.structure, table[spec]
                )
            return self._signalings[spec]
        if isinstance(spec, Mapping):
            if "separating" in spec:
                return separating_strategy(
                    self.partition(spec["separating"]), self.structure.prior
                )
            if "reveal" in spec:
                base = self.partition(spec["reveal"])
                return StochasticSignaling.from_assignment(
                    base, [f"r{i}" for i in range(len(base.blocks))]
                )
            if spec.get("uninformative"):
                return StochasticSignaling.from_assignment(
                    Partition.trivial(self.structure.space), ["u0"]
                )
            if "type" in spec:
                return signaling_from_json(self.structure, spec)
        raise InputError(f"cannot interpret signaling spec {spec!r}")

    def game(self, name: str):
        if name not in self._games:
            table = self._section("games")
            if name not in table:
                raise InputError(f"fixture defines no game '{name}'")
            self._games[name] = game_from_json(self.structure, table[name])
        return self._games[name]

    def strategy(self, name: str):
        """Returns (game, signaling, strategy) for a named strategy entry."""
        table = self._section("strategies")
        if name not in table:
            raise InputError(f"fixture defines no strategy '{name}'")
        entry = json_section(table[name], "object", f"strategy '{name}'")
        for key in ("game", "signaling", "players"):
            if key not in entry:
                raise InputError(f"strategy '{name}' is missing its '{key}' field")
        game = self.game(entry["game"])
        tau = self.signaling(entry["signaling"])
        return game, tau, strategy_from_json(game, tau, entry["players"])

    def distribution(self, vector: Sequence[object]) -> Distribution:
        return Distribution(
            self.structure.space, tuple(parse_rational(v) for v in vector)
        )

    def profile(self, spec: object) -> tuple[Distribution, ...]:
        """A tuple of distributions: a named entry of the "profiles" section
        or an inline list of vectors."""
        if isinstance(spec, str):
            table = self._section("profiles")
            if spec not in table:
                raise InputError(f"fixture defines no profile '{spec}'")
            spec = table[spec]
        return tuple(self.distribution(v) for v in spec)

    def player_index(self, name: str) -> int:
        return self.structure.player_index(name)

    def matrix(self, spec: Mapping):
        tau = self.signaling(spec["signaling"])
        partition = self.partition(spec["partition"])
        return experiment_matrix(tau, partition)


# ---------------------------------------------------------------------------
# Operation registry


OPS: dict[str, Callable[[Fixture, Mapping], object]] = {}


def op(name: str):
    def register(fn):
        OPS[name] = fn
        return fn

    return register


@op("ckc_blocks")
def _op_ckc_blocks(fix: Fixture, args: Mapping):
    return ckc_decompose(fix.structure.players).as_json()


@op("ckc_count")
def _op_ckc_count(fix: Fixture, args: Mapping):
    return len(ckc_decompose(fix.structure.players).blocks)


@op("refines")
def _op_refines(fix: Fixture, args: Mapping):
    return refines(fix.partition(args["f1"]), fix.partition(args["f2"]))


@op("imi")
def _op_imi(fix: Fixture, args: Mapping):
    return is_imi(
        fix.structure, fix.partition(args["f1"]), fix.partition(args["f2"])
    ).holds


@op("imi_witness")
def _op_imi_witness(fix: Fixture, args: Mapping):
    result = is_imi(
        fix.structure, fix.partition(args["f1"]), fix.partition(args["f2"])
    )
    if result.holds:
        return "none"
    return result.witness.as_json()


@op("coarsening_unmatched")
def _op_coarsening_unmatched(fix: Fixture, args: Mapping):
    profiles = set(coarsening_profiles(fix.structure, fix.partition(args["oracle"])))
    candidate = induced_profile(fix.structure, fix.partition(args["partition"]))
    return candidate not in profiles


@op("two_sided")
def _op_two_sided(fix: Fixture, args: Mapping):
    first = fix.partition(args["f1"])
    second = fix.partition(args["f2"])
    result = two_sided_imi_equal(fix.structure, first, second)
    return {
        "forward": result.forward.holds,
        "backward": result.backward.holds,
        "equal": result.equivalent,
        "consistent": result.equivalent == (first.blocks == second.blocks),
    }


@op("unique_dominates")
def _op_unique_dominates(fix: Fixture, args: Mapping):
    return unique_ckc_dominates(
        fix.structure, fix.partition(args["f1"]), fix.partition(args["f2"])
    )


@op("unique_dominates_within")
def _op_unique_dominates_within(fix: Fixture, args: Mapping):
    restricted = restrict_to_ckc(fix.structure, args["state"])
    first = fix.partition(args["f1"]).restrict(restricted.space)
    second = fix.partition(args["f2"]).restrict(restricted.space)
    return unique_ckc_dominates(restricted, first, second)


@op("restrict_oracle")
def _op_restrict_oracle(fix: Fixture, args: Mapping):
    restricted = restrict_to_ckc(fix.structure, args["state"])
    return fix.partition(args["oracle"]).restrict(restricted.space).as_json()


@op("refines_within")
def _op_refines_within(fix: Fixture, args: Mapping):
    restricted = restrict_to_ckc(fix.structure, args["state"])
    return refines(
        fix.partition(args["f1"]).restrict(restricted.space),
        fix.partition(args["f2"]).restrict(restricted.space),
    )


@op("common_objective")
def _op_common_objective(fix: Fixture, args: Mapping):
    return common_objective_condition(
        fix.structure, fix.partition(args["f1"]), fix.partition(args["f2"])
    )


@op("connect_path")
def _op_connect_path(fix: Fixture, args: Mapping):
    path = connect_path(fix.structure.players, args["a"], args["b"])
    if path is None:
        return "none"
    return [[state, index] for state, index in path]


@op("det_posterior")
def _op_det_posterior(fix: Fixture, args: Mapping):
    return det_posterior(
        fix.structure,
        fix.player_index(args["player"]),
        fix.signaling(args["signaling"]),
        args["state"],
    )


@op("stoch_posterior")
def _op_stoch_posterior(fix: Fixture, args: Mapping):
    return stoch_posterior(
        fix.structure,
        fix.player_index(args["player"]),
        fix.signaling(args["signaling"]),
        args["state"],
        args["signal"],
    )


@op("atlas_size")
def _op_atlas_size(fix: Fixture, args: Mapping):
    return len(posterior_atlas(fix.structure, fix.signaling(args["signaling"])))


@op("atlas_weights")
def _op_atlas_weights(fix: Fixture, args: Mapping):
    atlas = posterior_atlas(fix.structure, fix.signaling(args["signaling"]))
    return [format_rational(atlas.weight(p)) for p in atlas.profiles()]


@op("atlas_contains")
def _op_atlas_contains(fix: Fixture, args: Mapping):
    atlas = posterior_atlas(fix.structure, fix.signaling(args["signaling"]))
    profile = JointPosteriorProfile(fix.profile(args["profile"]))
    return profile in atlas


@op("atlas_weight_of")
def _op_atlas_weight_of(fix: Fixture, args: Mapping):
    atlas = posterior_atlas(fix.structure, fix.signaling(args["signaling"]))
    profile = JointPosteriorProfile(fix.profile(args["profile"]))
    return atlas.weight(profile)


@op("post_included")
def _op_post_included(fix: Fixture, args: Mapping):
    return post_included(
        posterior_atlas(fix.structure, fix.signaling(args["a"])),
        posterior_atlas(fix.structure, fix.signaling(args["b"])),
    )


@op("experiment_row")
def _op_experiment_row(fix: Fixture, args: Mapping):
    matrix = experiment_matrix(
        fix.signaling(args["signaling"]), fix.partition(args["partition"])
    )
    return matrix.row(args["state"])


@op("experiment_columns")
def _op_experiment_columns(fix: Fixture, args: Mapping):
    matrix = experiment_matrix(
        fix.signaling(args["signaling"]), fix.partition(args["partition"])
    )
    return [[signal, label] for signal, label in matrix.columns]


@op("garbling")
def _op_garbling(fix: Fixture, args: Mapping):
    return garbling_exists(fix.matrix(args["m1"]), fix.matrix(args["m2"])).exists


@op("separating_probs")
def _op_separating_probs(fix: Fixture, args: Mapping):
    base = fix.partition(args["oracle"])
    tau = separating_strategy(base, fix.structure.prior)
    return [tau.prob(block[0], tau.signals[0]) for block in base.blocks]


@op("proportional")
def _op_proportional(fix: Fixture, args: Mapping):
    result = proportional_decompose(
        fix.signaling(args["t1"]), fix.signaling(args["t2"])
    )
    return {
        t: "none" if found is None else [found[0], format_rational(found[1])]
        for t, found in result.items()
    }


@op("expected_payoffs")
def _op_expected_payoffs(fix: Fixture, args: Mapping):
    game, tau, strategy = fix.strategy(args["strategy"])
    return expected_payoffs(game, tau, strategy)


@op("expected_payoffs_given_event")
def _op_expected_payoffs_given_event(fix: Fixture, args: Mapping):
    game, tau, strategy = fix.strategy(args["strategy"])
    event = json_section(args["event"], "list", "claim argument 'event'")
    return expected_payoffs(game, tau, strategy, given_event=event)


@op("is_equilibrium")
def _op_is_equilibrium(fix: Fixture, args: Mapping):
    game, tau, strategy = fix.strategy(args["strategy"])
    return is_equilibrium(game, tau, strategy).holds


@op("ned_mass")
def _op_ned_mass(fix: Fixture, args: Mapping):
    game, tau, strategy = fix.strategy(args["strategy"])
    dist = ned_distribution(game, tau, strategy)
    return dist.of(args["state"], tuple(args["actions"]))


@op("enumerate_equilibria_count")
def _op_enumerate_equilibria_count(fix: Fixture, args: Mapping):
    game = fix.game(args["game"])
    tau = fix.signaling(args["signaling"])
    return len(enumerate_pure_equilibria(game, tau))


@op("best_common")
def _op_best_common(fix: Fixture, args: Mapping):
    return best_common_payoff(fix.game(args["game"]), fix.signaling(args["signaling"]))


@op("best_common_garbled")
def _op_best_common_garbled(fix: Fixture, args: Mapping):
    merged = merge_garbled(fix.signaling(args["signaling"]), args["garble"])
    return best_common_payoff(fix.game(args["game"]), merged)


# -- permutation decision problems -----------------------------------------


def _permutation_problem(fix: Fixture, args: Mapping):
    player = fix.player_index(args["player"])
    source = args["source"]
    if isinstance(source, Mapping) and "signaling" in source:
        resolved = fix.signaling(source["signaling"])
    else:
        resolved = fix.partition(source)
    return player, build_permutation_game(fix.structure, player, resolved)


@op("permutation_action_count")
def _op_permutation_action_count(fix: Fixture, args: Mapping):
    _, problem = _permutation_problem(fix, args)
    return len(problem.actions)


@op("permutation_penalty")
def _op_permutation_penalty(fix: Fixture, args: Mapping):
    _, problem = _permutation_problem(fix, args)
    return min(problem.payoffs.values())


@op("permutation_payoff_row")
def _op_permutation_payoff_row(fix: Fixture, args: Mapping):
    _, problem = _permutation_problem(fix, args)
    return [problem.payoff(state, args["action"]) for state in fix.structure.space]


@op("permutation_value")
def _op_permutation_value(fix: Fixture, args: Mapping):
    player, problem = _permutation_problem(fix, args)
    info = information_partition(fix.structure, player, fix.partition(args["info"]))
    return decision_value(problem, info)


# -- belief-report games -----------------------------------------------------


def _belief_game(fix: Fixture, args: Mapping):
    return BeliefGame(fix.structure.space, fix.profile(args["profile"]))


def _belief_choices(game, beliefs, spec) -> tuple[str, ...]:
    if spec == "best":
        return tuple(
            belief_best_response(game, i, beliefs[i]) for i in range(game.n)
        )
    return tuple(spec)


@op("belief_truthful_payoffs")
def _op_belief_truthful_payoffs(fix: Fixture, args: Mapping):
    game = _belief_game(fix, args)
    return belief_expected_payoffs(game, game.declared, truthful_choices(game))


@op("belief_truthful_equilibrium")
def _op_belief_truthful_equilibrium(fix: Fixture, args: Mapping):
    game = _belief_game(fix, args)
    return belief_is_equilibrium(game, game.declared, truthful_choices(game))


@op("belief_payoffs")
def _op_belief_payoffs(fix: Fixture, args: Mapping):
    game = _belief_game(fix, args)
    beliefs = fix.profile(args["beliefs"])
    choices = _belief_choices(game, beliefs, args.get("choices", "best"))
    return belief_expected_payoffs(game, beliefs, choices)


@op("belief_aggregate")
def _op_belief_aggregate(fix: Fixture, args: Mapping):
    game = _belief_game(fix, args)
    beliefs = fix.profile(args["beliefs"])
    choices = _belief_choices(game, beliefs, args.get("choices", "best"))
    return sum(belief_expected_payoffs(game, beliefs, choices), Fraction(0))


@op("belief_build_error")
def _op_belief_build_error(fix: Fixture, args: Mapping):
    return _belief_game(fix, args) is not None


# -- two-stage declaration games ---------------------------------------------


def _two_stage(fix: Fixture, args: Mapping):
    return TwoStageGame(
        fix.structure, fix.signaling(args["signaling"]), args.get("penalty")
    )


def _two_stage_truthful_payoffs(game: TwoStageGame) -> tuple[Fraction, ...]:
    return expected_payoffs(game, game.tau, game.truthful_strategy())


@op("two_stage_truthful_aggregate")
def _op_two_stage_truthful_aggregate(fix: Fixture, args: Mapping):
    return sum(_two_stage_truthful_payoffs(_two_stage(fix, args)), Fraction(0))


@op("two_stage_truthful_payoffs")
def _op_two_stage_truthful_payoffs(fix: Fixture, args: Mapping):
    return _two_stage_truthful_payoffs(_two_stage(fix, args))


@op("two_stage_truthful_equilibrium")
def _op_two_stage_truthful_equilibrium(fix: Fixture, args: Mapping):
    game = _two_stage(fix, args)
    return is_equilibrium(game, game.tau, game.truthful_strategy()).holds


@op("two_stage_penalty")
def _op_two_stage_penalty(fix: Fixture, args: Mapping):
    return _two_stage(fix, args).M


@op("two_stage_mismatch_payoffs")
def _op_two_stage_mismatch_payoffs(fix: Fixture, args: Mapping):
    game = _two_stage(fix, args)
    declare = args["declare"]
    pairs = reachable_pairs(game.structure, game.tau)
    tables = []
    for i in range(game.structure.n):
        posterior = game.menus[i][0]
        option = (declare[i], posterior, posterior.support()[0])
        tables.append({pair: option for pair in pairs[i]})
    return expected_payoffs(game, game.tau, make_strategy(game, game.tau, tables))


@op("two_stage_max_aggregate_lt")
def _op_two_stage_max_aggregate_lt(fix: Fixture, args: Mapping):
    game = _two_stage(fix, args)
    other = fix.signaling(args["under"])
    return game.max_aggregate(other) < parse_rational(args["bound"])


# -- log-score games ----------------------------------------------------------


@op("log_score_argmax")
def _op_log_score_argmax(fix: Fixture, args: Mapping):
    q = fix.distribution(args["q"])
    candidates = fix.profile(args["candidates"])
    return log_score_argmax(q, candidates)


@op("kld_strict_propriety")
def _op_kld_strict_propriety(fix: Fixture, args: Mapping):
    menus = kld_menus(fix.structure, fix.signaling(args["signaling"]))
    for menu in menus:
        for q in menu:
            if log_score_argmax(q, menu) is not q:
                return False
            truth = log_score(q, q)
            for p in menu:
                if p is not q and not (truth > log_score(q, p)):
                    return False
    return True


@op("kld_aggregate_differs")
def _op_kld_aggregate_differs(fix: Fixture, args: Mapping):
    first = fix.signaling(args["t1"])
    second = fix.signaling(args["t2"])
    game1 = build_kld_game(fix.structure, first)
    game2 = build_kld_game(fix.structure, second)
    agg1 = kld_aggregate(game1, first, truthful_kld_strategy(game1, first))
    agg2 = kld_aggregate(game2, second, truthful_kld_strategy(game2, second))
    return agg1 != agg2


@op("combined_truthful_aggregate")
def _op_combined_truthful_aggregate(fix: Fixture, args: Mapping):
    combined = CombinedGame(fix.structure, fix.signaling(args["signaling"]))
    values = combined.truthful_payoffs()
    total = values[0]
    for value in values[1:]:
        total = total + value
    return total


@op("combined_linearity")
def _op_combined_linearity(fix: Fixture, args: Mapping):
    combined = CombinedGame(fix.structure, fix.signaling(args["signaling"]))
    stage_values = _two_stage_truthful_payoffs(combined.stage)
    kld_values = kld_expected_scores(
        combined.kld,
        combined.tau,
        truthful_kld_strategy(combined.kld, combined.tau),
    )
    expected = [
        MixedValue(v, s).half() for v, s in zip(stage_values, kld_values)
    ]
    return list(combined.truthful_payoffs()) == expected


@op("combined_stage_drop")
def _op_combined_stage_drop(fix: Fixture, args: Mapping):
    game = _two_stage(fix, args)
    truthful = sum(_two_stage_truthful_payoffs(game), Fraction(0))
    return game.max_aggregate(fix.signaling(args["under"])) < truthful


# ---------------------------------------------------------------------------
# Claim evaluation


_ERROR_KINDS = {
    InputError: "input",
    DomainError: "domain",
    ResourceLimitError: "resource",
}


class _MissingArgument(Exception):
    """A claim lacks an argument its operation reads."""


class _ClaimArgs(dict):
    def __missing__(self, key: str):
        raise _MissingArgument(key)


def run_claim(fix: Fixture, claim: Mapping) -> dict:
    """Evaluate one claim; the result row is JSON-ready."""
    json_section(claim, "object", "a claim")
    for key in ("id", "op", "provenance"):
        if key not in claim:
            raise InputError(f"claim is missing its '{key}' field")
    op_name = claim["op"]
    if op_name not in OPS:
        raise InputError(f"unknown operation '{op_name}' in claim '{claim['id']}'")
    args = json_section(claim.get("args", {}), "object", f"claim '{claim['id']}' args")
    expect_error = claim.get("expect_error")
    if expect_error is None and "expected" not in claim:
        raise InputError(f"claim '{claim['id']}' has neither 'expected' nor 'expect_error'")
    expected = claim["expected"] if expect_error is None else {"error": expect_error}
    row = {
        "id": claim["id"],
        "op": op_name,
        "provenance": claim["provenance"],
        "expected": expected,
    }
    try:
        actual = OPS[op_name](fix, _ClaimArgs(args))
    except _MissingArgument as exc:
        raise InputError(f"claim '{claim['id']}' is missing argument '{exc}'") from None
    except tuple(_ERROR_KINDS) as exc:
        if expect_error is None:
            raise
        row["actual"] = {"error": _ERROR_KINDS[type(exc)]}
    else:
        row["actual"] = _jsonify(actual)
    if expect_error is None and claim.get("compare") == "mixed":
        row["pass"] = _mixed_equal(actual, expected)
    else:
        row["pass"] = row["actual"] == expected
    return row


def _mixed_equal(actual: MixedValue, expected: Mapping) -> bool:
    """Representation-independent equality for (rational, log) pairs."""
    if not isinstance(actual, MixedValue):
        return False
    log = expected["log"]
    if log == "-inf":
        score = LogScore.minus_infinity()
    else:
        score = LogScore(False, parse_rational(log["product"]), int(log["denom"]))
    return (
        actual.rational == parse_rational(expected["rational"])
        and actual.log == score
    )


def run_fixture(data: Mapping) -> dict:
    """Evaluate all claims of a fixture; returns the JSON report object."""
    fix = Fixture(data)
    claims = json_section(data.get("claims", []), "list", "fixture 'claims'")
    return {
        "fixture": fix.name,
        "claims": [run_claim(fix, claim) for claim in claims],
    }


def report_lines(report: Mapping) -> list[str]:
    lines = []
    for row in report["claims"]:
        if row["pass"]:
            lines.append(f"PASS {report['fixture']}.{row['id']}: {row['op']}")
        else:
            lines.append(
                f"FAIL {report['fixture']}.{row['id']}: {row['op']} — "
                f"expected {json.dumps(row['expected'], sort_keys=True)}, "
                f"got {json.dumps(row['actual'], sort_keys=True)}"
            )
    return lines


def report_passed(report: Mapping) -> bool:
    return all(row["pass"] for row in report["claims"])
