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
from typing import Callable, Mapping

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
    belief_aggregate,
    belief_best_response,
    belief_expected_payoffs,
    belief_is_equilibrium,
    BeliefGame,
    best_common_payoff,
    build_kld_game,
    build_permutation_game,
    CombinedGame,
    enumerate_pure_equilibria,
    expected_payoffs,
    game_from_json,
    information_partition,
    is_equilibrium,
    kld_aggregate,
    kld_expected_scores,
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
    check_label,
    check_labels,
    format_rational,
    json_list,
    json_object,
    load_json,
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
    path = name_or_path
    if "/" not in name_or_path and not name_or_path.endswith(".json"):
        names = available_fixtures()
        if name_or_path not in names:
            raise InputError(
                f"unknown fixture '{name_or_path}'; available: {', '.join(names)}"
            )
        path = str(resources.files(FIXTURE_PACKAGE).joinpath(f"{name_or_path}.json"))
    return json_object(load_json(path), "fixture")


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


def _reveal(partition: Partition) -> StochasticSignaling:
    """The deterministic signaling that announces the block of ``partition``."""
    return StochasticSignaling.from_assignment(
        partition, [f"r{i}" for i in range(len(partition.blocks))]
    )


class Fixture:
    """A loaded fixture with caching resolvers for its named objects."""

    def __init__(self, data: object):
        self.data = json_object(data, "fixture", "name", "structure")
        self.name = check_label("fixture", data["name"], "")
        self.structure: InformationStructure = structure_from_json(data["structure"])
        self._signalings: dict[str, StochasticSignaling] = {}
        self._games: dict[str, object] = {}
        self._two_stage: dict[StochasticSignaling, TwoStageGame] = {}

    def _named(self, section: str, name: str) -> object:
        """The entry ``name`` of an object-valued fixture section."""
        return json_object(self.data.get(section, {}), f"fixture '{section}'", name)[name]

    # -- resolvers ---------------------------------------------------------

    def partition(self, spec: object) -> Partition:
        """A partition given by oracle name, player name, inline blocks, or
        {"trivial": true}."""
        structure = self.structure
        if isinstance(spec, str):
            if spec in structure.oracle_names:
                return structure.oracle(spec)
            if spec in structure.player_names:
                return structure.players[structure.player_index(spec)]
            raise InputError(f"'{spec}' names neither an oracle nor a player")
        if isinstance(spec, list):
            return partition_from_json(structure.space, spec)
        if isinstance(spec, Mapping) and spec.get("trivial"):
            return Partition.trivial(structure.space)
        raise InputError(f"cannot interpret partition spec {spec!r}")

    def signaling(self, spec: object):
        """A signaling given by fixture name, inline JSON, or one of the
        generated forms {"separating"|"reveal": partition-spec} and
        {"uninformative": true}."""
        if isinstance(spec, str):
            if spec not in self._signalings:
                self._signalings[spec] = signaling_from_json(
                    self.structure, self._named("signalings", spec), f"signaling '{spec}'"
                )
            return self._signalings[spec]
        if isinstance(spec, Mapping):
            if "separating" in spec:
                return separating_strategy(
                    self.partition(spec["separating"]), self.structure.prior
                )
            if "reveal" in spec:
                return _reveal(self.partition(spec["reveal"]))
            if spec.get("uninformative"):
                return StochasticSignaling.from_assignment(
                    Partition.trivial(self.structure.space), ["u0"]
                )
            if "type" in spec:
                return signaling_from_json(self.structure, spec)
        raise InputError(f"cannot interpret signaling spec {spec!r}")

    def game(self, name: object):
        name = check_label("game", name, "")
        if name not in self._games:
            self._games[name] = game_from_json(
                self.structure, self._named("games", name), f"game '{name}'"
            )
        return self._games[name]

    def strategy(self, name: object):
        """Returns (game, signaling, strategy) for a named strategy entry."""
        name = check_label("strategy", name, "")
        entry = json_object(
            self._named("strategies", name), f"strategy '{name}'", "game", "signaling", "players"
        )
        game = self.game(entry["game"])
        tau = self.signaling(entry["signaling"])
        return game, tau, strategy_from_json(game, tau, entry["players"])

    def two_stage(self, args: Mapping) -> TwoStageGame:
        """The ``TwoStageGame`` of a claim's signaling, built once per
        signaling."""
        tau = self.signaling(args["signaling"])
        if tau not in self._two_stage:
            self._two_stage[tau] = TwoStageGame(self.structure, tau)
        return self._two_stage[tau]

    def distribution(self, vector: object, what: str = "a distribution") -> Distribution:
        return Distribution(
            self.structure.space, tuple(parse_rational(v) for v in json_list(vector, what))
        )

    def profile(self, spec: object) -> tuple[Distribution, ...]:
        """A tuple of distributions: a named entry of the "profiles" section
        or an inline list of vectors."""
        what = "an inline profile"
        if isinstance(spec, str):
            what = f"profile '{spec}'"
            spec = self._named("profiles", spec)
        return tuple(self.distribution(v, f"a vector of {what}") for v in json_list(spec, what))

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
        fix.structure.player_index(args["player"]),
        fix.signaling(args["signaling"]),
        args["state"],
    )


@op("stoch_posterior")
def _op_stoch_posterior(fix: Fixture, args: Mapping):
    return stoch_posterior(
        fix.structure,
        fix.structure.player_index(args["player"]),
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


def _joint_profile(fix: Fixture, args: Mapping) -> JointPosteriorProfile:
    """The claim's 'profile' argument, which must hold one posterior per player."""
    profile = fix.profile(args["profile"])
    if len(profile) != fix.structure.n:
        raise InputError(
            f"claim argument 'profile' must hold {fix.structure.n} posteriors, "
            f"one per player, not {len(profile)}"
        )
    return JointPosteriorProfile(profile)


@op("atlas_contains")
def _op_atlas_contains(fix: Fixture, args: Mapping):
    atlas = posterior_atlas(fix.structure, fix.signaling(args["signaling"]))
    return _joint_profile(fix, args) in atlas


@op("atlas_weight_of")
def _op_atlas_weight_of(fix: Fixture, args: Mapping):
    atlas = posterior_atlas(fix.structure, fix.signaling(args["signaling"]))
    return atlas.weight(_joint_profile(fix, args))


@op("post_included")
def _op_post_included(fix: Fixture, args: Mapping):
    return post_included(
        posterior_atlas(fix.structure, fix.signaling(args["a"])),
        posterior_atlas(fix.structure, fix.signaling(args["b"])),
    )


@op("experiment_row")
def _op_experiment_row(fix: Fixture, args: Mapping):
    return fix.matrix(args).row(args["state"])


@op("experiment_columns")
def _op_experiment_columns(fix: Fixture, args: Mapping):
    return [[signal, label] for signal, label in fix.matrix(args).columns]


@op("garbling")
def _op_garbling(fix: Fixture, args: Mapping):
    m1, m2 = (
        fix.matrix(json_object(args[k], f"claim argument '{k}'", "signaling", "partition"))
        for k in ("m1", "m2")
    )
    return garbling_exists(m1, m2).exists


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
    event = check_labels("state", args["event"], "claim argument 'event'")
    return expected_payoffs(game, tau, strategy, given_event=event)


@op("is_equilibrium")
def _op_is_equilibrium(fix: Fixture, args: Mapping):
    game, tau, strategy = fix.strategy(args["strategy"])
    return is_equilibrium(game, tau, strategy).holds


@op("ned_mass")
def _op_ned_mass(fix: Fixture, args: Mapping):
    game, tau, strategy = fix.strategy(args["strategy"])
    state = check_label("state", args["state"])
    if state not in game.structure.space:
        raise InputError(f"unknown state '{state}' in claim argument 'state'")
    actions = check_labels("action", args["actions"], "claim argument 'actions'")
    if (state, actions) not in game.payoffs:
        raise InputError(
            f"claim argument 'actions' {list(actions)} is not an action profile of the game"
        )
    return ned_distribution(game, tau, strategy).of(state, actions)


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
    player = fix.structure.player_index(args["player"])
    source = args["source"]
    if isinstance(source, Mapping) and "signaling" in source:
        resolved = fix.signaling(source["signaling"])
    else:
        resolved = fix.partition(source)
    return player, build_permutation_game(fix.structure, player, resolved)


@op("permutation_action_count")
def _op_permutation_action_count(fix: Fixture, args: Mapping):
    _, game = _permutation_problem(fix, args)
    return len(game.actions[0])


@op("permutation_penalty")
def _op_permutation_penalty(fix: Fixture, args: Mapping):
    _, game = _permutation_problem(fix, args)
    return min(value for value, in game.payoffs.values())


@op("permutation_payoff_row")
def _op_permutation_payoff_row(fix: Fixture, args: Mapping):
    _, game = _permutation_problem(fix, args)
    action = check_label("action", args["action"])
    return [game.payoff(state, (action,))[0] for state in fix.structure.space]


@op("permutation_value")
def _op_permutation_value(fix: Fixture, args: Mapping):
    player, game = _permutation_problem(fix, args)
    info = information_partition(fix.structure, player, fix.partition(args["info"]))
    return best_common_payoff(game, _reveal(info))


# -- belief-report games -----------------------------------------------------


def _belief_game(fix: Fixture, args: Mapping):
    return BeliefGame(fix.structure.space, fix.profile(args["profile"]))


def _belief_choices(game, beliefs, spec) -> tuple[str, ...]:
    if len(beliefs) != game.n:
        raise InputError(f"expected {game.n} beliefs, got {len(beliefs)}")
    if spec == "best":
        return tuple(
            belief_best_response(game, i, beliefs[i]) for i in range(game.n)
        )
    return check_labels("action", spec, "claim argument 'choices'")


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
    return belief_aggregate(game, beliefs, choices)


@op("belief_build_error")
def _op_belief_build_error(fix: Fixture, args: Mapping):
    return _belief_game(fix, args) is not None


# -- two-stage declaration games ---------------------------------------------


def _two_stage_truthful_payoffs(game: TwoStageGame) -> tuple[Fraction, ...]:
    return expected_payoffs(game, game.tau, game.truthful_strategy())


@op("two_stage_truthful_aggregate")
def _op_two_stage_truthful_aggregate(fix: Fixture, args: Mapping):
    return sum(_two_stage_truthful_payoffs(fix.two_stage(args)), Fraction(0))


@op("two_stage_truthful_payoffs")
def _op_two_stage_truthful_payoffs(fix: Fixture, args: Mapping):
    return _two_stage_truthful_payoffs(fix.two_stage(args))


@op("two_stage_truthful_equilibrium")
def _op_two_stage_truthful_equilibrium(fix: Fixture, args: Mapping):
    game = fix.two_stage(args)
    return is_equilibrium(game, game.tau, game.truthful_strategy()).holds


@op("two_stage_penalty")
def _op_two_stage_penalty(fix: Fixture, args: Mapping):
    return fix.two_stage(args).M


@op("two_stage_mismatch_payoffs")
def _op_two_stage_mismatch_payoffs(fix: Fixture, args: Mapping):
    game = fix.two_stage(args)
    declare = check_labels("signal", args["declare"], "claim argument 'declare'")
    if len(declare) != game.structure.n:
        raise InputError(f"expected {game.structure.n} declared signals, got {len(declare)}")
    pairs = reachable_pairs(game.structure, game.tau)
    tables = []
    for signal, menu, player_pairs in zip(declare, game.menus, pairs):
        option = (signal, menu[0], menu[0].support()[0])
        tables.append({pair: option for pair in player_pairs})
    return expected_payoffs(game, game.tau, make_strategy(game, game.tau, tables))


@op("two_stage_max_aggregate_lt")
def _op_two_stage_max_aggregate_lt(fix: Fixture, args: Mapping):
    game = fix.two_stage(args)
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
    for menu in build_kld_game(fix.structure, fix.signaling(args["signaling"])).menus:
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
    combined = CombinedGame(fix.two_stage(args))
    values = combined.truthful_payoffs()
    return sum(values[1:], values[0])


@op("combined_linearity")
def _op_combined_linearity(fix: Fixture, args: Mapping):
    combined = CombinedGame(fix.two_stage(args))
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
    game = fix.two_stage(args)
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
    """A claim's arguments, recording each key its operation reads."""

    def __init__(self, args: Mapping):
        super().__init__(args)
        self.read: set[str] = set()

    def __getitem__(self, key: str):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key: str, default: object = None):
        self.read.add(key)
        return super().get(key, default)

    def __missing__(self, key: str):
        raise _MissingArgument(key)


def run_claim(fix: Fixture, claim: Mapping) -> dict:
    """Evaluate one claim; the result row is JSON-ready."""
    json_object(claim, "a claim", "id", "op", "provenance")
    claim_id = check_label("claim", claim["id"], "")
    op_name = check_label("operation", claim["op"], "")
    if op_name not in OPS:
        raise InputError(f"unknown operation '{op_name}' in claim '{claim_id}'")
    args = _ClaimArgs(json_object(claim.get("args", {}), f"claim '{claim_id}' args"))
    expect_error = claim.get("expect_error")
    if expect_error is None and "expected" not in claim:
        raise InputError(f"claim '{claim_id}' has neither 'expected' nor 'expect_error'")
    if expect_error not in (None, *_ERROR_KINDS.values()):
        raise InputError(
            f"claim '{claim_id}' expect_error must be 'input', 'domain' or 'resource', "
            f"got {expect_error!r}"
        )
    compare = claim.get("compare")
    if compare not in (None, "mixed"):
        raise InputError(f"claim '{claim_id}' compare must be 'mixed', got {compare!r}")
    expected = claim["expected"] if expect_error is None else {"error": expect_error}
    row = {
        "id": claim_id,
        "op": op_name,
        "provenance": claim["provenance"],
        "expected": expected,
    }
    try:
        actual = OPS[op_name](fix, args)
    except _MissingArgument as exc:
        raise InputError(f"claim '{claim_id}' is missing argument '{exc}'") from None
    except tuple(_ERROR_KINDS) as exc:
        if expect_error is None:
            raise
        row["actual"] = {"error": _ERROR_KINDS[type(exc)]}
    else:
        # An operation that raised stopped early, so only a completed one
        # shows which arguments it never reads.
        unread = sorted(set(args) - args.read)
        if unread:
            raise InputError(
                f"claim '{claim_id}' has argument '{unread[0]}', "
                f"which operation '{op_name}' does not read"
            )
        row["actual"] = _jsonify(actual)
    if expect_error is None and compare == "mixed":
        row["pass"] = _mixed_equal(actual, expected)
    else:
        row["pass"] = row["actual"] == expected
    return row


def _mixed_equal(actual: MixedValue, expected: object) -> bool:
    """Representation-independent equality for (rational, log) pairs."""
    log = json_object(expected, "mixed 'expected'", "rational", "log")["log"]
    if log == "-inf":
        score = LogScore.minus_infinity()
    else:
        json_object(log, "mixed 'expected' log", "product", "denom")
        denom = parse_rational(log["denom"])
        if denom.denominator != 1:
            raise InputError(f"mixed 'expected' log denom must be an integer, got {denom}")
        score = LogScore(False, parse_rational(log["product"]), int(denom))
    return (
        isinstance(actual, MixedValue)
        and actual.rational == parse_rational(expected["rational"])
        and actual.log == score
    )


def run_fixture(data: Mapping) -> dict:
    """Evaluate all claims of a fixture; returns the JSON report object."""
    fix = Fixture(data)
    claims = json_list(data.get("claims", []), "fixture 'claims'")
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
