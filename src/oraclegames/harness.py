"""Fixture harness: load golden examples, evaluate their claims exactly.

A fixture is a JSON object bundling one information structure with named
signalings, games, strategies, and belief profiles, plus a list of claims.
Each claim names an operation from the registry below, its arguments, the
expected value, and a provenance tag; expected values are compared exactly.
A claim may instead carry ``expect_error`` ("input", "domain" or
"resource") when the operation is required to be rejected.
Each operation declares its arguments once, as its parameters after the
fixture; ``run_claim`` refuses a missing or undeclared argument and resolves
every argument by its kind before the operation runs.
"""

from __future__ import annotations

import inspect
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
    json_record,
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


def _flag(spec: object, key: str) -> bool:
    """Whether ``spec`` is exactly the JSON object ``{key: true}``."""
    return isinstance(spec, Mapping) and list(spec) == [key] and spec[key] is True


class Fixture:
    """A loaded fixture with caching resolvers for its named objects."""

    def __init__(self, data: object):
        sections = ("signalings", "games", "strategies", "profiles", "claims")
        self.data = json_record(data, "fixture", "name", "structure", optional=sections)
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
        exactly {"trivial": true}."""
        structure = self.structure
        if isinstance(spec, str):
            if spec in structure.oracle_names:
                return structure.oracle(spec)
            if spec in structure.player_names:
                return structure.players[structure.player_index(spec)]
            raise InputError(f"'{spec}' names neither an oracle nor a player")
        if isinstance(spec, list):
            return partition_from_json(structure.space, spec)
        if _flag(spec, "trivial"):
            return Partition.trivial(structure.space)
        raise InputError(f"cannot interpret partition spec {spec!r}")

    def signaling(self, spec: object):
        """A signaling given by fixture name, inline JSON, or exactly one of
        the generated forms {"separating"|"reveal": partition-spec} and
        {"uninformative": true}."""
        if isinstance(spec, str):
            if spec not in self._signalings:
                self._signalings[spec] = signaling_from_json(
                    self.structure, self._named("signalings", spec), f"signaling '{spec}'"
                )
            return self._signalings[spec]
        if isinstance(spec, Mapping) and "type" in spec:
            return signaling_from_json(self.structure, spec)
        if _flag(spec, "uninformative"):
            return StochasticSignaling.from_assignment(
                Partition.trivial(self.structure.space), ["u0"]
            )
        if isinstance(spec, Mapping) and len(spec) == 1:
            ((form, base),) = spec.items()
            if form == "separating":
                return separating_strategy(self.partition(base), self.structure.prior)
            if form == "reveal":
                return _reveal(self.partition(base))
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
        entry = json_record(
            self._named("strategies", name), f"strategy '{name}'", "game", "signaling", "players"
        )
        game = self.game(entry["game"])
        tau = self.signaling(entry["signaling"])
        return game, tau, strategy_from_json(game, tau, entry["players"])

    def two_stage(self, tau: StochasticSignaling) -> TwoStageGame:
        """The ``TwoStageGame`` of ``tau``, built once per signaling."""
        if tau not in self._two_stage:
            self._two_stage[tau] = TwoStageGame(self.structure, tau)
        return self._two_stage[tau]

    def distribution(self, vector: object, what: str = "a distribution") -> Distribution:
        return Distribution(self.structure.space, tuple(json_list(vector, what)))

    def profile(self, spec: object) -> tuple[Distribution, ...]:
        """A tuple of distributions: a named entry of the "profiles" section
        or an inline list of vectors."""
        what = "an inline profile"
        if isinstance(spec, str):
            what = f"profile '{spec}'"
            spec = self._named("profiles", spec)
        return tuple(self.distribution(v, f"a vector of {what}") for v in json_list(spec, what))


# ---------------------------------------------------------------------------
# Argument kinds


def _joint_profile(fix: Fixture, spec: object, name: str) -> tuple[Distribution, ...]:
    """A profile that holds one posterior per player."""
    profile = fix.profile(spec)
    if len(profile) != fix.structure.n:
        raise InputError(
            f"claim argument '{name}' must hold {fix.structure.n} posteriors, "
            f"one per player, not {len(profile)}"
        )
    return profile


def _matrix(fix: Fixture, spec: object, name: str):
    """The experiment matrix of exactly {"signaling": S, "partition": P}."""
    spec = json_record(spec, f"claim argument '{name}'", "signaling", "partition")
    return experiment_matrix(fix.signaling(spec["signaling"]), fix.partition(spec["partition"]))


def _source(fix: Fixture, spec: object, name: str):
    """A partition, or the signaling of exactly {"signaling": S}."""
    if isinstance(spec, Mapping) and "signaling" in spec:
        spec = json_record(spec, f"claim argument '{name}'", "signaling")
        return fix.signaling(spec["signaling"])
    return fix.partition(spec)


# Each kind resolves a claim argument's JSON value, given the fixture and the
# argument's name. A "strategy" is the (game, signaling, strategy) triple of a
# named strategy entry; "json" is the value as written.
KINDS: dict[str, Callable[[Fixture, object, str], object]] = {
    "json": lambda fix, value, name: value,
    "rational": lambda fix, value, name: parse_rational(value),
    "player": lambda fix, value, name: fix.structure.player_index(value),
    "partition": lambda fix, value, name: fix.partition(value),
    "signaling": lambda fix, value, name: fix.signaling(value),
    "game": lambda fix, value, name: fix.game(value),
    "strategy": lambda fix, value, name: fix.strategy(value),
    "profile": lambda fix, value, name: fix.profile(value),
    "joint_profile": _joint_profile,
    "distribution": lambda fix, value, name: fix.distribution(value),
    "matrix": _matrix,
    "source": _source,
}


# ---------------------------------------------------------------------------
# Operation registry


# Each operation, and per claim argument its resolver and whether it is required.
OPS: dict[str, tuple[Callable, dict[str, tuple[Callable, bool]]]] = {}


def op(name: str):
    """Register an operation. Each parameter after ``fix`` is one claim
    argument: its annotation names a kind in ``KINDS`` (an unknown kind is a
    KeyError at import), and a default makes it optional."""

    def register(fn):
        _, *params = inspect.signature(fn, eval_str=True).parameters.values()
        OPS[name] = fn, {p.name: (KINDS[p.annotation], p.default is p.empty) for p in params}
        return fn

    return register


@op("ckc_blocks")
def _op_ckc_blocks(fix: Fixture):
    return ckc_decompose(fix.structure.players).as_json()


@op("ckc_count")
def _op_ckc_count(fix: Fixture):
    return len(ckc_decompose(fix.structure.players).blocks)


@op("refines")
def _op_refines(fix: Fixture, f1: "partition", f2: "partition"):
    return refines(f1, f2)


@op("imi")
def _op_imi(fix: Fixture, f1: "partition", f2: "partition"):
    return is_imi(fix.structure, f1, f2).holds


@op("imi_witness")
def _op_imi_witness(fix: Fixture, f1: "partition", f2: "partition"):
    result = is_imi(fix.structure, f1, f2)
    if result.holds:
        return "none"
    return result.witness.as_json()


@op("coarsening_unmatched")
def _op_coarsening_unmatched(fix: Fixture, oracle: "partition", partition: "partition"):
    profiles = set(coarsening_profiles(fix.structure, oracle))
    return induced_profile(fix.structure, partition) not in profiles


@op("two_sided")
def _op_two_sided(fix: Fixture, f1: "partition", f2: "partition"):
    result = two_sided_imi_equal(fix.structure, f1, f2)
    return {
        "forward": result.forward.holds,
        "backward": result.backward.holds,
        "equal": result.equivalent,
        "consistent": result.equivalent == (f1.blocks == f2.blocks),
    }


@op("unique_dominates")
def _op_unique_dominates(fix: Fixture, f1: "partition", f2: "partition"):
    return unique_ckc_dominates(fix.structure, f1, f2)


@op("unique_dominates_within")
def _op_unique_dominates_within(fix: Fixture, state: "json", f1: "partition", f2: "partition"):
    restricted = restrict_to_ckc(fix.structure, state)
    return unique_ckc_dominates(
        restricted, f1.restrict(restricted.space), f2.restrict(restricted.space)
    )


@op("restrict_oracle")
def _op_restrict_oracle(fix: Fixture, state: "json", oracle: "partition"):
    restricted = restrict_to_ckc(fix.structure, state)
    return oracle.restrict(restricted.space).as_json()


@op("refines_within")
def _op_refines_within(fix: Fixture, state: "json", f1: "partition", f2: "partition"):
    restricted = restrict_to_ckc(fix.structure, state)
    return refines(f1.restrict(restricted.space), f2.restrict(restricted.space))


@op("common_objective")
def _op_common_objective(fix: Fixture, f1: "partition", f2: "partition"):
    return common_objective_condition(fix.structure, f1, f2)


@op("connect_path")
def _op_connect_path(fix: Fixture, a: "json", b: "json"):
    path = connect_path(fix.structure.players, a, b)
    if path is None:
        return "none"
    return [[state, index] for state, index in path]


@op("det_posterior")
def _op_det_posterior(fix: Fixture, player: "player", signaling: "signaling", state: "json"):
    return det_posterior(fix.structure, player, signaling, state)


@op("stoch_posterior")
def _op_stoch_posterior(
    fix: Fixture, player: "player", signaling: "signaling", state: "json", signal: "json"
):
    return stoch_posterior(fix.structure, player, signaling, state, signal)


@op("atlas_size")
def _op_atlas_size(fix: Fixture, signaling: "signaling"):
    return len(posterior_atlas(fix.structure, signaling))


@op("atlas_weights")
def _op_atlas_weights(fix: Fixture, signaling: "signaling"):
    atlas = posterior_atlas(fix.structure, signaling)
    return [format_rational(atlas.weight(p)) for p in atlas.profiles()]


@op("atlas_contains")
def _op_atlas_contains(fix: Fixture, signaling: "signaling", profile: "joint_profile"):
    return profile in posterior_atlas(fix.structure, signaling)


@op("atlas_weight_of")
def _op_atlas_weight_of(fix: Fixture, signaling: "signaling", profile: "joint_profile"):
    return posterior_atlas(fix.structure, signaling).weight(profile)


@op("post_included")
def _op_post_included(fix: Fixture, a: "signaling", b: "signaling"):
    return post_included(posterior_atlas(fix.structure, a), posterior_atlas(fix.structure, b))


@op("experiment_row")
def _op_experiment_row(fix: Fixture, signaling: "signaling", partition: "partition", state: "json"):
    return experiment_matrix(signaling, partition).row(state)


@op("experiment_columns")
def _op_experiment_columns(fix: Fixture, signaling: "signaling", partition: "partition"):
    return [[signal, label] for signal, label in experiment_matrix(signaling, partition).columns]


@op("garbling")
def _op_garbling(fix: Fixture, m1: "matrix", m2: "matrix"):
    return garbling_exists(m1, m2).exists


@op("separating_probs")
def _op_separating_probs(fix: Fixture, oracle: "partition"):
    tau = separating_strategy(oracle, fix.structure.prior)
    return [tau.prob(block[0], tau.signals[0]) for block in oracle.blocks]


@op("proportional")
def _op_proportional(fix: Fixture, t1: "signaling", t2: "signaling"):
    return {
        t: "none" if found is None else [found[0], format_rational(found[1])]
        for t, found in proportional_decompose(t1, t2).items()
    }


@op("expected_payoffs")
def _op_expected_payoffs(fix: Fixture, strategy: "strategy"):
    return expected_payoffs(*strategy)


@op("expected_payoffs_given_event")
def _op_expected_payoffs_given_event(fix: Fixture, strategy: "strategy", event: "json"):
    event = check_labels("state", event, "claim argument 'event'")
    return expected_payoffs(*strategy, given_event=event)


@op("is_equilibrium")
def _op_is_equilibrium(fix: Fixture, strategy: "strategy"):
    return is_equilibrium(*strategy).holds


@op("ned_mass")
def _op_ned_mass(fix: Fixture, strategy: "strategy", state: "json", actions: "json"):
    game = strategy[0]
    state = check_label("state", state)
    if state not in game.structure.space:
        raise InputError(f"unknown state '{state}' in claim argument 'state'")
    actions = check_labels("action", actions, "claim argument 'actions'")
    if (state, actions) not in game.payoffs:
        raise InputError(
            f"claim argument 'actions' {list(actions)} is not an action profile of the game"
        )
    return ned_distribution(*strategy).of(state, actions)


@op("enumerate_equilibria_count")
def _op_enumerate_equilibria_count(fix: Fixture, game: "game", signaling: "signaling"):
    return len(enumerate_pure_equilibria(game, signaling))


@op("best_common")
def _op_best_common(fix: Fixture, game: "game", signaling: "signaling"):
    return best_common_payoff(game, signaling)


@op("best_common_garbled")
def _op_best_common_garbled(fix: Fixture, game: "game", signaling: "signaling", garble: "json"):
    return best_common_payoff(game, merge_garbled(signaling, garble))


# -- permutation decision problems -----------------------------------------


@op("permutation_action_count")
def _op_permutation_action_count(fix: Fixture, player: "player", source: "source"):
    return len(build_permutation_game(fix.structure, player, source).actions[0])


@op("permutation_penalty")
def _op_permutation_penalty(fix: Fixture, player: "player", source: "source"):
    game = build_permutation_game(fix.structure, player, source)
    return min(value for value, in game.payoffs.values())


@op("permutation_payoff_row")
def _op_permutation_payoff_row(fix: Fixture, player: "player", source: "source", action: "json"):
    game = build_permutation_game(fix.structure, player, source)
    action = check_label("action", action)
    return [game.payoff(state, (action,))[0] for state in fix.structure.space]


@op("permutation_value")
def _op_permutation_value(fix: Fixture, player: "player", source: "source", info: "partition"):
    game = build_permutation_game(fix.structure, player, source)
    return best_common_payoff(game, _reveal(information_partition(fix.structure, player, info)))


# -- belief-report games -----------------------------------------------------


def _belief_choices(game, beliefs, spec) -> tuple[str, ...]:
    if len(beliefs) != game.n:
        raise InputError(f"expected {game.n} beliefs, got {len(beliefs)}")
    if spec == "best":
        return tuple(
            belief_best_response(game, i, beliefs[i]) for i in range(game.n)
        )
    return check_labels("action", spec, "claim argument 'choices'")


@op("belief_truthful_payoffs")
def _op_belief_truthful_payoffs(fix: Fixture, profile: "profile"):
    game = BeliefGame(fix.structure.space, profile)
    return belief_expected_payoffs(game, game.declared, truthful_choices(game))


@op("belief_truthful_equilibrium")
def _op_belief_truthful_equilibrium(fix: Fixture, profile: "profile"):
    game = BeliefGame(fix.structure.space, profile)
    return belief_is_equilibrium(game, game.declared, truthful_choices(game))


@op("belief_payoffs")
def _op_belief_payoffs(
    fix: Fixture, profile: "profile", beliefs: "profile", choices: "json" = "best"
):
    game = BeliefGame(fix.structure.space, profile)
    return belief_expected_payoffs(game, beliefs, _belief_choices(game, beliefs, choices))


@op("belief_aggregate")
def _op_belief_aggregate(
    fix: Fixture, profile: "profile", beliefs: "profile", choices: "json" = "best"
):
    game = BeliefGame(fix.structure.space, profile)
    return belief_aggregate(game, beliefs, _belief_choices(game, beliefs, choices))


@op("belief_build_error")
def _op_belief_build_error(fix: Fixture, profile: "profile"):
    return BeliefGame(fix.structure.space, profile) is not None


# -- two-stage declaration games ---------------------------------------------


def _two_stage_truthful_payoffs(game: TwoStageGame) -> tuple[Fraction, ...]:
    return expected_payoffs(game, game.tau, game.truthful_strategy())


@op("two_stage_truthful_aggregate")
def _op_two_stage_truthful_aggregate(fix: Fixture, signaling: "signaling"):
    return sum(_two_stage_truthful_payoffs(fix.two_stage(signaling)), Fraction(0))


@op("two_stage_truthful_payoffs")
def _op_two_stage_truthful_payoffs(fix: Fixture, signaling: "signaling"):
    return _two_stage_truthful_payoffs(fix.two_stage(signaling))


@op("two_stage_truthful_equilibrium")
def _op_two_stage_truthful_equilibrium(fix: Fixture, signaling: "signaling"):
    game = fix.two_stage(signaling)
    return is_equilibrium(game, game.tau, game.truthful_strategy()).holds


@op("two_stage_penalty")
def _op_two_stage_penalty(fix: Fixture, signaling: "signaling"):
    return fix.two_stage(signaling).M


@op("two_stage_mismatch_payoffs")
def _op_two_stage_mismatch_payoffs(fix: Fixture, signaling: "signaling", declare: "json"):
    game = fix.two_stage(signaling)
    declare = check_labels("signal", declare, "claim argument 'declare'")
    if len(declare) != game.structure.n:
        raise InputError(f"expected {game.structure.n} declared signals, got {len(declare)}")
    pairs = reachable_pairs(game.structure, game.tau)
    tables = []
    for signal, menu, player_pairs in zip(declare, game.menus, pairs):
        option = (signal, menu[0], menu[0].support()[0])
        tables.append({pair: option for pair in player_pairs})
    return expected_payoffs(game, game.tau, make_strategy(game, game.tau, tables))


@op("two_stage_max_aggregate_lt")
def _op_two_stage_max_aggregate_lt(
    fix: Fixture, signaling: "signaling", under: "signaling", bound: "rational"
):
    return fix.two_stage(signaling).max_aggregate(under) < bound


# -- log-score games ----------------------------------------------------------


@op("log_score_argmax")
def _op_log_score_argmax(fix: Fixture, q: "distribution", candidates: "profile"):
    return log_score_argmax(q, candidates)


@op("kld_strict_propriety")
def _op_kld_strict_propriety(fix: Fixture, signaling: "signaling"):
    for menu in build_kld_game(fix.structure, signaling).menus:
        for q in menu:
            if log_score_argmax(q, menu) is not q:
                return False
            truth = log_score(q, q)
            for p in menu:
                if p is not q and not (truth > log_score(q, p)):
                    return False
    return True


@op("kld_aggregate_differs")
def _op_kld_aggregate_differs(fix: Fixture, t1: "signaling", t2: "signaling"):
    game1 = build_kld_game(fix.structure, t1)
    game2 = build_kld_game(fix.structure, t2)
    agg1 = kld_aggregate(game1, t1, truthful_kld_strategy(game1, t1))
    agg2 = kld_aggregate(game2, t2, truthful_kld_strategy(game2, t2))
    return agg1 != agg2


@op("combined_truthful_aggregate")
def _op_combined_truthful_aggregate(fix: Fixture, signaling: "signaling"):
    values = CombinedGame(fix.two_stage(signaling)).truthful_payoffs()
    return sum(values[1:], values[0])


@op("combined_linearity")
def _op_combined_linearity(fix: Fixture, signaling: "signaling"):
    combined = CombinedGame(fix.two_stage(signaling))
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
def _op_combined_stage_drop(fix: Fixture, signaling: "signaling", under: "signaling"):
    game = fix.two_stage(signaling)
    truthful = sum(_two_stage_truthful_payoffs(game), Fraction(0))
    return game.max_aggregate(under) < truthful


# ---------------------------------------------------------------------------
# Claim evaluation


_ERROR_KINDS = {
    InputError: "input",
    DomainError: "domain",
    ResourceLimitError: "resource",
}


def run_claim(fix: Fixture, claim: Mapping) -> dict:
    """Evaluate one claim; the result row is JSON-ready."""
    json_object(claim, "a claim", "id", "op", "provenance")
    claim_id = check_label("claim", claim["id"], "")
    what = f"claim '{claim_id}'"
    op_name = check_label("operation", claim["op"], "")
    if op_name not in OPS:
        raise InputError(f"unknown operation '{op_name}' in {what}")
    expect_error = claim.get("expect_error")
    if "expect_error" in claim and expect_error not in _ERROR_KINDS.values():
        raise InputError(
            f"{what} expect_error must be 'input', 'domain' or 'resource', "
            f"got {expect_error!r}"
        )
    compare = claim.get("compare")
    if "compare" in claim and compare != "mixed":
        raise InputError(f"{what} compare must be 'mixed', got {compare!r}")
    # A claim expects exactly one outcome, and only a value is compared.
    if "expect_error" in claim:
        json_record(claim, what, "id", "op", "provenance", "expect_error", optional=("args",))
    else:
        json_record(claim, what, "id", "op", "provenance", "expected", optional=("args", "compare"))
    if claim["provenance"] not in ("paper", "derived", "trivial"):
        raise InputError(
            f"{what} provenance must be 'paper', 'derived' or 'trivial', "
            f"got {claim['provenance']!r}"
        )
    fn, params = OPS[op_name]
    args = json_object(claim.get("args", {}), f"{what} args")
    undeclared = sorted(set(args) - set(params))
    if undeclared:
        raise InputError(
            f"{what} has argument '{undeclared[0]}', "
            f"which operation '{op_name}' does not read"
        )
    for name, (_, required) in params.items():
        if required and name not in args:
            raise InputError(f"{what} is missing argument '{name}'")
    expected = claim["expected"] if expect_error is None else {"error": expect_error}
    row = {
        "id": claim_id,
        "op": op_name,
        "provenance": claim["provenance"],
        "expected": expected,
    }
    resolved = {name: params[name][0](fix, value, name) for name, value in args.items()}
    try:
        actual = fn(fix, **resolved)
    except tuple(_ERROR_KINDS) as exc:
        if expect_error is None:
            raise
        row["actual"] = {"error": _ERROR_KINDS[type(exc)]}
    else:
        row["actual"] = _jsonify(actual)
    if compare:
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
        if denom != int(denom):
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
