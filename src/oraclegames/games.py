"""Game evaluation over information structures, all in exact arithmetic.

Covers finite Bayesian games played after a signaling round (strategies live
on reachable (block, signal) pairs) and the specialized constructions used
to separate oracles: the block-permutation decision problem (a one-player
game), the belief-report game, the two-stage declaration game, the
log-score game (scores compared exactly, without evaluating logarithms), and
the combination of the last two.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Optional, Union

from .errors import DomainError, InputError, ResourceLimitError
from .partitions import ckc_decompose, join
from .signaling import (
    StochasticSignaling,
    _branch_masses,
    _branch_profiles,
    posterior_menu,
)
from .types import (
    Distribution,
    InformationStructure,
    Partition,
    StateSpace,
    check_label,
    check_labels,
    format_rational,
    json_list,
    json_object,
    parse_rational,
)

DEFAULT_EQUILIBRIUM_CAP = 100000
DEFAULT_PERMUTATION_CAP = 10000

ActionProfile = tuple[str, ...]
Pair = tuple[tuple[str, ...], str]
Branch = tuple[str, str]
Slot = tuple[int, tuple[str, ...]]
Game = Union["BayesianGame", "TwoStageGame", "LogScoreGame"]


@dataclass(eq=False)
class BayesianGame:
    """A finite n-player game with state-dependent payoffs.

    ``payoffs`` maps (state, action profile) to one utility per player and
    must be total over states x action profiles.
    """

    structure: InformationStructure
    actions: tuple[tuple[str, ...], ...]
    payoffs: dict[tuple[str, ActionProfile], tuple[Fraction, ...]]

    def __post_init__(self):
        n = self.structure.n
        self.actions = tuple(tuple(acts) for acts in self.actions)
        if len(self.actions) != n:
            raise InputError(
                f"expected action sets for {n} players, got {len(self.actions)}"
            )
        for acts in self.actions:
            if not acts:
                raise InputError("every player needs at least one action")
            seen = set()
            for a in acts:
                check_label("action", a)
                if a in seen:
                    raise InputError(f"duplicate action label {a!r}")
                seen.add(a)
        expected = {
            (state, profile)
            for state in self.structure.space
            for profile in itertools.product(*self.actions)
        }
        keys = set(self.payoffs)
        if keys != expected:
            missing = sorted(expected - keys)
            extra = sorted(keys - expected)
            what = missing[0] if missing else extra[0]
            kind = "missing" if missing else "unexpected"
            raise InputError(f"{kind} payoff entry for {what!r}")
        for key, values in self.payoffs.items():
            if len(values) != n:
                raise InputError(f"payoff entry {key!r} must list {n} utilities")

    def payoff(self, state: str, profile: ActionProfile) -> tuple[Fraction, ...]:
        try:
            return self.payoffs[(state, profile)]
        except KeyError:
            raise DomainError(
                f"no payoff entry for state '{state}' and profile {profile!r}"
            ) from None


def game_from_json(
    structure: InformationStructure, data: object, what: str = "game"
) -> BayesianGame:
    """Build a game from its JSON form (each player's actions, and per state
    a payoff row keyed by the action profile joined by ``|``); ``what``
    names it in error messages."""
    data = json_object(data, what, "actions", "payoffs")
    if "log_domain" in data:
        raise InputError(f"{what} has a 'log_domain' field, but a log-score game has no JSON form")
    names = structure.player_names
    action_map = json_object(data["actions"], f"{what} 'actions'", *names)
    extra = sorted(set(action_map) - set(names))
    if extra:
        raise InputError(f"{what} lists actions for unknown player '{extra[0]}'")
    actions = tuple(
        check_labels("action", action_map[name], f"{what} actions of player '{name}'")
        for name in names
    )
    payoffs: dict[tuple[str, ActionProfile], tuple[Fraction, ...]] = {}
    for state, row in json_object(data["payoffs"], f"{what} 'payoffs'").items():
        if state not in structure.space:
            raise InputError(f"unknown state '{state}' in payoffs")
        for key, values in json_object(row, f"{what} payoffs row '{state}'").items():
            entry = json_list(values, f"{what} payoff entry '{state}': '{key}'")
            payoffs[(state, tuple(key.split("|")))] = tuple(map(parse_rational, entry))
    return BayesianGame(structure, actions, payoffs)


def reachable_pairs(
    structure: InformationStructure, tau: StochasticSignaling
) -> tuple[tuple[Pair, ...], ...]:
    """Per player, the (block, signal) pairs that occur with positive mass:
    blocks in canonical order, then signal order."""
    return _reachable(structure, tau.signals, _branch_masses(structure, tau))


def _reachable(
    structure: InformationStructure,
    signals: Sequence[str],
    masses: Mapping[Branch, Fraction],
) -> tuple[tuple[Pair, ...], ...]:
    return tuple(
        tuple(
            (block, signal)
            for block in partition.blocks
            for signal in signals
            if any((state, signal) in masses for state in block)
        )
        for partition in structure.players
    )


@dataclass(eq=False)
class StrategyProfile:
    """One mixed action per player per reachable (block, signal) pair."""

    per_player: tuple[dict[Pair, dict[str, Fraction]], ...]

    def mixture(self, player: int, block: tuple[str, ...], signal: str) -> dict[str, Fraction]:
        try:
            return self.per_player[player][(block, signal)]
        except KeyError:
            raise DomainError(
                f"strategy for player {player} has no entry at block "
                f"{{{','.join(block)}}} with signal '{signal}'"
            ) from None

    def as_json(self, player_names: Sequence[str]) -> dict:
        out: dict[str, dict] = {}
        for name, table in zip(player_names, self.per_player):
            entry = {}
            for (block, signal), mix in table.items():
                key = ",".join(block) + "|" + signal
                pure = [a for a, p in mix.items() if p == 1]
                if len(pure) == 1 and len([p for p in mix.values() if p > 0]) == 1:
                    entry[key] = pure[0]
                else:
                    entry[key] = {
                        a: format_rational(p) for a, p in sorted(mix.items()) if p > 0
                    }
            out[name] = entry
        return out


def _normalize_mixture(value: object, actions: frozenset) -> dict:
    if not isinstance(value, Mapping):
        if not isinstance(value, Hashable) or value not in actions:
            raise InputError(f"unknown action {value!r} in strategy")
        return {value: Fraction(1)}
    mix = {a: parse_rational(p) for a, p in value.items()}
    total = Fraction(0)
    for action, p in mix.items():
        if action not in actions:
            raise InputError(f"unknown action {action!r} in strategy")
        if p < 0:
            raise InputError(f"negative probability {p} in strategy")
        total += p
    if total != 1:
        raise InputError(f"strategy mixture sums to {total}, expected 1")
    return mix


def _check_entries(player: str, pairs: Sequence[Pair], table: Iterable[Pair]) -> None:
    """Reject a strategy table whose keys are not exactly the player's
    reachable pairs, naming the first missing (else unreachable) pair."""
    wanted = set(pairs)
    got = set(table)
    if got != wanted:
        missing = sorted(wanted - got)
        extra = sorted(got - wanted)
        block, signal = (missing or extra)[0]
        kind = "missing" if missing else "unreachable"
        raise DomainError(
            f"strategy for player '{player}' has a {kind} entry at block "
            f"{{{','.join(block)}}} with signal '{signal}'"
        )


def make_strategy(
    game: Game,
    tau: StochasticSignaling,
    per_player: Sequence[Mapping[Pair, object]],
) -> StrategyProfile:
    """Validate and assemble a strategy: its domain must be exactly the
    reachable pairs, and every entry must be one of the player's actions or
    a distribution over them."""
    pairs = reachable_pairs(game.structure, tau)
    if len(per_player) != game.structure.n:
        raise InputError(
            f"expected strategies for {game.structure.n} players, got {len(per_player)}"
        )
    tables = []
    for i, mapping in enumerate(per_player):
        _check_entries(game.structure.player_names[i], pairs[i], mapping)
        actions = frozenset(game.actions[i])
        tables.append(
            {pair: _normalize_mixture(mapping[pair], actions) for pair in pairs[i]}
        )
    return StrategyProfile(tuple(tables))


def _parse_pair_key(key: str, partition: Partition) -> Pair:
    if "|" not in key:
        raise InputError(f"strategy key {key!r} must look like 'state,...|signal'")
    block_part, signal = key.split("|", 1)
    states = tuple(block_part.split(","))
    for state in states:
        if state not in partition.space:
            raise InputError(f"unknown state '{state}' in strategy key {key!r}")
    block = partition.block_of(states[0])
    if set(states) != set(block):
        raise InputError(f"strategy key {key!r} does not name a block of the player")
    return (block, signal)


def strategy_from_json(
    game: BayesianGame, tau: StochasticSignaling, data: object
) -> StrategyProfile:
    """Parse {"player": {"state,...|signal": action-or-mixture}} strategies."""
    names = game.structure.player_names
    json_object(data, "strategy 'players'", *names)
    extra = sorted(set(data) - set(names))
    if extra:
        raise InputError(f"strategy JSON names unknown player '{extra[0]}'")
    per_player: list[dict[Pair, object]] = []
    for name, partition in zip(names, game.structure.players):
        entries = json_object(data[name], f"strategy of player '{name}'")
        per_player.append(
            {_parse_pair_key(key, partition): value for key, value in entries.items()}
        )
    return make_strategy(game, tau, per_player)


def _outcomes(
    game: Game,
    tau: StochasticSignaling,
    strategy: StrategyProfile,
    event: Optional[set[str]] = None,
) -> Iterable[tuple[str, ActionProfile, Fraction]]:
    """(state, action profile, mass) over every branch (at a state of
    ``event``, when given) and every combination of the actions the players'
    mixtures play there."""
    structure = game.structure
    for (state, signal), w in _branch_masses(structure, tau).items():
        if event is not None and state not in event:
            continue
        mixtures = []
        for i, partition in enumerate(structure.players):
            mix = strategy.mixture(i, partition.block_of(state), signal)
            mixtures.append([(a, p) for a, p in mix.items() if p > 0])
        for combo in itertools.product(*mixtures):
            weight = w
            for _, p in combo:
                weight *= p
            yield state, tuple(a for a, _ in combo), weight


def _cells(
    structure: InformationStructure, tau: StochasticSignaling
) -> Iterable[tuple[str, list[tuple[str, Fraction, tuple[int, ...]]], list[Slot]]]:
    """Each nonempty (signal, common-knowledge component) cell as (signal,
    positioned branches, slots).

    A branch (state, signal) touches only the strategy slots (player, block)
    of its own cell, so a branch-additive objective over pure measurable
    strategies is maximized cell by cell.  Slots are numbered player by
    player in first-seen order; a positioned branch is (state, mass, slot
    index of each player).
    """
    meet = ckc_decompose(structure.players)
    cells: dict[tuple[str, tuple[str, ...]], list[tuple[str, Fraction]]] = {}
    for (state, signal), w in _branch_masses(structure, tau).items():
        cells.setdefault((signal, meet.block_of(state)), []).append((state, w))
    for (signal, _), branches in cells.items():
        slots: list[Slot] = []
        index: dict[Slot, int] = {}
        for i, partition in enumerate(structure.players):
            for state, _ in branches:
                key = (i, partition.block_of(state))
                if key not in index:
                    index[key] = len(slots)
                    slots.append(key)
        positioned = [
            (
                state,
                w,
                tuple(
                    index[(i, partition.block_of(state))]
                    for i, partition in enumerate(structure.players)
                ),
            )
            for state, w in branches
        ]
        yield signal, positioned, slots


def _slot_search(
    sizes: Sequence[int], admit: Callable[[int, list[int]], bool]
) -> Iterator[tuple[int, ...]]:
    """Option-index assignments to slots 0, 1, ..., depth first in
    ``itertools.product`` order, going past slot d only while
    ``admit(d, assigned)`` holds; slots past d hold -1 meanwhile.  The walk
    is a loop, so the number of slots is not bounded by the recursion limit."""
    assigned = [-1] * len(sizes)
    d = 0
    while d >= 0:
        if d == len(sizes):
            yield tuple(assigned)
            d -= 1
        elif assigned[d] + 1 < sizes[d]:
            assigned[d] += 1
            if admit(d, assigned):
                d += 1
        else:
            assigned[d] = -1
            d -= 1


def _cellwise_max(
    structure: InformationStructure,
    tau: StochasticSignaling,
    sizes: Sequence[int],
    branch_bound: Callable[[str, tuple[Optional[int], ...]], Fraction],
    value: Callable[[Sequence, Sequence[Slot], tuple[int, ...]], Fraction],
) -> Fraction:
    """Sum over the cells of the largest ``value(positioned, slots, leaf)``
    over the cell's assignments of ``sizes[player]`` options per slot.  A
    subtree is cut once the mass-weighted ``branch_bound(state, option index
    per player, None while unassigned)`` of the cell's branches cannot beat
    the best leaf so far."""
    total = Fraction(0)
    for _, positioned, slots in _cells(structure, tau):
        best: Optional[Fraction] = None

        def admit(d: int, assigned: list[int]) -> bool:
            bound = Fraction(0)
            for state, w, at in positioned:
                fixed = tuple(assigned[k] if k <= d else None for k in at)
                bound += w * branch_bound(state, fixed)
            return best is None or bound > best

        for leaf in _slot_search([sizes[i] for i, _ in slots], admit):
            v = value(positioned, slots, leaf)
            if best is None or v > best:
                best = v
        total += best
    return total


def expected_payoffs(
    game: Game,
    tau: StochasticSignaling,
    strategy: StrategyProfile,
    given_event: Optional[Iterable[str]] = None,
) -> tuple[Fraction, ...]:
    """Exact expected utility per player, optionally conditional on an event
    (a set of states: a state listed twice counts once)."""
    if isinstance(game, LogScoreGame):
        raise DomainError("log-domain game: evaluate with kld_expected_scores")
    structure = game.structure
    event = None
    if given_event is not None:
        listed = list(given_event)
        if not listed:
            raise DomainError("cannot condition on an empty event")
        for state in listed:
            if state not in structure.space:
                raise InputError(f"unknown state '{state}' in event")
        event = set(listed)
    totals = [Fraction(0)] * structure.n
    for state, profile, weight in _outcomes(game, tau, strategy, event):
        values = game.payoff(state, profile)
        for i in range(structure.n):
            totals[i] += weight * values[i]
    if event is not None:
        mass = structure.prior.event_mass(event)
        totals = [t / mass for t in totals]
    return tuple(totals)


@dataclass(eq=False)
class OutcomeDistribution:
    """Joint distribution over (state, action profile) outcomes."""

    space: StateSpace
    mass: dict[tuple[str, ActionProfile], Fraction]

    def __post_init__(self):
        total = Fraction(0)
        for (state, _), value in self.mass.items():
            if state not in self.space:
                raise InputError(f"unknown state '{state}' in outcome distribution")
            if value < 0:
                raise InputError("outcome masses must be nonnegative")
            total += value
        if total != 1:
            raise InputError(f"outcome masses sum to {total}, expected 1")

    def of(self, state: str, profile: ActionProfile) -> Fraction:
        return self.mass.get((state, tuple(profile)), Fraction(0))

    def as_json(self) -> list[dict]:
        rows = []
        for (state, profile), value in sorted(self.mass.items()):
            if value > 0:
                rows.append(
                    {
                        "state": state,
                        "actions": list(profile),
                        "mass": format_rational(value),
                    }
                )
        return rows


def ned_distribution(
    game: BayesianGame, tau: StochasticSignaling, strategy: StrategyProfile
) -> OutcomeDistribution:
    """Distribution over (state, action profile) induced by prior, signaling,
    and strategy."""
    mass: dict[tuple[str, ActionProfile], Fraction] = {}
    for state, profile, weight in _outcomes(game, tau, strategy):
        key = (state, profile)
        mass[key] = mass.get(key, Fraction(0)) + weight
    return OutcomeDistribution(game.structure.space, mass)


@dataclass(frozen=True)
class EquilibriumResult:
    """Outcome of an equilibrium check; the witness names the first
    profitable deviation in scan order."""

    holds: bool
    witness: Optional[tuple] = None


def _deviation_value(
    game: Game,
    masses: Mapping[Branch, Fraction],
    strategy: StrategyProfile,
    player: int,
    block: tuple[str, ...],
    signal: str,
) -> Callable[[object], Fraction]:
    """The player's payoff at the (block, signal) pair as a function of the
    action they play there, the others playing ``strategy``; the others'
    outcomes are built once and shared by every action valued."""
    outcomes = []
    for state in block:
        w = masses.get((state, signal))
        if not w:
            continue
        others = []
        for j, partition in enumerate(game.structure.players):
            if j == player:
                continue
            mix = strategy.mixture(j, partition.block_of(state), signal)
            others.append((j, [(a, p) for a, p in mix.items() if p > 0]))
        for combo in itertools.product(*(items for _, items in others)):
            weight = w
            profile: list[object] = [None] * game.structure.n
            for (j, _), (a, p) in zip(others, combo):
                weight *= p
                profile[j] = a
            outcomes.append((state, weight, profile))

    def value(action: object) -> Fraction:
        total = Fraction(0)
        for state, weight, profile in outcomes:
            profile[player] = action
            total += weight * game.payoff(state, tuple(profile))[player]  # type: ignore[arg-type]
        return total

    return value


def is_equilibrium(
    game: Game, tau: StochasticSignaling, strategy: StrategyProfile
) -> EquilibriumResult:
    """Check for profitable unilateral deviations to a pure action, pair by
    pair, in player, pair and action order; the witness is the first (player,
    block, signal, action) that beats the player's own mixture at the pair.
    Payoffs are additive across a player's pairs (the events are disjoint),
    so the sweep is exhaustive."""
    if isinstance(game, LogScoreGame):
        raise DomainError("log-domain game: evaluate with kld_expected_scores")
    masses = _branch_masses(game.structure, tau)
    pairs = _reachable(game.structure, tau.signals, masses)
    for i, name in enumerate(game.structure.player_names):
        for block, signal in pairs[i]:
            value = _deviation_value(game, masses, strategy, i, block, signal)
            mix = [(a, p) for a, p in strategy.mixture(i, block, signal).items() if p > 0]
            values = {a: value(a) for a, _ in mix}
            current = sum((p * values[a] for a, p in mix), Fraction(0))
            for action in game.actions[i]:
                v = values.get(action)
                if v is None:
                    v = value(action)
                if v > current:
                    return EquilibriumResult(False, (name, block, signal, action))
    return EquilibriumResult(True)


def enumerate_pure_equilibria(
    game: BayesianGame, tau: StochasticSignaling, cap: int = DEFAULT_EQUILIBRIUM_CAP
) -> list[StrategyProfile]:
    """All pure-strategy equilibria, in ``itertools.product`` order over the
    slots (player, then reachable pair), each table keyed in pair order.

    A deviation at a slot reads only its own (signal, common-knowledge
    component) cell, so the equilibria are the product of the cells'
    equilibria.  Each cell checks a slot for a profitable deviation as soon
    as every slot its deviation values read is assigned.  Before any slot is
    valued, a cell of more than ``cap`` pure profiles is refused; then a cell
    without equilibria gives ``[]``; else more than ``cap`` equilibria are
    refused."""
    if isinstance(game, LogScoreGame):
        raise DomainError("log-domain game: evaluate with kld_expected_scores")
    structure = game.structure
    masses = _branch_masses(structure, tau)
    cells = list(_cells(structure, tau))
    largest = max(math.prod(len(game.actions[i]) for i, _ in slots) for _, _, slots in cells)
    if largest > cap:
        raise ResourceLimitError(
            f"{largest} pure strategy profiles in one cell exceed the cap of {cap}", cap=cap
        )
    pairs = _reachable(structure, tau.signals, masses)
    slots = [(i, pair) for i in range(structure.n) for pair in pairs[i]]
    position = {slot: g for g, slot in enumerate(slots)}
    tables: list[dict[Pair, dict[str, Fraction]]] = [{} for _ in range(structure.n)]
    assigned_profile = StrategyProfile(tuple(tables))
    parts = []  # per cell, its equilibria as lists of (global slot, option index)
    for signal, positioned, cell_slots in cells:
        local = [(i, (block, signal)) for i, block in cell_slots]
        reads: list[set[int]] = [set() for _ in local]  # every slot of a slot's branches
        for _, _, at in positioned:
            for k in at:
                reads[k].update(at)
        due: list[list[int]] = [[] for _ in local]  # the slots checked at each depth
        for k, read in enumerate(reads):
            due[max(read)].append(k)
        verdicts: dict[tuple, bool] = {}

        def admit(d: int, assigned: list[int]) -> bool:
            i, pair = local[d]
            tables[i][pair] = {game.actions[i][assigned[d]]: Fraction(1)}
            for k in due[d]:
                key = (k, tuple(assigned[r] for r in reads[k]))
                if key not in verdicts:
                    j, (block, signal) = local[k]
                    value = _deviation_value(game, masses, assigned_profile, j, block, signal)
                    values = [value(a) for a in game.actions[j]]
                    verdicts[key] = not any(v > values[assigned[k]] for v in values)
                if not verdicts[key]:
                    return False
            return True

        leaves = _slot_search([len(game.actions[i]) for i, _ in local], admit)
        parts.append([[(position[slot], o) for slot, o in zip(local, leaf)] for leaf in leaves])
        if not parts[-1]:
            return []
    count = math.prod(map(len, parts))
    if count > cap:
        raise ResourceLimitError(f"{count} pure equilibria exceed the cap of {cap}", cap=cap)
    out = []
    # Lists of (global slot, option) in slot order sort as itertools.product visits them.
    for profile in sorted(sorted(itertools.chain(*combo)) for combo in itertools.product(*parts)):
        per_player: list[dict] = [{} for _ in range(structure.n)]
        for (i, pair), (_, option) in zip(slots, profile):
            per_player[i][pair] = {game.actions[i][option]: Fraction(1)}
        out.append(StrategyProfile(tuple(per_player)))
    return out


# ---------------------------------------------------------------------------
# The block-permutation decision problem: a one-player game.


def information_partition(
    structure: InformationStructure,
    player: int,
    source: Union[Partition, StochasticSignaling],
) -> Partition:
    """The player's effective information: own partition joined with the
    partition induced by a deterministic (0/1) signaling, or a raw partition."""
    induced = source if isinstance(source, Partition) else source.induced_partition()
    return join(structure.players[player], induced)


def build_permutation_game(
    structure: InformationStructure,
    player: int,
    source: Union[Partition, StochasticSignaling],
    cap: int = DEFAULT_PERMUTATION_CAP,
) -> BayesianGame:
    """Decision problem whose actions rank the states inside one block of the
    player's effective information partition.

    Ranking a block correctly is rewarded in proportion to the assigned
    position, normalized by the conditional state probability; acting on the
    wrong block costs a penalty so large that it can never pay off.  Exact
    value comparisons of this problem separate effective partitions.

    It is a one-player game: the player keeps their name and holds the
    trivial partition, so the problem's value under an information
    partition is ``best_common_payoff`` under the signaling that reveals
    that partition's blocks.
    """
    base = information_partition(structure, player, source)
    size = 0
    for block in base.blocks:
        size += math.factorial(len(block))
    if size > cap:
        raise ResourceLimitError(
            f"{size} permutation actions exceed the cap of {cap}", cap=cap
        )
    prior = structure.prior
    penalty = Fraction(-(2 ** (10 * len(structure.space)))) / prior.min_mass()
    actions = []
    payoffs: dict[tuple[str, ActionProfile], tuple[Fraction, ...]] = {}
    for j, block in enumerate(base.blocks):
        block_mass = prior.event_mass(block)
        for perm in itertools.permutations(block):
            label = f"b{j}:" + ",".join(perm)
            actions.append(label)
            for state in structure.space:
                if state in block:
                    position = perm.index(state) + 1
                    cond = prior.of(state) / block_mass
                    value = Fraction(position) / (cond * len(block))
                else:
                    value = penalty
                payoffs[(state, (label,))] = (value,)
    agent = InformationStructure(
        structure.space,
        prior,
        (structure.player_names[player],),
        (Partition.trivial(structure.space),),
    )
    return BayesianGame(agent, (tuple(actions),), payoffs)


# ---------------------------------------------------------------------------
# Belief-report games.


@dataclass(eq=False)
class BeliefGame:
    """Proper-scoring game built from a declared posterior profile.

    Player i may act only on the support of their declared posterior; hitting
    the realized state pays the inverse declared probability, landing outside
    the declared support costs 2, and everyone is docked a share 2/(n-1) of
    the other players' successes, which makes truthful declarations sum to
    exactly -1 per player.

    Summed over players, the game at state s pays -2 for each declared
    posterior that gives s no mass and -1/p for each player who acts on s,
    p being that player's declared mass on s.  Player i's own expected
    score under belief q_i is -2 q_i(off their declared support) plus their
    hit ratio q_i(a_i)/p_i(a_i), less 2/(n-1) of every other player's hit
    ratio (each scored under that player's own belief).
    """

    space: StateSpace
    declared: tuple[Distribution, ...]

    def __post_init__(self):
        self.declared = tuple(self.declared)
        if len(self.declared) < 2:
            raise DomainError("a belief game needs at least two players")
        for dist in self.declared:
            if dist.space != self.space:
                raise InputError("declared posteriors use a different state space")

    @property
    def n(self) -> int:
        return len(self.declared)

    def action_set(self, player: int) -> tuple[str, ...]:
        return self.declared[player].support()

    def r_value(self, player: int, action: str, state: str) -> Fraction:
        mass = self.declared[player].of(state)
        if mass == 0:
            return Fraction(-2)
        if action == state:
            return 1 / mass
        return Fraction(0)

    def utility(self, player: int, state: str, actions: Sequence[str]) -> Fraction:
        value = self.r_value(player, actions[player], state)
        share = Fraction(2, self.n - 1)
        for j in range(self.n):
            if j == player:
                continue
            if self.declared[j].of(state) > 0:
                value -= share * self.r_value(j, actions[j], state)
        return value


def _check_belief_inputs(
    game: BeliefGame, beliefs: Sequence[Distribution], choices: Sequence[str]
) -> None:
    if len(beliefs) != game.n or len(choices) != game.n:
        raise InputError(f"expected {game.n} beliefs and choices")
    for i, (belief, choice) in enumerate(zip(beliefs, choices)):
        if belief.space != game.space:
            raise InputError("beliefs use a different state space")
        if choice not in game.action_set(i):
            raise DomainError(
                f"action '{choice}' is outside player {i}'s declared support"
            )


def belief_expected_payoffs(
    game: BeliefGame, beliefs: Sequence[Distribution], choices: Sequence[str]
) -> tuple[Fraction, ...]:
    """Expected utilities where every scoring term is weighted by the acting
    player's own belief about the state."""
    _check_belief_inputs(game, beliefs, choices)
    hits = [q.of(a) / p.of(a) for q, p, a in zip(beliefs, game.declared, choices)]
    total = sum(hits, Fraction(0))
    share = Fraction(2, game.n - 1)
    return tuple(
        -2 * sum((m for m, d in zip(q.vector, p.vector) if d == 0), Fraction(0))
        + hit
        - share * (total - hit)
        for q, p, hit in zip(beliefs, game.declared, hits)
    )


def belief_aggregate(
    game: BeliefGame, beliefs: Sequence[Distribution], choices: Sequence[str]
) -> Fraction:
    return sum(belief_expected_payoffs(game, beliefs, choices), Fraction(0))


def belief_best_response(game: BeliefGame, player: int, belief: Distribution) -> str:
    """Action maximizing the player's own scoring term (ties go to the
    earliest state); the cross terms do not depend on the player's action."""
    if belief.space != game.space:
        raise InputError("belief uses a different state space")
    best = None
    best_value = None
    for action in game.action_set(player):
        value = belief.of(action) / game.declared[player].of(action)
        if best is None or value > best_value:
            best, best_value = action, value
    if best is None:
        raise DomainError("declared posterior has empty support")
    return best


def belief_is_equilibrium(
    game: BeliefGame, beliefs: Sequence[Distribution], choices: Sequence[str]
) -> bool:
    """No player can raise their own expected score by switching actions.
    Off the declared support every action pays the same penalty, so a
    choice is a best response exactly when its belief-to-declared ratio
    equals that of ``belief_best_response``."""
    _check_belief_inputs(game, beliefs, choices)

    def ratio(i: int, action: str) -> Fraction:
        return beliefs[i].of(action) / game.declared[i].of(action)

    return all(
        ratio(i, choices[i]) == ratio(i, belief_best_response(game, i, beliefs[i]))
        for i in range(game.n)
    )


def truthful_choices(game: BeliefGame) -> tuple[str, ...]:
    """First in-support action per player (all are payoff-equivalent when
    beliefs match declarations)."""
    return tuple(game.action_set(i)[0] for i in range(game.n))


# ---------------------------------------------------------------------------
# Exact log-domain scores.


@dataclass(frozen=True, eq=False)
class LogScore:
    """The quantity log(product)/denom, compared without evaluating logs.

    Two scores compare via product1**denom2 vs product2**denom1, which is
    exact in big-rational arithmetic; ``neg_inf`` marks minus infinity.
    """

    neg_inf: bool
    product: Fraction
    denom: int

    def __post_init__(self):
        if self.denom < 1:
            raise InputError("log score denominator must be a positive integer")
        if not self.neg_inf and self.product <= 0:
            raise InputError("log score product must be positive")

    @classmethod
    def zero(cls) -> "LogScore":
        return cls(False, Fraction(1), 1)

    @classmethod
    def minus_infinity(cls) -> "LogScore":
        return cls(True, Fraction(1), 1)

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[Fraction, Fraction]]) -> "LogScore":
        """Score sum(w * log(v)) from (weight, value) terms with w >= 0."""
        kept = []
        for weight, value in terms:
            if weight < 0:
                raise InputError("log score weights must be nonnegative")
            if value < 0:
                raise InputError("log score values must be nonnegative")
            if weight == 0:
                continue
            if value == 0:
                return cls.minus_infinity()
            kept.append((Fraction(weight), Fraction(value)))
        if not kept:
            return cls.zero()
        denom = 1
        for weight, _ in kept:
            denom = math.lcm(denom, weight.denominator)
        product = Fraction(1)
        for weight, value in kept:
            exponent = weight * denom
            product *= value ** int(exponent)
        return cls(False, product, denom)

    def half(self) -> "LogScore":
        return LogScore(self.neg_inf, self.product, self.denom * 2)

    def __add__(self, other: "LogScore") -> "LogScore":
        if not isinstance(other, LogScore):
            return NotImplemented
        if self.neg_inf or other.neg_inf:
            return LogScore.minus_infinity()
        return LogScore(
            False,
            self.product ** other.denom * other.product ** self.denom,
            self.denom * other.denom,
        )

    def _compare(self, other: "LogScore") -> int:
        if self.neg_inf and other.neg_inf:
            return 0
        if self.neg_inf:
            return -1
        if other.neg_inf:
            return 1
        left = self.product ** other.denom
        right = other.product ** self.denom
        return (left > right) - (left < right)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogScore):
            return NotImplemented
        return self._compare(other) == 0

    def __lt__(self, other: "LogScore") -> bool:
        if not isinstance(other, LogScore):
            return NotImplemented
        return self._compare(other) < 0

    def __le__(self, other: "LogScore") -> bool:
        if not isinstance(other, LogScore):
            return NotImplemented
        return self._compare(other) <= 0

    def __gt__(self, other: "LogScore") -> bool:
        if not isinstance(other, LogScore):
            return NotImplemented
        return self._compare(other) > 0

    def __ge__(self, other: "LogScore") -> bool:
        if not isinstance(other, LogScore):
            return NotImplemented
        return self._compare(other) >= 0

    def as_json(self) -> object:
        if self.neg_inf:
            return "-inf"
        return {"product": format_rational(self.product), "denom": self.denom}


def log_score(q: Distribution, p: Distribution) -> LogScore:
    """sum over states of q(state) * log p(state), with 0*log(0) = 0."""
    if q.space != p.space:
        raise DomainError("distributions use different state spaces")
    return LogScore.from_terms((q.of(s), p.of(s)) for s in q.support())


def log_score_argmax(
    q: Distribution, candidates: Sequence[Distribution]
) -> Distribution:
    """Candidate maximizing the expected log score under q; the first strict
    maximum in listed order wins."""
    if not candidates:
        raise DomainError("no candidates to score")
    best = None
    best_score = None
    for candidate in candidates:
        score = log_score(q, candidate)
        if best is None or score > best_score:
            best, best_score = candidate, score
    return best


# ---------------------------------------------------------------------------
# Log-score declaration game.


def kld_action_label(dist: Distribution) -> str:
    return "(" + ",".join(format_rational(v) for v in dist.vector) + ")"


def _posterior_menus(
    branches: Mapping[Branch, tuple], n: int
) -> tuple[tuple[Distribution, ...], ...]:
    """Per player, the distinct posteriors of the branches, sorted by
    vector: the player's declaration menu."""
    profiles = [profile for _, profile in branches.values()]
    return tuple(posterior_menu(p.per_player[i] for p in profiles) for i in range(n))


class LogScoreGame:
    """Each player declares a posterior from their menu (actions are the
    ``kld_action_label``s) and is paid the log of the mass it gives the
    realized state.  ``payoff`` returns those masses, looked up when asked;
    only ``kld_expected_scores`` evaluates the game."""

    def __init__(self, structure: InformationStructure, menus: Sequence[Sequence[Distribution]]):
        self.structure = structure
        self.menus = tuple(tuple(menu) for menu in menus)
        self.actions = tuple(tuple(kld_action_label(d) for d in menu) for menu in self.menus)
        self._declared = [dict(zip(a, m)) for a, m in zip(self.actions, self.menus)]

    def payoff(self, state: str, profile: ActionProfile) -> tuple[Fraction, ...]:
        """The likelihood each player's declaration gives the state."""
        if (
            state in self.structure.space
            and len(profile) == self.structure.n
            and all(a in menu for a, menu in zip(profile, self._declared))
        ):
            return tuple(menu[a].of(state) for a, menu in zip(profile, self._declared))
        raise DomainError(f"no payoff entry for state '{state}' and profile {profile!r}")


def build_kld_game(structure: InformationStructure, tau: StochasticSignaling) -> LogScoreGame:
    """The log-score game whose menus are the posteriors the signaling
    induces."""
    return LogScoreGame(structure, _posterior_menus(_branch_profiles(structure, tau), structure.n))


def _posterior_at(
    branches: Mapping[Branch, tuple], player: int, block: tuple[str, ...], signal: str
) -> Distribution:
    """The player's posterior at a reachable (block, signal) pair."""
    state = next(s for s in block if (s, signal) in branches)
    return branches[(state, signal)][1].per_player[player]


def _truthful_strategy(
    game: Game,
    tau: StochasticSignaling,
    branches: Mapping[Branch, tuple],
    declare: Callable[[int, Distribution, str], object],
) -> StrategyProfile:
    """At every reachable (block, signal) pair of player i, play
    ``declare(i, true posterior, signal)``."""
    pairs = _reachable(game.structure, tau.signals, branches)
    return make_strategy(
        game,
        tau,
        [
            {(b, s): declare(i, _posterior_at(branches, i, b, s), s) for b, s in pairs[i]}
            for i in range(game.structure.n)
        ],
    )


def truthful_kld_strategy(
    game: LogScoreGame, tau: StochasticSignaling
) -> StrategyProfile:
    """Declare the true posterior at every reachable pair; fails when some
    true posterior is missing from the declaration menu."""

    def declare(i: int, posterior: Distribution, signal: str) -> str:
        label = kld_action_label(posterior)
        if label not in game.actions[i]:
            raise DomainError(
                f"posterior {label} is not in player "
                f"'{game.structure.player_names[i]}'s declaration menu"
            )
        return label

    return _truthful_strategy(game, tau, _branch_profiles(game.structure, tau), declare)


def kld_expected_scores(
    game: LogScoreGame, tau: StochasticSignaling, strategy: StrategyProfile
) -> tuple[LogScore, ...]:
    """Per-player expected log score under the signaling and strategy."""
    if not isinstance(game, LogScoreGame):
        raise DomainError("kld_expected_scores applies to log-score games only")
    n = game.structure.n
    terms: list[list[tuple[Fraction, Fraction]]] = [[] for _ in range(n)]
    for state, profile, weight in _outcomes(game, tau, strategy):
        values = game.payoff(state, profile)
        for i in range(n):
            terms[i].append((weight, values[i]))
    return tuple(LogScore.from_terms(t) for t in terms)


def kld_aggregate(
    game: LogScoreGame, tau: StochasticSignaling, strategy: StrategyProfile
) -> LogScore:
    return sum(kld_expected_scores(game, tau, strategy), LogScore.zero())


# ---------------------------------------------------------------------------
# Two-stage declaration game.


Declaration = tuple[Optional[str], Optional[Distribution], Optional[str]]
BOTTOM: Declaration = (None, None, None)


class TwoStageGame:
    """Declaration game that certifies a signaling's posterior geometry.

    Players first observe their block and the realized signal, then publicly
    declare a signal, a posterior from their menu, and an action inside the
    declared posterior's support.  Declarations that disagree on the signal,
    opt out, or name a jointly infeasible posterior profile cost everyone M,
    a bound computed above every belief-game utility; feasible declarations
    are settled by the matching belief game at the true state.  Truthful
    play earns each player exactly -1 in expectation.

    A player's actions are their declarations: the opt-out first, then
    (signal, posterior, action) in signal, menu and support order.  Its
    strategies are ``make_strategy`` profiles, evaluated by
    ``expected_payoffs`` and ``is_equilibrium`` like any game's.
    """

    def __init__(self, structure: InformationStructure, tau: StochasticSignaling):
        if structure.n < 2:
            raise DomainError("the two-stage game needs at least two players")
        self.structure = structure
        self.tau = tau
        self._branches = _branch_profiles(structure, tau)
        feasible: dict[str, set[tuple[Distribution, ...]]] = {}
        for (_, signal), (_, profile) in self._branches.items():
            feasible.setdefault(signal, set()).add(profile.per_player)
        self.feasible = {s: frozenset(ps) for s, ps in feasible.items()}
        self._belief_games = {
            profile: BeliefGame(structure.space, profile)
            for profiles in self.feasible.values()
            for profile in profiles
        }
        self.menus = _posterior_menus(self._branches, structure.n)
        actions = []
        for menu in self.menus:
            supports = [(d, d.support()) for d in menu]
            options = [BOTTOM]
            for signal in tau.signals:
                for d, support in supports:
                    options.extend((signal, d, a) for a in support)
            actions.append(tuple(options))
        self.actions = tuple(actions)
        self.M = self._payoff_bound()

    def _payoff_bound(self) -> Fraction:
        """2 + n |S| (1 + the largest |utility| of any settled belief game).

        A utility is the player's own term less 2/(n-1) of the others' hits,
        and each term is set by one player's action alone: -2 off the
        declared support, else 1/p on the state and 0 elsewhere (impossible
        for a point mass).  So its extremes are sums of per-term extremes,
        and no action profile is enumerated."""
        n = self.structure.n
        share = Fraction(2, n - 1)
        worst = Fraction(0)
        for profile in self._belief_games:
            for state in self.structure.space:
                # (lowest, highest) own term and hit per player; a player
                # giving the state no mass has no hit to share.
                own, hit = [], []
                for d in profile:
                    p = d.of(state)
                    own.append((-2, -2) if p == 0 else (int(p == 1), 1 / p))
                    hit.append((0, 0) if p == 0 else own[-1])
                low = sum(lo for lo, _ in hit)
                high = sum(hi for _, hi in hit)
                for (lo, hi), (hit_lo, hit_hi) in zip(own, hit):
                    worst = max(
                        worst,
                        abs(hi - share * (low - hit_lo)),
                        abs(lo - share * (high - hit_hi)),
                    )
        return 2 + n * len(self.structure.space) * (1 + worst)

    def truthful_strategy(self) -> StrategyProfile:
        """Declare the observed signal, the true posterior, and its first
        in-support state, at every reachable pair."""
        return _truthful_strategy(
            self,
            self.tau,
            self._branches,
            lambda i, posterior, signal: (signal, posterior, posterior.support()[0]),
        )

    def payoff(
        self, state: str, declarations: Sequence[Declaration]
    ) -> tuple[Fraction, ...]:
        """Settle one realized state against the players' declarations."""
        profile = self._settlement(declarations)
        if profile is None:
            return tuple(-self.M for _ in range(self.structure.n))
        game = self._belief_games[profile]
        actions = tuple(d[2] for d in declarations)
        return tuple(
            game.utility(i, state, actions) for i in range(self.structure.n)
        )

    def _settlement(self, declarations: Sequence) -> Optional[tuple[Distribution, ...]]:
        """The posterior profile a branch settles on: one agreed signal (no
        opt-out) under which the declared posteriors are a feasible profile;
        None otherwise."""
        signals = {d[0] for d in declarations}
        if len(signals) != 1 or None in signals:
            return None
        profile = tuple(d[1] for d in declarations)
        return profile if profile in self.feasible.get(signals.pop(), ()) else None

    def max_aggregate(self, tau: StochasticSignaling) -> Fraction:
        """Exact ceiling on the total expected payoff of any self-enforcing
        play under the evaluation signaling.

        Declarations (signal and posterior per slot) are maximized over
        jointly, but each slot's action is the acting player's own best
        response to their true conditional beliefs -- any profile without
        that property admits a profitable unilateral action change, so no
        equilibrium exceeds this value.  The total is additive over (signal,
        common-knowledge component) cells, and declarations are free per
        cell, so each cell maximizes independently: a branch is worth at most
        its best in-support actions over the settlements its declarations
        still allow, or -M per player when none is left.
        """
        n = self.structure.n
        menus = [
            tuple(dict.fromkeys(option[:2] for option in self.actions[i]))
            for i in range(n)
        ]

        @cache
        def branch_bound(state: str, fixed: tuple[Optional[int], ...]) -> Fraction:
            # Filling the unassigned slots from each feasible (signal, profile)
            # reaches every settlement the assigned declarations still allow;
            # a leaf left unsettled pays -M per player, below any settled
            # value because M exceeds every belief-game utility.  A settled
            # branch's best actions pay -2 per posterior missing the state
            # and -1 per point mass on it (every other player acts elsewhere).
            settled = {
                self._settlement(
                    [(s, p[i]) if f is None else menus[i][f] for i, f in enumerate(fixed)]
                )
                for s, profiles in self.feasible.items()
                for p in profiles
            } - {None}
            costs = (
                sum(2 if d.of(state) == 0 else int(d.of(state) == 1) for d in p)
                for p in settled
            )
            return -min(costs, default=self.M * n)

        return _cellwise_max(
            self.structure,
            tau,
            [len(menu) for menu in menus],
            branch_bound,
            lambda positioned, slots, leaf: self._cell_value_with_best_responses(
                positioned, slots, [menus[i][o] for (i, _), o in zip(slots, leaf)]
            ),
        )

    def _cell_value_with_best_responses(
        self,
        positioned: Sequence[tuple[str, Fraction, tuple[int, ...]]],
        slots: Sequence[Slot],
        combo: Sequence[tuple],
    ) -> Fraction:
        """Value of one (signal, component) cell for fixed declarations,
        with every slot's action set to the owner's selfish best response.

        By the ``BeliefGame`` identity a settled branch of mass w pays -2w
        per declared posterior missing its state, and each slot loses its
        acted-on ratio, which its best response makes the largest (settled
        mass at s)/p over the states s its posterior gives mass p."""
        value = Fraction(0)
        hit: list[dict[str, Fraction]] = [{} for _ in slots]
        for state, w, positions in positioned:
            if self._settlement([combo[k] for k in positions]) is None:
                value -= w * self.M * self.structure.n
                continue
            for k in positions:
                if combo[k][1].of(state) == 0:
                    value -= 2 * w
                else:
                    hit[k][state] = hit[k].get(state, Fraction(0)) + w
        for (_, posterior), mass in zip(combo, hit):
            if mass:
                value -= max(m / posterior.of(s) for s, m in mass.items())
        return value


# ---------------------------------------------------------------------------
# Combined two-stage + log-score game.


@dataclass(frozen=True)
class MixedValue:
    """A payoff with an exact rational part and an exact log-domain part.

    The two parts live on incomparable scales, so only componentwise
    equality and comparison are offered.
    """

    rational: Fraction
    log: LogScore

    def __add__(self, other: "MixedValue") -> "MixedValue":
        if not isinstance(other, MixedValue):
            return NotImplemented
        return MixedValue(self.rational + other.rational, self.log + other.log)

    def half(self) -> "MixedValue":
        return MixedValue(self.rational / 2, self.log.half())

    def as_json(self) -> dict:
        return {
            "rational": format_rational(self.rational),
            "log": self.log.as_json(),
        }


class CombinedGame:
    """Equal-weight combination of the two-stage declaration game and the
    log-score game built from the same signaling; payoffs are kept as exact
    (rational, log) pairs. It is built on an already built two-stage game,
    whose structure, signaling and posterior menus it shares."""

    def __init__(self, stage: TwoStageGame):
        self.structure = stage.structure
        self.stage = stage
        self.kld = LogScoreGame(stage.structure, stage.menus)
        self.tau = stage.tau

    def expected_payoffs(
        self,
        tau: StochasticSignaling,
        stage_strategy: StrategyProfile,
        kld_strategy: StrategyProfile,
    ) -> tuple[MixedValue, ...]:
        stage_values = expected_payoffs(self.stage, tau, stage_strategy)
        kld_values = kld_expected_scores(self.kld, tau, kld_strategy)
        return tuple(
            MixedValue(v / 2, score.half())
            for v, score in zip(stage_values, kld_values)
        )

    def truthful_payoffs(self) -> tuple[MixedValue, ...]:
        return self.expected_payoffs(
            self.tau,
            self.stage.truthful_strategy(),
            truthful_kld_strategy(self.kld, self.tau),
        )


# ---------------------------------------------------------------------------
# Common-objective coordination value.


def best_common_payoff(game: BayesianGame, tau: StochasticSignaling) -> Fraction:
    """Highest expected common payoff over pure measurable strategy profiles.

    Requires all players to share one payoff function; maximization
    decomposes exactly over (signal, common-knowledge component) blocks.
    """
    if isinstance(game, LogScoreGame):
        raise DomainError("log-domain game: evaluate with kld_expected_scores")
    for (state, profile), values in game.payoffs.items():
        if any(v != values[0] for v in values):
            raise DomainError(
                f"payoffs differ across players at state '{state}' under "
                f"profile {profile!r}"
            )

    @cache
    def branch_bound(state: str, fixed: tuple[Optional[int], ...]) -> Fraction:
        options = [
            game.actions[i] if f is None else (game.actions[i][f],)
            for i, f in enumerate(fixed)
        ]
        return max(
            game.payoff(state, profile)[0] for profile in itertools.product(*options)
        )

    return _cellwise_max(
        game.structure,
        tau,
        [len(actions) for actions in game.actions],
        branch_bound,
        lambda positioned, slots, leaf: sum(
            w * branch_bound(state, tuple(leaf[k] for k in at)) for state, w, at in positioned
        ),
    )
