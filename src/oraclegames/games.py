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
import operator
from collections import Counter
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
    _posterior,
    posterior_menu,
)
from .types import (
    Distribution,
    InformationStructure,
    Partition,
    StateSpace,
    _over_lcm,
    _reduced,
    _shown,
    _unchecked,
    check_label,
    check_labels,
    format_rational,
    json_list,
    json_object,
    json_record,
    parse_rational,
)

DEFAULT_EQUILIBRIUM_CAP = 100000
DEFAULT_PERMUTATION_CAP = 10000
DEFAULT_SEARCH_CAP = 20000

ActionProfile = tuple[str, ...]
Pair = tuple[tuple[str, ...], str]
Branch = tuple[str, str]
Slot = tuple[int, tuple[str, ...]]
Game = Union["BayesianGame", "TwoStageGame", "LogScoreGame"]


@dataclass(eq=False)
class BayesianGame:
    """A finite n-player game with state-dependent payoffs.

    ``payoffs`` maps (state, action profile) to one utility per player and
    must be total over states x action profiles.  Each utility is read with
    ``parse_rational``, so it is stored as a ``Fraction``; a float or a bool
    is refused.
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
        self.payoffs = {key: tuple(map(parse_rational, v)) for key, v in self.payoffs.items()}

    def payoff(self, state: str, profile: ActionProfile) -> tuple[Fraction, ...]:
        try:
            return self.payoffs[(state, profile)]
        except KeyError:
            raise DomainError(
                f"no payoff entry for state '{state}' and profile {profile!r}"
            ) from None


def _integer_payoffs(
    game: BayesianGame,
) -> list[tuple[dict[tuple[str, tuple[int, ...]], int], int]]:
    """Per player, (table, scale): the player's utility at each (state,
    profile of action indices) times ``scale``, the lcm of the player's
    utility denominators, so every entry is an integer.  Built on each call,
    as a game's payoffs may change after it is made."""
    indices = itertools.product(*(range(len(acts)) for acts in game.actions))
    profiles = list(zip(indices, itertools.product(*game.actions)))
    rows = {
        (state, at): game.payoff(state, profile)
        for state in game.structure.space
        for at, profile in profiles
    }
    columns = (_over_lcm([v[i] for v in rows.values()]) for i in range(game.structure.n))
    return [(dict(zip(rows, ints)), scale) for scale, *ints in columns]


def game_from_json(
    structure: InformationStructure, data: object, what: str = "game"
) -> BayesianGame:
    """Build a game from its JSON form (each player's actions, and per state
    a payoff row keyed by the action profile joined by ``|``); ``what``
    names it in error messages."""
    if isinstance(data, Mapping) and "log_domain" in data:
        raise InputError(f"{what} has a 'log_domain' field, but a log-score game has no JSON form")
    data = json_record(data, what, "actions", "payoffs")
    names = structure.player_names
    action_map = json_object(data["actions"], f"{what} 'actions'", *names)
    extra = sorted(set(action_map) - set(names))
    if extra:
        raise InputError(f"{what} lists actions for unknown player '{extra[0]}'")
    actions = tuple(
        check_labels("action", action_map[name], f"{what} actions of player '{name}'")
        for name in names
    )
    payoffs: dict[tuple[str, ActionProfile], tuple] = {}  # utilities parsed by BayesianGame
    for state, row in json_object(data["payoffs"], f"{what} 'payoffs'").items():
        if state not in structure.space:
            raise InputError(f"unknown state '{state}' in payoffs")
        for key, values in json_object(row, f"{what} payoffs row '{state}'").items():
            entry = json_list(values, f"{what} payoff entry '{state}': '{key}'")
            payoffs[(state, tuple(key.split("|")))] = tuple(entry)
    return BayesianGame(structure, actions, payoffs)


def reachable_pairs(
    structure: InformationStructure, tau: StochasticSignaling
) -> tuple[tuple[Pair, ...], ...]:
    """Per player, the (block, signal) pairs that occur with positive mass:
    blocks in canonical order, then signal order."""
    return _reachable(structure, tau.signals, _branch_masses(structure, tau)[0])


def _reachable(
    structure: InformationStructure, signals: Sequence[str], masses: Mapping[Branch, int]
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
                    entry[key] = {a: format_rational(p) for a, p in sorted(mix.items()) if p > 0}
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
            raise InputError(f"negative probability {_shown(p)} in strategy")
        total += p
    if total != 1:
        raise InputError(f"strategy mixture sums to {_shown(total)}, expected 1")
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
    branches: Iterable[tuple[Branch, int]],
    total: int,
    strategy: StrategyProfile,
    free: Optional[int] = None,
) -> tuple[int, list[tuple[str, ActionProfile, int]]]:
    """(D, outcomes): each (state, action profile, weight) over the given
    (branch, integer mass over ``total``) pairs and every combination of the
    actions the players' mixtures play there.  Each player's mixtures are
    written as integers over their lcm, so a weight is the branch mass times
    one integer per player, over D, ``total`` times those lcms.  Player
    ``free``, when given, is left to the caller: their action is None and
    their mixture does not weigh the mass."""
    players = game.structure.players
    reached, mixes = [], [{} for _ in players]  # the branches; per player, the mixtures reached
    for (state, signal), m in branches:
        reached.append((state, m, [(partition.block_of(state), signal) for partition in players]))
        for i, pair in enumerate(reached[-1][2]):
            if i != free and pair not in mixes[i]:
                mixes[i][pair] = strategy.mixture(i, *pair)
    for table in mixes:
        scale, *ints = _over_lcm([p for mix in table.values() for p in mix.values()])
        total, at = total * scale, iter(ints)  # zip stops at each mixture's end: ``at`` moves on
        for pair, mix in table.items():
            table[pair] = [(a, k) for a, k in zip(mix, at) if k > 0]
    out = []
    for state, m, pairs in reached:
        options = [((None, 1),) if i == free else mixes[i][pair] for i, pair in enumerate(pairs)]
        for combo in itertools.product(*options):
            actions, ints = zip(*combo)
            out.append((state, actions, m * math.prod(ints)))
    return total, out


def _outcome_masses(
    game: Game, branches: Iterable[tuple[Branch, int]], total: int, strategy: StrategyProfile
) -> tuple[int, dict[tuple[str, ActionProfile], int]]:
    """(D, masses): the ``_outcomes`` weights over D summed per distinct
    (state, action profile), in first-seen order."""
    scale, outcomes = _outcomes(game, branches, total, strategy)
    masses: Counter[tuple[str, ActionProfile]] = Counter()
    for state, profile, w in outcomes:
        masses[(state, profile)] += w
    return scale, masses


def _cells(
    structure: InformationStructure, tau: StochasticSignaling
) -> Iterable[tuple[str, list[tuple[str, int, tuple[int, ...]]], list[Slot], int]]:
    """Each nonempty (signal, common-knowledge component) cell as (signal,
    positioned branches, slots, scale).

    A branch (state, signal) touches only the strategy slots (player, block)
    of its own cell, so a branch-additive objective over pure measurable
    strategies is maximized cell by cell.  Slots are numbered player by
    player in first-seen order; a positioned branch is (state, mass times
    ``scale``, slot index of each player): ``(scale, ...)`` is the
    ``_reduced`` form of ``(D, m, ...)`` over the cell's table masses m/D.
    """
    meet = ckc_decompose(structure.players)
    masses, total = _branch_masses(structure, tau)
    cells: dict[tuple[str, tuple[str, ...]], list[tuple[str, int]]] = {}
    for (state, signal), m in masses.items():
        cells.setdefault((signal, meet.block_of(state)), []).append((state, m))
    for (signal, _), branches in cells.items():
        slots: list[Slot] = []
        index: dict[Slot, int] = {}
        for i, partition in enumerate(structure.players):
            for state, _ in branches:
                key = (i, partition.block_of(state))
                if key not in index:
                    index[key] = len(slots)
                    slots.append(key)
        scale, *weights = _reduced((total, *(m for _, m in branches)))
        positioned = [
            (
                state,
                w,
                tuple(
                    index[(i, partition.block_of(state))]
                    for i, partition in enumerate(structure.players)
                ),
            )
            for (state, _), w in zip(branches, weights)
        ]
        yield signal, positioned, slots, scale


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
    branch_bound: Callable[[str, tuple[Optional[int], ...]], Union[int, Fraction]],
    value: Callable[[Sequence, Sequence[Slot], tuple[int, ...]], Union[int, Fraction]],
    cap: int,
    first: Optional[Callable[[str, Sequence[Slot]], Optional[tuple[int, ...]]]] = None,
) -> Fraction:
    """Sum over the cells of the largest ``value(positioned, slots, leaf)``
    over the cell's assignments of ``sizes[player]`` options per slot.

    ``value`` reads the cell's integer masses, so it is in units of one over
    the cell's scale, and the cell's best is divided by that scale once.
    ``first(signal, slots)``, when given, names a starting leaf of the cell
    (or None); it is valued before the walk, and its value is the first
    best.  A subtree is cut once the mass-weighted ``branch_bound(state,
    option index per player, None while unassigned)`` of the cell's branches
    cannot beat the best leaf so far, so a cell whose first leaf reaches its
    root bound is not walked at all.  Setting slot d moves only the bounds
    of the branches that read it, so ``bound[d]``, the cell's bound with the
    slots below d set, is kept per depth.  The walk counts the slots it
    admits over all cells and raises ``ResourceLimitError`` as soon as the
    count passes ``cap``."""
    total = Fraction(0)
    admitted = 0
    for signal, positioned, slots, scale in _cells(structure, tau):
        leaf = None if first is None else first(signal, slots)
        best = None if leaf is None else value(positioned, slots, leaf)
        unset = (None,) * structure.n
        bound = [sum(w * branch_bound(s, unset) for s, w, _ in positioned)] * (len(slots) + 1)
        if best is not None and best >= bound[0]:
            total += Fraction(best, scale)  # the first leaf meets the bound: nothing to walk
            continue
        readers: list[list] = [[] for _ in slots]
        for branch in positioned:
            for k in branch[2]:
                readers[k].append(branch)

        def admit(d: int, assigned: list[int]) -> bool:
            nonlocal admitted
            upper = bound[d]
            for state, w, at in readers[d]:
                after = tuple(assigned[k] if k <= d else None for k in at)
                before = tuple(assigned[k] if k < d else None for k in at)
                upper += w * (branch_bound(state, after) - branch_bound(state, before))
            bound[d + 1] = upper
            if best is not None and upper <= best:
                return False
            admitted += 1
            if admitted > cap:
                raise ResourceLimitError(
                    f"{admitted} admitted search slots exceed the cap of {cap}", cap=cap
                )
            return True

        for leaf in _slot_search([sizes[i] for i, _ in slots], admit):
            v = value(positioned, slots, leaf)
            if best is None or v > best:
                best = v
        total += Fraction(best, scale)
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
    masses, total = _branch_masses(structure, tau)
    branches = masses.items()
    if event is not None:  # the event's branches weighed over their own total
        branches = [(branch, m) for branch, m in branches if branch[0] in event]
        total = sum(m for _, m in branches)
    scale, outcomes = _outcome_masses(game, branches, total, strategy)
    values = [game.payoff(state, profile) for state, profile in outcomes]
    out = []
    for i in range(structure.n):  # each player's utilities as integers over their lcm
        d, *utilities = _over_lcm([v[i] for v in values])
        out.append(Fraction(sum(map(operator.mul, outcomes.values(), utilities)), scale * d))
    return tuple(out)


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
            raise InputError(f"outcome masses sum to {_shown(total)}, expected 1")

    def of(self, state: str, profile: ActionProfile) -> Fraction:
        return self.mass.get((state, tuple(profile)), Fraction(0))

    def as_json(self) -> list[dict]:
        return [
            {"state": state, "actions": list(profile), "mass": format_rational(value)}
            for (state, profile), value in sorted(self.mass.items())
            if value > 0
        ]


def ned_distribution(
    game: BayesianGame, tau: StochasticSignaling, strategy: StrategyProfile
) -> OutcomeDistribution:
    """Distribution over (state, action profile) induced by prior, signaling,
    and strategy."""
    masses, total = _branch_masses(game.structure, tau)
    scale, outcomes = _outcome_masses(game, masses.items(), total, strategy)
    space, mass = game.structure.space, {k: Fraction(w, scale) for k, w in outcomes.items()}
    if sum(outcomes.values()) != scale:  # mixtures not summing to 1: the constructor refuses them
        return OutcomeDistribution(space, mass)
    return _unchecked(OutcomeDistribution, space=space, mass=mass)


@dataclass(frozen=True)
class EquilibriumResult:
    """Outcome of an equilibrium check; the witness names the first
    profitable deviation in scan order."""

    holds: bool
    witness: Optional[tuple] = None


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
    masses, total = _branch_masses(game.structure, tau)
    pairs = _reachable(game.structure, tau.signals, masses)
    for i, name in enumerate(game.structure.player_names):
        for block, signal in pairs[i]:
            # The others' outcomes at the pair, split around player i's
            # action and shared by every action valued.
            at = [((s, signal), masses[(s, signal)]) for s in block if (s, signal) in masses]
            _, outcomes = _outcomes(game, at, total, strategy, i)  # values in units of one weight
            outcomes = [(s, p[:i], p[i + 1 :], w) for s, p, w in outcomes]

            def value(action: object) -> Fraction:
                return sum(w * game.payoff(s, (*h, action, *t))[i] for s, h, t, w in outcomes)

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
    as every slot its deviation values read is assigned; the values are sums
    over the slot's branches of integer mass times integer payoff.  Before
    any payoff is read, a cell of more than ``cap`` pure profiles is
    refused; then a cell without equilibria gives ``[]``; else more than
    ``cap`` equilibria are refused."""
    if isinstance(game, LogScoreGame):
        raise DomainError("log-domain game: evaluate with kld_expected_scores")
    structure = game.structure
    cells = list(_cells(structure, tau))
    largest = max(math.prod(len(game.actions[i]) for i, _ in slots) for _, _, slots, _ in cells)
    if largest > cap:
        raise ResourceLimitError(
            f"{largest} pure strategy profiles in one cell exceed the cap of {cap}", cap=cap
        )
    payoffs = _integer_payoffs(game)
    pairs = reachable_pairs(structure, tau)
    slots = [(i, pair) for i in range(structure.n) for pair in pairs[i]]
    position = {slot: g for g, slot in enumerate(slots)}
    parts = []  # per cell, its equilibria as lists of (global slot, option index)
    for signal, positioned, cell_slots, _ in cells:
        local = [(i, (block, signal)) for i, block in cell_slots]
        own: list[list] = [[] for _ in local]  # per slot, the branches that read it
        for branch in positioned:
            for k in branch[2]:
                own[k].append(branch)
        reads = [{k for _, _, at in branches for k in at} for branches in own]  # their slots
        due: list[list[int]] = [[] for _ in local]  # the slots checked at each depth
        for k, read in enumerate(reads):
            due[max(read)].append(k)
        verdicts: dict[tuple, bool] = {}

        def admit(d: int, assigned: list[int]) -> bool:
            for k in due[d]:
                key = (k, tuple(assigned[r] for r in reads[k]))
                if key not in verdicts:
                    j = local[k][0]
                    table = payoffs[j][0]
                    values = [0] * len(game.actions[j])
                    for state, w, at in own[k]:
                        profile = [assigned[r] for r in at]
                        for a in range(len(values)):
                            profile[j] = a
                            values[a] += w * table[(state, tuple(profile))]
                    verdicts[key] = max(values) == values[assigned[k]]
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
    size = sum(math.factorial(len(block)) for block in base.blocks)
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
        others = sum(
            self.r_value(j, actions[j], state)
            for j in range(self.n)
            if j != player and self.declared[j].of(state) > 0
        )
        return self.r_value(player, actions[player], state) - Fraction(2, self.n - 1) * others


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
    actions = game.action_set(player)
    if not actions:
        raise DomainError("declared posterior has empty support")
    return max(actions, key=lambda a: belief.of(a) / game.declared[player].of(a))


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
            weight, value = parse_rational(weight), parse_rational(value)
            if weight < 0:
                raise InputError("log score weights must be nonnegative")
            if value < 0:
                raise InputError("log score values must be nonnegative")
            if weight == 0:
                continue
            if value == 0:
                return cls.minus_infinity()
            kept.append((weight, value))
        if not kept:
            return cls.zero()
        denom, *exponents = _over_lcm([weight for weight, _ in kept])
        product = Fraction(1)
        for exponent, (_, value) in zip(exponents, kept):
            product *= value**exponent
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
        # a**e against b**d, both sides taken to the increasing power 1/gcd(d, e)
        d, e = _reduced((self.denom, other.denom))
        left = self.product**e
        right = other.product**d
        return (left > right) - (left < right)

    def _holds(self, other: object, test: Callable[[int, int], bool]) -> bool:
        if not isinstance(other, LogScore):
            return NotImplemented
        return test(self._compare(other), 0)

    def __eq__(self, other: object) -> bool:
        return self._holds(other, operator.eq)

    def __lt__(self, other: "LogScore") -> bool:
        return self._holds(other, operator.lt)

    def __le__(self, other: "LogScore") -> bool:
        return self._holds(other, operator.le)

    def __gt__(self, other: "LogScore") -> bool:
        return self._holds(other, operator.gt)

    def __ge__(self, other: "LogScore") -> bool:
        return self._holds(other, operator.ge)

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
    return max(candidates, key=lambda candidate: log_score(q, candidate))


# ---------------------------------------------------------------------------
# Log-score declaration game.


def kld_action_label(dist: Distribution) -> str:
    return "(" + ",".join(format_rational(v) for v in dist.vector) + ")"


def _posterior_menus(
    profiles: Mapping[Branch, tuple], n: int
) -> tuple[tuple[Distribution, ...], ...]:
    """Per player, the distinct posteriors of the branches, sorted by
    vector: the player's declaration menu."""
    return tuple(posterior_menu(p[i] for p in profiles.values()) for i in range(n))


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
    profiles = _branch_profiles(structure, _branch_masses(structure, tau)[0])
    return LogScoreGame(structure, _posterior_menus(profiles, structure.n))


def truthful_kld_strategy(
    game: LogScoreGame, tau: StochasticSignaling
) -> StrategyProfile:
    """Declare the true posterior at every reachable pair; fails when some
    true posterior is missing from the declaration menu."""
    structure = game.structure
    masses, _ = _branch_masses(structure, tau)
    pairs = _reachable(structure, tau.signals, masses)
    tables: list[dict[Pair, str]] = [{} for _ in range(structure.n)]
    for i, name in enumerate(structure.player_names):
        for block, signal in pairs[i]:
            label = kld_action_label(_posterior(structure, masses, block, signal))
            if label not in game.actions[i]:
                raise DomainError(f"posterior {label} is not in player '{name}'s declaration menu")
            tables[i][(block, signal)] = label
    return make_strategy(game, tau, tables)


def kld_expected_scores(
    game: LogScoreGame, tau: StochasticSignaling, strategy: StrategyProfile
) -> tuple[LogScore, ...]:
    """Per-player expected log score under the signaling and strategy."""
    if not isinstance(game, LogScoreGame):
        raise DomainError("kld_expected_scores applies to log-score games only")
    masses, total = _branch_masses(game.structure, tau)
    scale, outcomes = _outcomes(game, masses.items(), total, strategy)
    weighted = [(Fraction(w, scale), game.payoff(state, profile)) for state, profile, w in outcomes]
    return tuple(
        LogScore.from_terms((w, values[i]) for w, values in weighted)
        for i in range(game.structure.n)
    )


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
        branches = _branch_profiles(structure, _branch_masses(structure, tau)[0])
        feasible: dict[str, set[tuple[Distribution, ...]]] = {}
        for (_, signal), profile in branches.items():
            feasible.setdefault(signal, set()).add(profile)
        self.feasible = {s: frozenset(ps) for s, ps in feasible.items()}
        self._belief_games = {
            profile: BeliefGame(structure.space, profile)
            for profiles in self.feasible.values()
            for profile in profiles
        }
        self.menus = _posterior_menus(branches, structure.n)
        # Player i's true (signal, posterior) at each (i, block, signal) the
        # signaling reaches.
        self._truthful = {
            (i, partition.block_of(state), signal): (signal, profile[i])
            for (state, signal), profile in branches.items()
            for i, partition in enumerate(structure.players)
        }
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
        and no action profile is enumerated.  A posterior's key (d, n_1, ...)
        gives 1/p = d/n_s, so each term is an integer over L, the lcm of the
        nonzero n_s, and each utility an integer over (n-1) L."""
        n = self.structure.n
        keys = [[d._key for d in profile] for profile in self._belief_games]
        unit = math.lcm(*(m for profile in keys for key in profile for m in key[1:] if m))
        worst = 0
        for profile in keys:
            for s in range(1, len(self.structure.space) + 1):
                # (lowest, highest) own term and hit per player, times L; a
                # player giving the state no mass has no hit to share.
                own, hit = [], []
                for key in profile:
                    p, d = key[s], key[0]
                    own.append((-2 * unit,) * 2 if p == 0 else (unit * (p == d), unit // p * d))
                    hit.append((0, 0) if p == 0 else own[-1])
                low, high = map(sum, zip(*hit))
                for (lo, hi), (hit_lo, hit_hi) in zip(own, hit):
                    worst = max(
                        worst,
                        abs((n - 1) * hi - 2 * (low - hit_lo)),
                        abs((n - 1) * lo - 2 * (high - hit_hi)),
                    )
        unit *= n - 1  # the utilities' unit
        return Fraction(2 * unit + n * len(self.structure.space) * (unit + worst), unit)

    def truthful_strategy(self) -> StrategyProfile:
        """Declare the observed signal, the true posterior, and its first
        in-support state, at every reachable pair."""
        tables: list[dict[Pair, Declaration]] = [{} for _ in range(self.structure.n)]
        for (i, block, signal), (_, posterior) in self._truthful.items():
            tables[i][(block, signal)] = (signal, posterior, posterior.support()[0])
        return make_strategy(self, self.tau, tables)

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

    def max_aggregate(self, tau: StochasticSignaling, cap: int = DEFAULT_SEARCH_CAP) -> Fraction:
        """Exact ceiling on the total expected payoff of any self-enforcing
        play under the evaluation signaling.

        Declarations (signal and posterior per slot) are maximized over
        jointly, but each slot's action is the acting player's own best
        response to their true conditional beliefs -- any profile without
        that property admits a profitable unilateral action change, so no
        equilibrium exceeds this value.  The total is additive over (signal,
        common-knowledge component) cells, and declarations are free per
        cell, so each cell maximizes independently.

        A branch of mass w is worth at most -M per player when no settlement
        is left, else -2w per declared posterior missing its state and -w
        per posterior hitting it: a slot's best-response loss, max over s of
        (settled mass h_s at s)/p(s), is at least the sum of its h_s, as the
        p(s) of the states it hits sum to at most 1.  Each cell first values
        the truthful leaf, where every slot declares the cell's signal and
        its player's posterior under the game's own signaling (when the game
        reaches that pair).  Under that signaling the leaf pays -n per unit
        of mass, which is the cell's bound, so no other leaf is valued;
        under any other it is only a first incumbent.  More than ``cap``
        admitted search slots are refused with ``ResourceLimitError``.
        """
        n = self.structure.n
        menus = [
            tuple(dict.fromkeys(option[:2] for option in self.actions[i]))
            for i in range(n)
        ]
        index = [{option: k for k, option in enumerate(menu)} for menu in menus]
        # The walk counts in units of one over the denominator of the
        # penalty M n, so that every bound is an integer.
        unit, penalty = _over_lcm([self.M * n])
        # Each feasible (signal, profile), with the option each player
        # declares it by.
        feasible = [
            (tuple(index[i][(s, d)] for i, d in enumerate(p)), p)
            for s, profiles in self.feasible.items()
            for p in profiles
        ]

        @cache
        def branch_bound(state: str, fixed: tuple[Optional[int], ...]) -> int:
            # The assigned declarations still allow a settlement exactly
            # when they declare some feasible (signal, profile), which the
            # unassigned slots then fill in; a leaf left unsettled pays -M
            # per player, below any settled value because M exceeds every
            # belief-game utility.
            costs = (
                unit * sum(2 if d.of(state) == 0 else 1 for d in p)
                for options, p in feasible
                if all(f is None or f == k for f, k in zip(fixed, options))
            )
            return -min(costs, default=penalty)

        def truthful_leaf(signal: str, slots: Sequence[Slot]) -> Optional[tuple[int, ...]]:
            leaf = tuple(
                index[i].get(self._truthful.get((i, block, signal))) for i, block in slots
            )
            return None if None in leaf else leaf

        return _cellwise_max(
            self.structure,
            tau,
            [len(menu) for menu in menus],
            branch_bound,
            lambda positioned, slots, leaf: unit * self._cell_value_with_best_responses(
                positioned, slots, [menus[i][o] for (i, _), o in zip(slots, leaf)]
            ),
            cap,
            truthful_leaf,
        ) / unit

    def _cell_value_with_best_responses(
        self,
        positioned: Sequence[tuple[str, int, tuple[int, ...]]],
        slots: Sequence[Slot],
        combo: Sequence[tuple],
    ) -> Union[int, Fraction]:
        """Value of one (signal, component) cell for fixed declarations,
        with every slot's action set to the owner's selfish best response,
        in the units of the cell's integer masses.

        By the ``BeliefGame`` identity a settled branch of mass w pays -2w
        per declared posterior missing its state, and each slot loses its
        acted-on ratio, which its best response makes the largest (settled
        mass at s)/p over the states s its posterior gives mass p.  With the
        posterior's key (d, n_1, ...) that ratio is m d/n_s, so a slot's
        largest one is found in integers over the lcm of its n_s."""
        value = 0
        hit: list[dict[int, int]] = [{} for _ in slots]  # per slot, mass per key position
        for state, w, positions in positioned:
            if self._settlement([combo[k] for k in positions]) is None:
                value -= w * self.M * self.structure.n
                continue
            s = self.structure.space.index(state) + 1
            for k in positions:
                if combo[k][1]._key[s] == 0:
                    value -= 2 * w
                else:
                    hit[k][s] = hit[k].get(s, 0) + w
        for (_, posterior), mass in zip(combo, hit):
            if mass:
                key = posterior._key
                unit = math.lcm(*(key[s] for s in mass))
                value -= Fraction(key[0] * max(m * (unit // key[s]) for s, m in mass.items()), unit)
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
        return {"rational": format_rational(self.rational), "log": self.log.as_json()}


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


def best_common_payoff(
    game: BayesianGame, tau: StochasticSignaling, cap: int = DEFAULT_SEARCH_CAP
) -> Fraction:
    """Highest expected common payoff over pure measurable strategy profiles.

    Requires all players to share one payoff function; maximization
    decomposes exactly over (signal, common-knowledge component) blocks.
    More than ``cap`` admitted search slots are refused with
    ``ResourceLimitError``.
    """
    if isinstance(game, LogScoreGame):
        raise DomainError("log-domain game: evaluate with kld_expected_scores")
    for (state, profile), values in game.payoffs.items():
        if any(v != values[0] for v in values):
            raise DomainError(
                f"payoffs differ across players at state '{state}' under "
                f"profile {profile!r}"
            )

    table, scale = _integer_payoffs(game)[0]
    every = [range(len(actions)) for actions in game.actions]

    @cache
    def branch_bound(state: str, fixed: tuple[Optional[int], ...]) -> int:
        options = [every[i] if f is None else (f,) for i, f in enumerate(fixed)]
        return max(table[(state, profile)] for profile in itertools.product(*options))

    return _cellwise_max(
        game.structure,
        tau,
        [len(actions) for actions in game.actions],
        branch_bound,
        lambda positioned, slots, leaf: sum(
            w * branch_bound(state, tuple(leaf[k] for k in at)) for state, w, at in positioned
        ),
        cap,
    ) / scale
