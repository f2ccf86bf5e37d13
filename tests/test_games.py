"""Game constructions and evaluators: Bayesian games, strategies, equilibria,
decision problems as one-player games, belief games, exact log scores,
declaration games, and the common-objective coordination value."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

import oracles
from oraclegames import (
    BayesianGame,
    BeliefGame,
    CombinedGame,
    DomainError,
    Distribution,
    InformationStructure,
    InputError,
    LogScore,
    LogScoreGame,
    MixedValue,
    OutcomeDistribution,
    Partition,
    Prior,
    ResourceLimitError,
    StateSpace,
    StochasticSignaling,
    StrategyProfile,
    TwoStageGame,
    belief_aggregate,
    belief_best_response,
    belief_expected_payoffs,
    belief_is_equilibrium,
    best_common_payoff,
    build_kld_game,
    build_permutation_game,
    enumerate_pure_equilibria,
    expected_payoffs,
    game_from_json,
    information_partition,
    is_equilibrium,
    kld_expected_scores,
    log_score,
    log_score_argmax,
    make_strategy,
    merge_garbled,
    ned_distribution,
    posterior_atlas,
    reachable_pairs,
    signaling_from_json,
    strategy_from_json,
    structure_from_json,
    truthful_choices,
    truthful_kld_strategy,
)
from oraclegames.games import BOTTOM, kld_action_label
from oraclegames.harness import Fixture, load_fixture

SPACE2 = StateSpace(("x", "y"))
SPACE = StateSpace(("w1", "w2", "w3", "w4"))
PRIOR = Prior.uniform(SPACE)
P1 = Partition(SPACE, (("w1", "w2"), ("w3", "w4")))
P2 = Partition(SPACE, (("w1",), ("w2", "w3"), ("w4",)))
STRUCTURE = InformationStructure(SPACE, PRIOR, ("A", "B"), (P1, P2))


def _matching_pennies():
    space = SPACE2
    structure = InformationStructure(
        space,
        Prior.uniform(space),
        ("A", "B"),
        (Partition.trivial(space), Partition.trivial(space)),
    )
    actions = (("h", "t"), ("h", "t"))
    payoffs = {}
    for state in space:
        for a in "ht":
            for b in "ht":
                win = 1 if a == b else -1
                payoffs[(state, (a, b))] = (Fraction(win), Fraction(-win))
    return structure, BayesianGame(structure, actions, payoffs)


def _uninformative(structure):
    return StochasticSignaling(
        Partition.trivial(structure.space),
        ("u",),
        tuple((Fraction(1),) for _ in structure.space),
    )


def test_game_requires_total_payoffs():
    structure, game = _matching_pennies()
    payoffs = dict(game.payoffs)
    del payoffs[("x", ("h", "h"))]
    with pytest.raises(InputError):
        BayesianGame(structure, game.actions, payoffs)
    bad_width = {k: v[:1] for k, v in game.payoffs.items()}
    with pytest.raises(InputError):
        BayesianGame(structure, game.actions, bad_width)


def test_game_reads_every_utility_as_a_rational():
    structure, game = _matching_pennies()
    for bad in (0.5, True):
        payoffs = dict(game.payoffs)
        payoffs[("x", ("h", "h"))] = (bad, Fraction(1))
        with pytest.raises(InputError, match="not a rational"):
            BayesianGame(structure, game.actions, payoffs)
    ints = {key: tuple(int(v) for v in values) for key, values in game.payoffs.items()}
    parsed = BayesianGame(structure, game.actions, ints)
    assert all(type(v) is Fraction for values in parsed.payoffs.values() for v in values)
    assert parsed.payoffs == game.payoffs


def test_game_json_round_trip():
    structure, game = _matching_pennies()
    win, lose = ["1", "-1"], ["-1", "1"]
    row = {"h|h": win, "h|t": lose, "t|h": lose, "t|t": win}
    parsed = game_from_json(
        structure,
        {"actions": {"A": ["h", "t"], "B": ["h", "t"]}, "payoffs": {"x": row, "y": row}},
    )
    assert parsed.payoffs == game.payoffs
    assert parsed.actions == game.actions


def test_reachable_pairs_skip_zero_mass_signals():
    tau = StochasticSignaling.from_rows(
        Partition(SPACE, (("w1", "w2"), ("w3", "w4"))),
        ("s1", "s2"),
        {
            "w1": {"s1": 1},
            "w2": {"s1": 1},
            "w3": {"s2": 1},
            "w4": {"s2": 1},
        },
    )
    pairs = reachable_pairs(STRUCTURE, tau)
    assert pairs[0] == ((("w1", "w2"), "s1"), (("w3", "w4"), "s2"))
    assert (("w2", "w3"), "s1") in pairs[1] and (("w2", "w3"), "s2") in pairs[1]
    assert (("w1",), "s2") not in pairs[1]


def test_make_strategy_demands_exact_domain():
    structure, game = _matching_pennies()
    tau = _uninformative(structure)
    block = tuple(structure.space.states)
    good = make_strategy(game, tau, [{(block, "u"): "h"}, {(block, "u"): "t"}])
    assert good.mixture(0, block, "u") == {"h": Fraction(1)}
    with pytest.raises(DomainError):
        make_strategy(game, tau, [{}, {(block, "u"): "t"}])
    with pytest.raises(DomainError):
        make_strategy(
            game,
            tau,
            [
                {(block, "u"): "h", (block, "bogus"): "h"},
                {(block, "u"): "t"},
            ],
        )
    with pytest.raises(InputError):
        make_strategy(game, tau, [{(block, "u"): {"h": "1/2"}}, {(block, "u"): "t"}])


def test_strategy_json_round_trip_and_mixtures():
    structure, game = _matching_pennies()
    tau = _uninformative(structure)
    data = {"A": {"x,y|u": {"h": "1/3", "t": "2/3"}}, "B": {"x,y|u": "h"}}
    strategy = strategy_from_json(game, tau, data)
    block = tuple(structure.space.states)
    assert strategy.mixture(0, block, "u") == {
        "h": Fraction(1, 3),
        "t": Fraction(2, 3),
    }
    assert strategy.as_json(structure.player_names) == data
    with pytest.raises(InputError):
        strategy_from_json(game, tau, {"A": {"x|u": "h"}, "B": {"x,y|u": "h"}})
    with pytest.raises(InputError):
        strategy_from_json(game, tau, {"A": {"x,yu": "h"}, "B": {"x,y|u": "h"}})


def test_expected_payoffs_by_hand():
    structure, game = _matching_pennies()
    tau = _uninformative(structure)
    mixed = make_strategy(
        game,
        tau,
        [
            {(("x", "y"), "u"): {"h": Fraction(1, 2), "t": Fraction(1, 2)}},
            {(("x", "y"), "u"): "h"},
        ],
    )
    values = expected_payoffs(game, tau, mixed)
    assert values == (Fraction(0), Fraction(0))
    conditional = expected_payoffs(game, tau, mixed, given_event=("x",))
    assert conditional == (Fraction(0), Fraction(0))
    with pytest.raises(DomainError):
        expected_payoffs(game, tau, mixed, given_event=())


def test_expected_payoffs_treats_the_event_as_a_set():
    game, tau, strategy = Fixture(load_fixture("rock-concert")).strategy("guided")
    once = expected_payoffs(game, tau, strategy, given_event=["n2", "s2"])
    assert once == (Fraction(18), Fraction(9, 2))
    for event in (["n2", "n2", "s2"], ["s2", "n2"], ("s2", "n2", "s2")):
        assert expected_payoffs(game, tau, strategy, given_event=event) == once
    with pytest.raises(InputError, match="unknown state 'nowhere' in event"):
        expected_payoffs(game, tau, strategy, given_event=["n2", "nowhere"])


def test_ned_distribution_masses():
    structure, game = _matching_pennies()
    tau = _uninformative(structure)
    mixed = make_strategy(
        game,
        tau,
        [
            {(("x", "y"), "u"): {"h": Fraction(1, 2), "t": Fraction(1, 2)}},
            {(("x", "y"), "u"): "h"},
        ],
    )
    dist = ned_distribution(game, tau, mixed)
    assert sum(dist.mass.values()) == 1
    assert dist.of("x", ("h", "h")) == Fraction(1, 4)
    assert dist.of("x", ("t", "t")) == 0


def test_outcome_distribution_as_json_and_refusals():
    # Rows in (state, profile) order, zero masses left out.
    mass = {("y", ("h", "t")): Fraction(1, 3), ("x", ("t", "h")): Fraction(2, 3)}
    dist = OutcomeDistribution(SPACE2, {("x", ("h", "h")): Fraction(0), **mass})
    assert dist.as_json() == [
        {"state": "x", "actions": ["t", "h"], "mass": "2/3"},
        {"state": "y", "actions": ["h", "t"], "mass": "1/3"},
    ]
    for bad, message in (
        ({("z", ("h", "h")): Fraction(1)}, "unknown state 'z' in outcome distribution"),
        ({**mass, ("x", ("h", "h")): Fraction(-1, 3)}, "outcome masses must be nonnegative"),
        ({("x", ("h", "h")): Fraction(1, 2)}, "outcome masses sum to 1/2, expected 1"),
    ):
        with pytest.raises(InputError, match=message):
            OutcomeDistribution(SPACE2, bad)


def _over_reversed_space(data, name):
    """The fixture's named signaling, built over its states in reverse order."""
    states = data["structure"]["states"][::-1]
    structure = structure_from_json(dict(data["structure"], states=states))
    return signaling_from_json(structure, data["signalings"][name])


def test_evaluators_reject_a_signaling_over_another_state_space():
    data = load_fixture("rock-concert")
    game, _, strategy = Fixture(data).strategy("guided")
    other = _over_reversed_space(data, "guided")
    for evaluate in (expected_payoffs, ned_distribution):
        with pytest.raises(DomainError, match="different state spaces"):
            evaluate(game, other, strategy)
    data = load_fixture("witness-kld-combined")
    fix = Fixture(data)
    tau = fix.signaling("tau2")
    game = build_kld_game(fix.structure, tau)
    strategy = truthful_kld_strategy(game, tau)
    with pytest.raises(DomainError, match="different state spaces"):
        kld_expected_scores(game, _over_reversed_space(data, "tau2"), strategy)


def test_expected_payoffs_is_the_outcome_distribution_mean():
    rng = random.Random(32)
    labels = ("a0", "a1")
    for structure, tau in _small_two_stage_cases(rng, 10):
        payoffs = {
            (state, profile): tuple(Fraction(rng.randint(-4, 6)) for _ in range(2))
            for state in structure.space
            for profile in itertools.product(labels, repeat=2)
        }
        game = BayesianGame(structure, (labels, labels), payoffs)
        tables = []
        for pairs in reachable_pairs(structure, tau):
            table = {}
            for pair in pairs:
                p = Fraction(rng.randint(0, 4), 4)
                table[pair] = {"a0": p, "a1": 1 - p}
            tables.append(table)
        strategy = make_strategy(game, tau, tables)
        outcomes = ned_distribution(game, tau, strategy).mass
        mean = tuple(
            sum((m * payoffs[key][i] for key, m in outcomes.items()), Fraction(0))
            for i in range(2)
        )
        assert expected_payoffs(game, tau, strategy) == mean


def test_is_equilibrium_finds_the_profitable_deviation():
    structure, game = _matching_pennies()
    tau = _uninformative(structure)
    block = tuple(structure.space.states)
    pure = make_strategy(game, tau, [{(block, "u"): "h"}, {(block, "u"): "h"}])
    result = is_equilibrium(game, tau, pure)
    assert not result.holds
    player, dev_block, signal, action = result.witness
    assert player == "B" and dev_block == block and signal == "u" and action == "t"
    mixed = make_strategy(
        game,
        tau,
        [
            {(block, "u"): {"h": Fraction(1, 2), "t": Fraction(1, 2)}},
            {(block, "u"): {"h": Fraction(1, 2), "t": Fraction(1, 2)}},
        ],
    )
    assert is_equilibrium(game, tau, mixed).holds


def test_enumerate_pure_equilibria_and_cap():
    structure = InformationStructure(
        SPACE2,
        Prior.uniform(SPACE2),
        ("A", "B"),
        (Partition.singletons(SPACE2), Partition.trivial(SPACE2)),
    )
    actions = (("l", "r"), ("l", "r"))
    payoffs = {}
    for state in SPACE2:
        for a in ("l", "r"):
            for b in ("l", "r"):
                match = Fraction(1) if a == b else Fraction(0)
                payoffs[(state, (a, b))] = (match, match)
    game = BayesianGame(structure, actions, payoffs)
    tau = _uninformative(structure)
    found = enumerate_pure_equilibria(game, tau)
    # Pure coordination: both players play the same constant action; the
    # informed player must not split across her two singleton blocks.
    assert len(found) == 2
    with pytest.raises(ResourceLimitError):
        enumerate_pure_equilibria(game, tau, cap=1)


# ---------------------------------------------------------------------------
# Decision problems: one-player games valued under the revealing signaling


def _value(problem, info):
    """The problem's value when the player learns the block of ``info``."""
    reveal = StochasticSignaling.from_assignment(
        info, [f"r{i}" for i in range(len(info.blocks))]
    )
    return best_common_payoff(problem, reveal)


def test_permutation_game_is_a_one_player_game():
    problem = build_permutation_game(STRUCTURE, 1, Partition.trivial(SPACE))
    assert problem.structure.player_names == ("B",)
    assert problem.structure.players == (Partition.trivial(SPACE),)
    assert problem.structure.prior == PRIOR
    assert len(problem.actions) == 1
    assert all(len(key[1]) == 1 and len(v) == 1 for key, v in problem.payoffs.items())


def test_permutation_game_value_at_own_information():
    problem = build_permutation_game(STRUCTURE, 0, Partition.trivial(SPACE))
    base = information_partition(STRUCTURE, 0, Partition.trivial(SPACE))
    # Ranking a block perfectly is worth mass * (|block| + 1) / 2.
    expected = sum(
        (PRIOR.event_mass(b) * Fraction(len(b) + 1, 2) for b in base.blocks),
        Fraction(0),
    )
    assert _value(problem, base) == expected


def test_permutation_game_value_monotone_in_information():
    rng = random.Random(42)
    parts = [
        Partition(SPACE, blocks) for blocks in oracles.all_partitions(SPACE.states)
    ]
    problem = build_permutation_game(STRUCTURE, 1, Partition.trivial(SPACE))
    for _ in range(20):
        fine, coarse = rng.choice(parts), rng.choice(parts)
        if not oracles.naive_refines(fine.blocks, coarse.blocks):
            continue
        assert _value(problem, fine) >= _value(problem, coarse)


def test_permutation_game_penalizes_block_straddle():
    problem = build_permutation_game(STRUCTURE, 0, Partition.trivial(SPACE))
    base = information_partition(STRUCTURE, 0, Partition.trivial(SPACE))
    straddle = Partition(SPACE, (("w1", "w3"), ("w2", "w4")))
    assert _value(problem, straddle) < 0 < _value(problem, base)


def test_permutation_game_value_matches_the_per_block_maximum():
    """On random structures, sources and information partitions (straddling
    ones included), the one-player game's best common payoff is the sum of
    per-block maxima of the single-agent problem."""
    rng = random.Random(51)
    straddling = 0
    for _ in range(40):
        states = tuple(f"w{j}" for j in range(rng.choice((3, 4, 5))))
        space = StateSpace(states)
        nums = [rng.randint(1, 5) for _ in states]
        prior = Prior(space, tuple(Fraction(k, sum(nums)) for k in nums))
        players = tuple(
            Partition(space, tuple(_random_blocks(rng, states, 3))) for _ in range(2)
        )
        structure = InformationStructure(space, prior, ("A", "B"), players)
        player = rng.randrange(2)
        source = Partition(space, tuple(_random_blocks(rng, states, 3)))
        problem = build_permutation_game(structure, player, source)
        base = information_partition(structure, player, source)
        info = Partition(space, tuple(_random_blocks(rng, states, len(states))))
        straddling += not oracles.naive_refines(info.blocks, base.blocks)
        expected = oracles.naive_decision_value(
            dict(zip(states, prior.vector)),
            problem.actions[0],
            {(w, a): v for (w, (a,)), (v,) in problem.payoffs.items()},
            info.blocks,
        )
        assert _value(problem, info) == expected
    assert straddling >= 10


def test_permutation_game_cap():
    wide = StateSpace(tuple(f"s{i}" for i in range(8)))
    structure = InformationStructure(
        wide,
        Prior.uniform(wide),
        ("A",),
        (Partition.trivial(wide),),
    )
    with pytest.raises(ResourceLimitError):
        build_permutation_game(structure, 0, Partition.trivial(wide), cap=100)


def test_information_partition_rejects_stochastic_sources():
    half = (Fraction(1, 2), Fraction(1, 2))
    tau = StochasticSignaling(Partition.trivial(SPACE), ("s", "t"), (half,) * len(SPACE))
    with pytest.raises(DomainError, match="deterministic information"):
        information_partition(STRUCTURE, 0, tau)


# ---------------------------------------------------------------------------
# Belief games


def _random_profile(rng, space, n):
    declared = []
    for _ in range(n):
        size = rng.randint(1, len(space))
        support = rng.sample(range(len(space)), size)
        nums = [0] * len(space)
        for j in support:
            nums[j] = rng.randint(1, 6)
        total = sum(nums)
        declared.append(
            Distribution(space, tuple(Fraction(k, total) for k in nums))
        )
    return tuple(declared)


def test_belief_game_scoring_by_hand():
    space = SPACE2
    p = (
        Distribution(space, (Fraction(1, 3), Fraction(2, 3))),
        Distribution(space, (Fraction(1), Fraction(0))),
    )
    game = BeliefGame(space, p)
    assert game.action_set(1) == ("x",)
    assert game.r_value(0, "x", "x") == 3
    assert game.r_value(0, "x", "y") == 0
    assert game.r_value(1, "x", "y") == -2
    # At state x both declared supports contain x.
    assert game.utility(0, "x", ("x", "x")) == 3 - 2 * 1
    # At state y player 1's declaration missed and is docked 2, which in turn
    # is credited to player 0 through the shared term only when y is inside
    # player 1's support -- it is not, so no share is applied.
    assert game.utility(0, "y", ("x", "x")) == 0
    assert game.utility(1, "y", ("x", "x")) == -2


def test_belief_truthful_play_pays_minus_one_each():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.choice((2, 3))
        size = rng.randint(2, 4)
        space = StateSpace(tuple(f"s{i}" for i in range(size)))
        declared = _random_profile(rng, space, n)
        game = BeliefGame(space, declared)
        choices = truthful_choices(game)
        values = belief_expected_payoffs(game, declared, choices)
        assert values == (Fraction(-1),) * n
        assert belief_is_equilibrium(game, declared, choices)
        assert belief_aggregate(game, declared, choices) == -n


def test_belief_perturbations_strictly_lose_value():
    rng = random.Random(12)
    checked = 0
    while checked < 60:
        n = rng.choice((2, 3))
        size = rng.randint(2, 4)
        space = StateSpace(tuple(f"s{i}" for i in range(size)))
        declared = _random_profile(rng, space, n)
        beliefs = list(declared)
        k = rng.randrange(n)
        perturbed = _random_profile(rng, space, 1)[0]
        if perturbed == declared[k]:
            continue
        beliefs[k] = perturbed
        game = BeliefGame(space, declared)
        choices = tuple(
            belief_best_response(game, i, beliefs[i]) for i in range(n)
        )
        assert belief_aggregate(game, beliefs, choices) < -n
        checked += 1


def test_belief_best_response_maximizes_likelihood_ratio():
    space = SPACE2
    declared = (
        Distribution(space, (Fraction(1, 4), Fraction(3, 4))),
        Distribution(space, (Fraction(1, 2), Fraction(1, 2))),
    )
    game = BeliefGame(space, declared)
    belief = Distribution(space, (Fraction(1, 2), Fraction(1, 2)))
    # Ratios for player 0: x -> 2, y -> 2/3.
    assert belief_best_response(game, 0, belief) == "x"
    assert not belief_is_equilibrium(game, (belief, belief), ("y", "x"))


def test_belief_equilibrium_matches_the_action_scan():
    rng = random.Random(13)
    verdicts = set()
    for _ in range(200):
        n = rng.choice((2, 3))
        space = StateSpace(tuple(f"s{i}" for i in range(rng.randint(2, 4))))
        declared = _random_profile(rng, space, n)
        beliefs = _random_profile(rng, space, n)
        game = BeliefGame(space, declared)
        choices = tuple(rng.choice(game.action_set(i)) for i in range(n))
        expected = oracles.naive_belief_is_equilibrium(
            space.states,
            [dict(zip(space.states, d.vector)) for d in declared],
            [dict(zip(space.states, b.vector)) for b in beliefs],
            choices,
        )
        assert belief_is_equilibrium(game, beliefs, choices) == expected
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_belief_payoffs_match_the_scoring_loop():
    rng = random.Random(14)
    off_support = {2: 0, 3: 0}
    for _ in range(200):
        n = rng.choice((2, 3))
        space = StateSpace(tuple(f"s{i}" for i in range(rng.randint(2, 4))))
        declared = _random_profile(rng, space, n)
        beliefs = _random_profile(rng, space, n)
        game = BeliefGame(space, declared)
        choices = tuple(rng.choice(game.action_set(i)) for i in range(n))
        expected = oracles.naive_belief_expected_payoffs(
            space.states,
            [dict(zip(space.states, d.vector)) for d in declared],
            [dict(zip(space.states, b.vector)) for b in beliefs],
            choices,
        )
        assert belief_expected_payoffs(game, beliefs, choices) == expected
        assert belief_aggregate(game, beliefs, choices) == sum(expected)
        off_support[n] += any(
            b.of(s) > 0 and d.of(s) == 0
            for b, d in zip(beliefs, declared)
            for s in space.states
        )
    assert min(off_support.values()) >= 20


def test_belief_game_input_validation():
    space = SPACE2
    lone = (Distribution(space, (Fraction(1), Fraction(0))),)
    with pytest.raises(DomainError):
        BeliefGame(space, lone)
    with pytest.raises(DomainError):
        BeliefGame(space, ())
    declared = _random_profile(random.Random(1), space, 2)
    game = BeliefGame(space, declared)
    outside = [a for a in space.states if a not in game.action_set(0)]
    if outside:
        with pytest.raises(DomainError):
            belief_expected_payoffs(game, declared, (outside[0], "x"))


def test_belief_game_refuses_another_state_space():
    declared = _random_profile(random.Random(1), SPACE2, 2)
    foreign = Distribution(StateSpace(("y", "x")), (Fraction(1), Fraction(0)))
    with pytest.raises(InputError, match="declared posteriors use a different state space"):
        BeliefGame(SPACE2, (declared[0], foreign))
    game = BeliefGame(SPACE2, declared)
    with pytest.raises(InputError, match="beliefs use a different state space"):
        belief_expected_payoffs(game, (declared[0], foreign), truthful_choices(game))
    with pytest.raises(InputError, match="belief uses a different state space"):
        belief_best_response(game, 1, foreign)


# ---------------------------------------------------------------------------
# Exact log scores


def test_log_score_from_terms_by_hand():
    q = Distribution(SPACE2, (Fraction(1, 2), Fraction(1, 2)))
    p = Distribution(SPACE2, (Fraction(1, 4), Fraction(3, 4)))
    score = log_score(q, p)
    assert score.product == Fraction(3, 16) and score.denom == 2
    own = log_score(q, q)
    assert own.product == Fraction(1, 4) and own.denom == 2
    assert own > score
    # A zero weight is skipped, whatever its value; all-zero weights score 0.
    skipped = LogScore.from_terms([(Fraction(0), Fraction(0)), (Fraction(1, 3), Fraction(2))])
    assert skipped.product == Fraction(2) and skipped.denom == 3
    assert LogScore.from_terms([(Fraction(0), Fraction(1, 2))]) == LogScore.zero()
    assert LogScore.from_terms([]) == LogScore.zero()
    assert LogScore.minus_infinity().as_json() == "-inf"


def test_log_score_zero_candidate_mass_is_minus_infinity():
    q = Distribution(SPACE2, (Fraction(1, 2), Fraction(1, 2)))
    p = Distribution(SPACE2, (Fraction(1), Fraction(0)))
    assert log_score(q, p).neg_inf
    assert log_score(p, p).product == 1  # 0 * log 0 contributes nothing


def test_log_score_equality_is_representation_independent():
    a = LogScore(False, Fraction(1, 4), 2)
    b = LogScore(False, Fraction(1, 2), 1)
    assert a == b and a <= b and a >= b
    assert (a == "not a score") is False


def test_log_score_addition_and_half():
    a = LogScore(False, Fraction(2), 1)  # log 2
    b = LogScore(False, Fraction(8), 2)  # (log 8)/2 = 1.5 log 2
    total = a + b
    assert total == LogScore(False, Fraction(32), 2)  # 2.5 log 2
    assert total.half() == LogScore(False, Fraction(32), 4)
    neg = LogScore.minus_infinity()
    assert (a + neg).neg_inf
    assert neg < a and not neg > a and neg == LogScore.minus_infinity()


def test_log_score_compares_sums_over_coprime_denominators_quickly():
    # (1/d) log(2/3) + ((d-1)/d) log(1/5); the sum has denom 97 * 89.
    def score(d):
        terms = [(Fraction(1, d), Fraction(2, 3)), (Fraction(d - 1, d), Fraction(1, 5))]
        return LogScore.from_terms(terms)

    total = score(97) + score(89)
    start = time.perf_counter()
    assert total < total.half()  # a negative score doubled is smaller
    assert score(97) + score(89) == score(89) + score(97)
    assert time.perf_counter() - start < 1
    # Its product has about 12,000 digits, too many to print: a refusal.
    with pytest.raises(ResourceLimitError, match="too many digits to print"):
        total.as_json()


def test_log_score_validation():
    with pytest.raises(InputError):
        LogScore(False, Fraction(1), 0)
    with pytest.raises(InputError):
        LogScore(False, Fraction(0), 1)
    with pytest.raises(InputError):
        LogScore.from_terms([(Fraction(-1), Fraction(1))])
    with pytest.raises(InputError, match="log score values must be nonnegative"):
        LogScore.from_terms([(Fraction(1), Fraction(-1))])
    with pytest.raises(TypeError):
        LogScore.zero() < 3


@pytest.mark.parametrize("value", [0.5, True], ids=["float", "bool"])
def test_log_score_from_terms_refuses_a_float_and_a_bool(value):
    for term in ((value, Fraction(1, 2)), (Fraction(1, 2), value)):
        with pytest.raises(InputError, match="not a rational"):
            LogScore.from_terms([term])


def test_log_score_argmax_is_strictly_proper_on_random_menus():
    rng = random.Random(77)
    for _ in range(40):
        size = rng.randint(2, 4)
        space = StateSpace(tuple(f"s{i}" for i in range(size)))
        menu = list({d for d in _random_profile(rng, space, rng.randint(2, 5))})
        menu.sort(key=lambda d: d.vector)
        for q in menu:
            assert log_score_argmax(q, menu) == q
            for p in menu:
                if p != q:
                    assert log_score(q, q) > log_score(q, p)


# ---------------------------------------------------------------------------
# Declaration games


def _example_signaling():
    oracle = Partition.singletons(SPACE)
    return StochasticSignaling.from_rows(
        oracle,
        ("s1", "s2", "s3"),
        {
            "w1": {"s1": 0, "s2": "1/2", "s3": "1/2"},
            "w2": {"s1": "1/4", "s2": "1/2", "s3": "1/4"},
            "w3": {"s1": "1/4", "s2": "1/2", "s3": "1/4"},
            "w4": {"s1": "1/2", "s2": "1/2", "s3": 0},
        },
    )


def test_kld_game_is_log_domain_and_guards_evaluators():
    tau = _example_signaling()
    game = build_kld_game(STRUCTURE, tau)
    assert isinstance(game, LogScoreGame)
    assert game.actions == tuple(tuple(map(kld_action_label, menu)) for menu in game.menus)
    first = tuple(actions[0] for actions in game.actions)
    assert game.payoff("w1", first) == tuple(menu[0].of("w1") for menu in game.menus)
    for state, profile in (("w9", first), ("w1", first[:1]), ("w1", ("(1,0,0,0)",) * 2)):
        with pytest.raises(DomainError, match="no payoff entry for state"):
            game.payoff(state, profile)
    # The two-stage game refuses the same inputs: an unknown state (under an
    # unsettled and a settled profile), a short profile and an action that is
    # not among the declaring player's actions.
    stage = TwoStageGame(STRUCTURE, tau)
    truthful = stage.truthful_strategy()
    settled = tuple(
        next(iter(truthful.mixture(i, p.block_of("w2"), "s2")))
        for i, p in enumerate(STRUCTURE.players)
    )
    assert stage.payoff("w2", settled) != (-stage.M,) * 2
    off_menu = tuple((signal, d, "zzz") for signal, d, _ in settled)
    for state, profile in (
        ("w9", (BOTTOM, BOTTOM)),
        ("w9", settled),
        ("w1", settled[:1]),
        ("w1", off_menu),
    ):
        with pytest.raises(DomainError, match="no payoff entry for state"):
            stage.payoff(state, profile)
    strategy = truthful_kld_strategy(game, tau)
    with pytest.raises(DomainError):
        expected_payoffs(game, tau, strategy)
    with pytest.raises(DomainError):
        is_equilibrium(game, tau, strategy)
    with pytest.raises(DomainError):
        enumerate_pure_equilibria(game, tau)
    with pytest.raises(DomainError):
        best_common_payoff(game, tau)
    structure, pennies = _matching_pennies()
    with pytest.raises(DomainError, match="log-score games only"):
        kld_expected_scores(pennies, _uninformative(structure), None)


def _eight_listeners():
    """Eight players who learn nothing themselves, hearing one of four
    signals on the singleton oracle: four posteriors on every menu."""
    structure = InformationStructure(
        SPACE, PRIOR, tuple(f"P{i}" for i in range(8)), (Partition.trivial(SPACE),) * 8
    )
    tau = StochasticSignaling.from_rows(
        Partition.singletons(SPACE),
        ("s1", "s2", "s3", "s4"),
        {
            "w1": {"s1": "1/2", "s2": "1/4", "s3": "1/8", "s4": "1/8"},
            "w2": {"s1": "1/8", "s2": "1/2", "s3": "1/4", "s4": "1/8"},
            "w3": {"s1": "1/8", "s2": "1/8", "s3": "1/2", "s4": "1/4"},
            "w4": {"s1": "1/4", "s2": "1/8", "s3": "1/8", "s4": "1/2"},
        },
    )
    return structure, tau


def test_truthful_kld_scores_match_direct_computation():
    from oraclegames import stoch_posterior

    for structure, tau in ((STRUCTURE, _example_signaling()), _eight_listeners()):
        # The game is never written out over the declaration profiles: eight
        # players with four declarations each take milliseconds, not seconds.
        start = time.perf_counter()
        game = build_kld_game(structure, tau)
        scores = kld_expected_scores(game, tau, truthful_kld_strategy(game, tau))
        assert time.perf_counter() - start < 1
        for i in range(structure.n):
            terms = []
            for state in structure.space:
                for sig in tau.signals:
                    w = structure.prior.of(state) * tau.prob(state, sig)
                    if w == 0:
                        continue
                    post = stoch_posterior(structure, i, tau, state, sig)
                    terms.append((w, post.of(state)))
            assert scores[i] == LogScore.from_terms(terms)


def _same_score(a, b):
    return (a.neg_inf, a.product, a.denom) == (b.neg_inf, b.product, b.denom)


def test_log_scores_from_integer_weights_are_from_terms_scores():
    from oraclegames import games

    # Integer weights over a total against the same weights as Fractions.
    rng = random.Random(83)
    for _ in range(200):
        total = rng.choice((1, 6, 12, 30, 36))
        terms = [
            (rng.randint(1, 2 * total), Fraction(rng.randint(0, 3), rng.randint(1, 4)))
            for _ in range(rng.randint(0, 4))
        ]
        expected = LogScore.from_terms([(Fraction(w, total), v) for w, v in terms])
        assert _same_score(LogScore._from_weights(total, terms), expected)
    # Every kld score on seeded mixed declarations, with its outcome weights.
    scored = set()
    # The eight listeners declare pure actions: their mixtures' exponents
    # take seconds to raise.
    cases = (((STRUCTURE, _example_signaling()), 2), (_eight_listeners(), 1))
    for (structure, tau), mixed in cases:
        game = build_kld_game(structure, tau)
        masses, total = games._branch_masses(structure, tau)
        for _ in range(6):
            tables = []
            for actions, pairs in zip(game.actions, reachable_pairs(structure, tau)):
                tables.append({})
                for pair in pairs:
                    picks = rng.sample(actions, rng.randint(1, mixed))
                    nums = [rng.randint(1, 3) for _ in picks]
                    tables[-1][pair] = {a: Fraction(k, sum(nums)) for a, k in zip(picks, nums)}
            strategy = make_strategy(game, tau, tables)
            scale, outcomes = games._outcomes(game, masses.items(), total, strategy)
            for i, score in enumerate(kld_expected_scores(game, tau, strategy)):
                terms = [(Fraction(w, scale), game.payoff(s, p)[i]) for s, p, w in outcomes]
                assert _same_score(score, LogScore.from_terms(terms))
                scored.add(score.neg_inf)
    assert scored == {True, False}


def test_truthful_kld_strategy_requires_menu_membership():
    tau = _example_signaling()
    game = build_kld_game(STRUCTURE, tau)
    other = StochasticSignaling.from_rows(
        Partition.singletons(SPACE),
        ("t1", "t2"),
        {
            "w1": {"t1": "1/4", "t2": "3/4"},
            "w2": {"t1": "3/8", "t2": "5/8"},
            "w3": {"t1": "3/8", "t2": "5/8"},
            "w4": {"t1": "1/4", "t2": "3/4"},
        },
    )
    with pytest.raises(DomainError):
        truthful_kld_strategy(game, other)


def test_kld_action_labels_are_exact_vectors():
    d = Distribution(SPACE2, (Fraction(1, 3), Fraction(2, 3)))
    assert kld_action_label(d) == "(1/3,2/3)"


def _small_two_stage_cases(rng, count, n=2):
    """Random n-player structures with <=2 blocks per player partition and a
    2-signal kernel, small enough to sweep exactly."""
    cases = []
    while len(cases) < count:
        size = rng.randint(3, 4)
        states = tuple(f"s{i}" for i in range(size))
        space = StateSpace(states)
        nums = [rng.randint(1, 4) for _ in states]
        prior = Prior(space, tuple(Fraction(k, sum(nums)) for k in nums))
        small = [
            blocks
            for blocks in oracles.all_partitions(states)
            if len(blocks) <= 2
        ]
        players = tuple(Partition(space, rng.choice(small)) for _ in range(n))
        oracle = Partition(space, rng.choice(small))
        rows = {}
        for block in oracle.blocks:
            a = rng.randint(0, 3)
            b = rng.randint(0, 3)
            if a + b == 0:
                a = 1
            row = {"t1": Fraction(a, a + b), "t2": Fraction(b, a + b)}
            for state in block:
                rows[state] = row
        tau = StochasticSignaling.from_rows(oracle, ("t1", "t2"), rows)
        structure = InformationStructure(space, prior, ("A", "B", "C")[:n], players)
        cases.append((structure, tau))
    return cases


def test_two_stage_truthful_play_and_ceiling():
    rng = random.Random(5)
    for structure, tau in _small_two_stage_cases(rng, 12):
        game = TwoStageGame(structure, tau)
        truthful = game.truthful_strategy()
        values = expected_payoffs(game, tau, truthful)
        assert values == (Fraction(-1),) * structure.n
        assert is_equilibrium(game, tau, truthful).holds
        assert game.max_aggregate(tau) == -structure.n


def test_two_stage_ceiling_never_beats_truthful_under_garbling():
    rng = random.Random(6)
    for structure, tau in _small_two_stage_cases(rng, 8):
        game = TwoStageGame(structure, tau)
        nums = [rng.randint(0, 2) for _ in range(2)]
        if sum(nums) == 0:
            nums[0] = 1
        row1 = {
            "g1": Fraction(nums[0], sum(nums)),
            "g2": Fraction(nums[1], sum(nums)),
        }
        nums2 = [rng.randint(0, 2) for _ in range(2)]
        if sum(nums2) == 0:
            nums2[1] = 1
        row2 = {
            "g1": Fraction(nums2[0], sum(nums2)),
            "g2": Fraction(nums2[1], sum(nums2)),
        }
        merged = merge_garbled(tau, {"t1": row1, "t2": row2})
        assert game.max_aggregate(merged) <= -structure.n


def _enumerated_payoff_bound(game):
    """The two-stage penalty from every utility of every belief game a
    feasible declaration profile settles on, each action profile valued; the
    feasible profiles are read from the signaling's atlas, not the game."""
    structure = game.structure
    profiles = posterior_atlas(structure, game.tau).profiles()
    worst = max(
        abs(belief.utility(i, state, acts))
        for belief in (BeliefGame(structure.space, p) for p in profiles)
        for state in structure.space
        for acts in itertools.product(*map(belief.action_set, range(belief.n)))
        for i in range(belief.n)
    )
    return 2 + structure.n * len(structure.space) * (1 + worst)


def test_two_stage_penalty_bound_and_mismatches():
    # The penalty's closed form is the bound over every action profile.
    rng = random.Random(11)
    cases = _small_two_stage_cases(rng, 30) + _small_two_stage_cases(rng, 20, n=3)
    # Six players, where a point-mass posterior's forced hit decides M.
    space = StateSpace(("s0", "s1", "s2"))
    blocks = (
        [["s0"], ["s1", "s2"]],
        [["s0", "s1"], ["s2"]],
        [["s0", "s1", "s2"]],
        [["s0", "s1"], ["s2"]],
        [["s0", "s1", "s2"]],
        [["s0", "s2"], ["s1"]],
    )
    structure = InformationStructure(
        space,
        Prior.from_mass(space, ["6/16", "9/16", "1/16"]),
        tuple("ABCDEF"),
        tuple(Partition(space, b) for b in blocks),
    )
    tau = StochasticSignaling.from_rows(
        Partition(space, (("s0",), ("s1", "s2"))),
        ("t1", "t2"),
        {"s0": {"t1": "1/4", "t2": "3/4"}, "s1": {"t2": "1"}, "s2": {"t2": "1"}},
    )
    for case in cases + [(structure, tau)]:
        game = TwoStageGame(*case)
        assert game.M == _enumerated_payoff_bound(game)
    rng = random.Random(9)
    structure, tau = _small_two_stage_cases(rng, 1)[0]
    game = TwoStageGame(structure, tau)
    # A lone opt-out poisons the branch for everyone.
    from oraclegames.games import BOTTOM

    truthful = game.truthful_strategy()
    tables = [dict(t) for t in truthful.per_player]
    some_pair = next(iter(tables[0]))
    tables[0][some_pair] = BOTTOM
    broken = make_strategy(game, tau, tables)
    block, signal = some_pair
    state = block[0]
    declarations = tuple(
        next(iter(broken.mixture(i, structure.players[i].block_of(state), signal)))
        for i in range(structure.n)
    )
    assert declarations[0] == BOTTOM
    assert game.payoff(state, declarations) == (-game.M,) * structure.n


def test_two_stage_game_of_eight_listeners_builds_at_once():
    # Each belief game has 4^8 action profiles, too many to value one by one.
    structure, tau = _eight_listeners()
    for n in (2, 3):
        cut = InformationStructure(
            structure.space, structure.prior, structure.player_names[:n], structure.players[:n]
        )
        game = TwoStageGame(cut, tau)
        assert game.M == _enumerated_payoff_bound(game)
    start = time.perf_counter()
    game = TwoStageGame(structure, tau)
    assert time.perf_counter() - start < 1
    assert game.M == 546
    truthful = game.truthful_strategy()
    assert expected_payoffs(game, tau, truthful) == (-1,) * 8
    assert is_equilibrium(game, tau, truthful).holds
    assert game.max_aggregate(tau) == -8


def test_two_stage_declarations_are_checked_by_menu_membership():
    from oraclegames.games import BOTTOM

    tau = _example_signaling()
    game = TwoStageGame(STRUCTURE, tau)
    tables = [dict(t) for t in game.truthful_strategy().per_player]
    pair = next(iter(tables[0]))
    ((signal, posterior, action),) = tables[0][pair]
    off_menu = Distribution(SPACE, (Fraction(1, 4),) * 4)
    assert off_menu not in game.menus[0]
    outside = next(s for s in SPACE if posterior.of(s) == 0)
    for bad in (
        ("s9", posterior, action),  # not a signal of the game
        (signal, off_menu, "w1"),  # posterior off the player's menu
        (signal, posterior, outside),  # action outside the posterior's support
        [signal, posterior, action],  # a list is neither an action nor a mixture
    ):
        tables[0][pair] = bad
        with pytest.raises(InputError, match="unknown action"):
            make_strategy(game, tau, tables)
    tables[0][pair] = BOTTOM
    assert make_strategy(game, tau, tables).mixture(0, *pair) == {BOTTOM: 1}


def test_two_stage_evaluators_reject_a_signaling_over_another_state_space():
    concert = load_fixture("rock-concert")
    bayesian, _, guided = Fixture(concert).strategy("guided")
    data = load_fixture("witness-two-stage")
    stage = TwoStageGame(Fixture(data).structure, Fixture(data).signaling("tau2"))
    cases = (
        (bayesian, _over_reversed_space(concert, "guided"), guided),
        (stage, _over_reversed_space(data, "tau2"), stage.truthful_strategy()),
    )
    for evaluate in (expected_payoffs, is_equilibrium):
        messages = set()
        for game, other, strategy in cases:
            with pytest.raises(DomainError) as raised:
                evaluate(game, other, strategy)
            messages.add(str(raised.value))
        assert messages == {"signaling and structure use different state spaces"}


def test_two_stage_needs_two_players():
    solo = InformationStructure(
        SPACE, PRIOR, ("A",), (Partition.trivial(SPACE),)
    )
    with pytest.raises(DomainError):
        TwoStageGame(solo, _example_signaling())


def test_mixed_value_algebra():
    a = MixedValue(Fraction(1, 2), LogScore(False, Fraction(2), 1))
    b = MixedValue(Fraction(1, 3), LogScore(False, Fraction(2), 2))
    total = a + b
    assert total.rational == Fraction(5, 6)
    assert total.log == LogScore(False, Fraction(8), 2)
    assert a.half().rational == Fraction(1, 4)
    assert a.as_json() == {"rational": "1/2", "log": {"product": "2", "denom": 1}}


def test_combined_game_is_the_equal_weight_pair():
    tau = _example_signaling()
    combined = CombinedGame(TwoStageGame(STRUCTURE, tau))
    stage_strategy = combined.stage.truthful_strategy()
    kld_strategy = truthful_kld_strategy(combined.kld, tau)
    values = combined.expected_payoffs(tau, stage_strategy, kld_strategy)
    stage_values = expected_payoffs(combined.stage, tau, stage_strategy)
    kld_values = kld_expected_scores(combined.kld, tau, kld_strategy)
    for value, sv, kv in zip(values, stage_values, kld_values):
        assert value.rational == sv / 2
        assert value.log == kv.half()
    assert combined.truthful_payoffs() == values


# ---------------------------------------------------------------------------
# Common-objective coordination value


def _random_common_game(rng, structure, n_actions):
    labels = tuple(f"a{j}" for j in range(n_actions))
    actions = (labels, labels)
    payoffs = {}
    for state in structure.space:
        for profile in itertools.product(labels, repeat=2):
            value = Fraction(rng.randint(-4, 6))
            payoffs[(state, profile)] = (value, value)
    return BayesianGame(structure, actions, payoffs)


def test_best_common_payoff_requires_common_payoffs():
    structure, game = _matching_pennies()
    with pytest.raises(DomainError):
        best_common_payoff(game, _uninformative(structure))


def test_best_common_payoff_small_example():
    # A guessing game: both players must name the realized state, but only
    # player A can tell the two states apart.
    structure = InformationStructure(
        SPACE2,
        Prior.uniform(SPACE2),
        ("A", "B"),
        (Partition.singletons(SPACE2), Partition.trivial(SPACE2)),
    )
    actions = (("x", "y"), ("x", "y"))
    payoffs = {}
    for state in SPACE2:
        for a in ("x", "y"):
            for b in ("x", "y"):
                value = Fraction(int(a == state) + int(b == state))
                payoffs[(state, (a, b))] = (value, value)
    game = BayesianGame(structure, actions, payoffs)
    # Without a signal: A always scores, B guesses one state (1/2 on average).
    assert best_common_payoff(game, _uninformative(structure)) == Fraction(3, 2)
    reveal = StochasticSignaling.from_rows(
        Partition.singletons(SPACE2),
        ("rx", "ry"),
        {"x": {"rx": 1}, "y": {"ry": 1}},
    )
    assert best_common_payoff(game, reveal) == Fraction(2)


def test_best_common_payoff_monotone_under_merging_signals():
    rng = random.Random(21)
    for structure, tau in _small_two_stage_cases(rng, 10):
        game = _random_common_game(rng, structure, 3)
        merged = merge_garbled(
            tau, {"t1": {"g": "1"}, "t2": {"g": "1"}}
        )  # drop all information
        assert best_common_payoff(game, tau) >= best_common_payoff(game, merged)


def _random_blocks(rng, states, max_blocks):
    groups = {}
    for state in states:
        groups.setdefault(rng.randrange(max_blocks), []).append(state)
    return [tuple(g) for g in groups.values()]


def test_best_common_payoff_matches_unsplit_brute_force():
    # Deterministic cases use partitions of any fineness; stochastic ones
    # keep at most two blocks per player, so the brute force scans at most
    # 2**8 profiles either way.
    rng = random.Random(31)
    for case in range(24):
        states = tuple(f"w{j}" for j in range(rng.choice((3, 4))))
        space = StateSpace(states)
        nums = [rng.randint(1, 4) for _ in states]
        prior = {w: Fraction(k, sum(nums)) for w, k in zip(states, nums)}
        if case % 2:
            partitions = [_random_blocks(rng, states, 2) for _ in range(2)]
            kernel = {}
            for w in states:
                p = Fraction(rng.randint(0, 2), 2)
                kernel[w] = {"s": p, "t": 1 - p}
            tau = StochasticSignaling.from_rows(
                Partition.singletons(space), ("s", "t"), kernel
            )
        else:
            partitions = [_random_blocks(rng, states, len(states)) for _ in range(2)]
            sent = [rng.choice("st") for _ in states]
            tau = StochasticSignaling.from_assignment(Partition.singletons(space), sent)
            kernel = {w: {s: Fraction(1)} for w, s in zip(states, sent)}
        structure = InformationStructure(
            space,
            Prior(space, tuple(prior[w] for w in states)),
            ("A", "B"),
            tuple(Partition(space, tuple(p)) for p in partitions),
        )
        game = _random_common_game(rng, structure, 2)
        expected = oracles.naive_best_common_payoff(
            states,
            prior,
            kernel,
            partitions,
            game.actions,
            lambda w, profile: game.payoffs[(w, profile)][0],
        )
        assert best_common_payoff(game, tau) == expected


# ---------------------------------------------------------------------------
# Equilibrium checks against the total-payoff brute force


def _equilibrium_cases(rng, count):
    """Seeded 2-player games on 4-5 states: each player has at most two
    blocks, and the 3-signal kernel gives one signal zero mass on each
    oracle block (every third case drops signal t3 altogether)."""
    labels = ("a0", "a1")
    cases = []
    for case in range(count):
        states = tuple(f"w{j}" for j in range(rng.choice((4, 5))))
        space = StateSpace(states)
        nums = [rng.randint(1, 4) for _ in states]
        prior = Prior(space, tuple(Fraction(k, sum(nums)) for k in nums))
        players = tuple(
            Partition(space, tuple(_random_blocks(rng, states, 2))) for _ in range(2)
        )
        oracle = Partition(space, tuple(_random_blocks(rng, states, 3)))
        rows = {}
        for block in oracle.blocks:
            weights = [rng.randint(1, 2) for _ in range(3)]
            weights[2 if case % 3 == 0 else rng.randrange(3)] = 0
            row = {f"t{k + 1}": Fraction(v, sum(weights)) for k, v in enumerate(weights)}
            for state in block:
                rows[state] = row
        tau = StochasticSignaling.from_rows(oracle, ("t1", "t2", "t3"), rows)
        structure = InformationStructure(space, prior, ("A", "B"), players)
        payoffs = {
            (state, profile): tuple(Fraction(rng.randint(-3, 5)) for _ in range(2))
            for state in states
            for profile in itertools.product(labels, repeat=2)
        }
        game = BayesianGame(structure, (labels, labels), payoffs)
        oracle_args = (
            states,
            dict(zip(states, prior.vector)),
            {w: dict(rows[w]) for w in states},
            [list(p.blocks) for p in players],
        )
        cases.append((game, tau, oracle_args))
    return cases


def _unlike_denominator_cases(rng, count):
    """Seeded games of 2 and then 3 players, alternately, with 5-8 reachable
    (block, signal) slots and two actions each, whose exact values have
    unlike denominators: the prior is over 7 or 11, the kernel rows over 2
    or 3, and player i's utilities are 0 to 2 times one of two steps, 1/3 or
    2/5 for A, 2/5 or 3/7 for B and 3/7 or 1/2 for C, so that deviation
    values often tie.  Each case is (game, tau, brute-force arguments), as
    in ``_equilibrium_cases``."""
    labels = ("a0", "a1")
    steps = (Fraction(1, 3), Fraction(2, 5), Fraction(3, 7), Fraction(1, 2))
    rows_over = ((1, 1, 0), (1, 0, 1), (1, 2, 0), (0, 2, 1), (1, 1, 1), (2, 0, 0))
    cases = []
    while len(cases) < count:
        n = 2 + len(cases) % 2
        nums = rng.choice(((1, 2, 3, 1), (2, 1, 3, 4, 1)))
        states = tuple(f"w{j}" for j in range(len(nums)))
        space = StateSpace(states)
        prior = Prior(space, tuple(Fraction(k, sum(nums)) for k in rng.sample(nums, len(nums))))
        players = tuple(
            Partition(space, tuple(_random_blocks(rng, states, 2))) for _ in range(n)
        )
        oracle = Partition(space, tuple(_random_blocks(rng, states, 3)))
        rows = {}
        for block in oracle.blocks:
            weights = rng.choice(rows_over)
            row = {f"t{k + 1}": Fraction(v, sum(weights)) for k, v in enumerate(weights)}
            for state in block:
                rows[state] = row
        tau = StochasticSignaling.from_rows(oracle, ("t1", "t2", "t3"), rows)
        structure = InformationStructure(space, prior, ("A", "B", "C")[:n], players)
        if not 5 <= sum(len(p) for p in reachable_pairs(structure, tau)) <= 8:
            continue
        payoffs = {
            (state, profile): tuple(
                rng.choice(steps[i : i + 2]) * rng.randint(0, 2) for i in range(n)
            )
            for state in states
            for profile in itertools.product(labels, repeat=n)
        }
        game = BayesianGame(structure, (labels,) * n, payoffs)
        oracle_args = (
            states,
            dict(zip(states, prior.vector)),
            {w: dict(rows[w]) for w in states},
            [list(p.blocks) for p in players],
        )
        cases.append((game, tau, oracle_args))
    return cases


def _unlike_tables(rng, pairs, options, denominators=(3, 5, 7)):
    """Per player, a mixture at each of their reachable pairs over
    ``options(player, pair)``, each probability a multiple of one over a
    denominator that cycles through ``denominators`` pair after pair, so
    that a player's mixtures have unlike denominators.  A mixture cuts
    [0, d] at random points, so some of its probabilities are often 0."""
    position = itertools.count()
    tables = []
    for i, player_pairs in enumerate(pairs):
        table = {}
        for pair in player_pairs:
            actions = options(i, pair)
            d = denominators[next(position) % len(denominators)]
            cuts = [0, *sorted(rng.randint(0, d) for _ in actions[1:]), d]
            table[pair] = {a: Fraction(hi - lo, d) for a, lo, hi in zip(actions, cuts, cuts[1:])}
        tables.append(table)
    return tables


def _naive_result(structure, verdict):
    holds, witness = verdict
    if holds:
        return True, None
    i, block, signal, option = witness
    return False, (structure.player_names[i], block, signal, option)


def test_equilibrium_checks_match_the_total_payoff_brute_force():
    rng = random.Random(41)
    halves = (Fraction(0), Fraction(1, 2), Fraction(1))
    unlike = random.Random(47)
    players = set()
    cases = _equilibrium_cases(rng, 20) + _unlike_denominator_cases(random.Random(67), 10)
    for game, tau, args in cases:
        structure = game.structure
        pairs = oracles.naive_pairs(*args)
        assert [list(p) for p in reachable_pairs(structure, tau)] == pairs

        def check(strategy, tables):
            naive = oracles.naive_is_equilibrium(
                *args, game.actions, game.payoff, tables
            )
            result = is_equilibrium(game, tau, strategy)
            assert (result.holds, result.witness) == _naive_result(structure, naive)
            return naive

        for _ in range(3):
            tables = []
            for player_pairs in pairs:
                table = {}
                for pair in player_pairs:
                    p = rng.choice(halves)
                    table[pair] = {"a0": p, "a1": 1 - p}
                tables.append(table)
            check(make_strategy(game, tau, tables), tables)
        for _ in range(2):
            # Thirds, fifths and sevenths, unlike across pairs.  A witness of
            # any player but the last is played and the check repeated, so
            # the later players' deviations are valued too.
            tables = _unlike_tables(unlike, pairs, lambda i, pair: game.actions[i])
            for _ in range(6):
                holds, witness = check(make_strategy(game, tau, tables), tables)
                if holds or witness[0] == structure.n - 1:
                    break
                i, block, signal, action = witness
                tables[i][(block, signal)] = {action: Fraction(1)}

        slots = [(i, pair) for i in range(structure.n) for pair in pairs[i]]
        if len(slots) > 8:
            continue  # the brute force below scans 2**slots profiles
        expected = oracles.pure_profile_scan(
            slots,
            game.actions,
            lambda tables: oracles.naive_is_equilibrium(
                *args, game.actions, game.payoff, tables
            )[0],
        )
        found = enumerate_pure_equilibria(game, tau)
        assert [list(s.per_player) for s in found] == expected
        for strategy in found[:2]:
            check(strategy, list(strategy.per_player))
        players.add(structure.n)
    assert players == {2, 3}


def test_outcome_walk_matches_the_fraction_oracle():
    """``ned_distribution``, ``expected_payoffs`` with and without an event,
    and the weights behind ``kld_expected_scores`` agree with
    ``oracles.naive_outcome_distribution`` on 2- and 3-player games whose
    mixtures have unlike denominators across pairs and some zero
    probabilities."""
    rng = random.Random(71)
    players = set()
    for game, tau, args in _unlike_denominator_cases(random.Random(73), 8):
        structure, (states, _, kernel, _) = game.structure, args
        pairs = oracles.naive_pairs(*args)
        tables = _unlike_tables(rng, pairs, lambda i, pair: game.actions[i])
        strategy = make_strategy(game, tau, tables)
        naive = oracles.naive_outcome_distribution(*args, tables)
        assert ned_distribution(game, tau, strategy).mass == naive

        def expected(event):
            mass = {key: m for key, m in naive.items() if key[0] in event}
            return tuple(
                sum(m * game.payoff(*key)[i] for key, m in mass.items()) / sum(mass.values())
                for i in range(structure.n)
            )

        assert expected_payoffs(game, tau, strategy) == expected(states)
        event = rng.sample(states, rng.randint(1, len(states)))
        assert expected_payoffs(game, tau, strategy, given_event=event) == expected(event)

        # Log scores: mixed declarations, each giving every state the pair
        # reaches positive mass, so that no score is minus infinity.
        kld = build_kld_game(structure, tau)

        def safe(i, pair):
            reached = [w for w in pair[0] if kernel[w][pair[1]] > 0]
            return [
                a for a, d in zip(kld.actions[i], kld.menus[i]) if all(d.of(w) for w in reached)
            ]

        tables = _unlike_tables(rng, pairs, safe)
        naive = oracles.naive_outcome_distribution(*args, tables)
        scores = kld_expected_scores(kld, tau, make_strategy(kld, tau, tables))
        for i, score in enumerate(scores):
            terms = [(m, kld.payoff(*key)[i]) for key, m in naive.items()]
            assert score == LogScore.from_terms(terms)
        players.add(structure.n)
    assert players == {2, 3}


def test_a_strategy_missing_a_reachable_pair_is_refused_by_every_evaluator():
    fixture = Fixture(load_fixture("rock-concert"))
    game, tau, strategy = fixture.strategy("guided")
    kld = build_kld_game(game.structure, tau)
    truthful = truthful_kld_strategy(kld, tau)
    (block, signal), _ = next(iter(strategy.per_player[1].items()))
    message = (
        f"strategy for player 1 has no entry at block {{{','.join(block)}}} "
        f"with signal '{signal}'"
    )

    def without_the_pair(profile):
        tables = [dict(table) for table in profile.per_player]
        del tables[1][(block, signal)]
        return StrategyProfile(tuple(tables))

    evaluations = (
        lambda: expected_payoffs(game, tau, without_the_pair(strategy)),
        lambda: expected_payoffs(game, tau, without_the_pair(strategy), given_event=block),
        lambda: ned_distribution(game, tau, without_the_pair(strategy)),
        lambda: is_equilibrium(game, tau, without_the_pair(strategy)),
        lambda: kld_expected_scores(kld, tau, without_the_pair(truthful)),
    )
    for evaluate in evaluations:
        with pytest.raises(DomainError) as raised:
            evaluate()
        assert str(raised.value) == message
    # A mixture that does not sum to 1 is left to the outcome distribution's
    # own constructor, which refuses it.
    tables = [dict(table) for table in strategy.per_player]
    tables[1][(block, signal)] = {action: p / 2 for action, p in tables[1][(block, signal)].items()}
    with pytest.raises(InputError, match="^outcome masses sum to 7/8, expected 1$"):
        ned_distribution(game, tau, StrategyProfile(tuple(tables)))


def test_is_equilibrium_reads_only_the_deviating_players_payoff_column(monkeypatch):
    # A pair values one player's deviations, so it asks the game for that
    # player's payoff column alone, in player order; verdicts and witnesses
    # still match the brute force.
    asked = []
    for cls in (BayesianGame, TwoStageGame):

        def record(self, keys, players, columns=cls._payoff_columns):
            asked.append(tuple(players))
            return columns(self, keys, asked[-1])

        monkeypatch.setattr(cls, "_payoff_columns", record)
    rng = random.Random(53)
    for game, tau, args in _equilibrium_cases(rng, 12):
        stage = TwoStageGame(game.structure, tau)
        for g in (game, stage):
            pairs = reachable_pairs(game.structure, tau)
            tables = [
                {pair: {a: Fraction(1, 2) for a in g.actions[i][:2]} for pair in pairs[i]}
                for i in range(2)
            ]
            payoff = g.payoff if g is game else _two_stage_oracle(stage)
            naive = oracles.naive_is_equilibrium(*args, g.actions, payoff, tables)
            asked.clear()
            result = is_equilibrium(g, tau, make_strategy(g, tau, tables))
            assert (result.holds, result.witness) == _naive_result(game.structure, naive)
            assert asked and all(len(p) == 1 for p in asked) and asked == sorted(asked)


def test_two_stage_equilibrium_matches_the_total_payoff_brute_force():
    rng = random.Random(43)
    for game, tau, args in _equilibrium_cases(rng, 20)[::2]:
        stage = TwoStageGame(game.structure, tau)
        truthful = stage.truthful_strategy()
        strategies = [truthful]
        for _ in range(2):
            tables = [dict(t) for t in truthful.per_player]
            i = rng.randrange(2)
            pair = rng.choice(list(tables[i]))
            tables[i][pair] = rng.choice([o for o in stage.actions[i] if o not in tables[i][pair]])
            strategies.append(make_strategy(stage, tau, tables))
        for strategy in strategies:
            naive = oracles.naive_is_equilibrium(
                *args, stage.actions, _two_stage_oracle(stage), strategy.per_player
            )
            result = is_equilibrium(stage, tau, strategy)
            assert (result.holds, result.witness) == _naive_result(
                game.structure, naive
            )
        assert is_equilibrium(stage, tau, truthful).holds


def _oracle_args(structure, tau):
    """The plain arguments of the brute forces in ``oracles``: states, prior,
    kernel rows and each player's blocks."""
    states = structure.space.states
    return (
        states,
        dict(zip(states, structure.prior.vector)),
        {w: dict(zip(tau.signals, tau.row(w))) for w in states},
        [list(p.blocks) for p in structure.players],
    )


def _two_stage_oracle(game):
    """``oracles.naive_two_stage_payoff`` of a two-stage game, its settled
    profiles read from the signaling's atlas, on the game's declarations."""
    structure, tau = game.structure, game.tau
    profiles = [tuple(d.vector for d in p) for p in posterior_atlas(structure, tau).profiles()]
    naive = oracles.naive_two_stage_payoff(*_oracle_args(structure, tau), profiles, game.M)

    def payoff(state, declarations):
        plain = tuple(None if d == BOTTOM else (d[0], d[1].vector, d[2]) for d in declarations)
        return naive(state, plain)

    return payoff


def test_two_stage_payoffs_match_the_fraction_oracle():
    """``TwoStageGame.payoff`` equals ``oracles.naive_two_stage_payoff`` at
    every state and action profile of every one-signal profile of menu
    posteriors, settled or not, and under an opt-out or a split signal; and
    ``expected_payoffs`` of seeded mixed strategies, with and without an
    event, equals the oracle summed over
    ``oracles.naive_outcome_distribution``.  2- and 3-player games."""
    rng = random.Random(97)
    players, settled, missed = set(), 0, 0
    for structure, tau in _small_two_stage_cases(rng, 4) + _small_two_stage_cases(rng, 3, n=3):
        game = TwoStageGame(structure, tau)
        naive = _two_stage_oracle(game)
        n, states = structure.n, structure.space.states
        miss = (-game.M,) * n
        for signal, *posteriors in itertools.product(tau.signals, *game.menus):
            for state in states:
                for acts in itertools.product(*(d.support() for d in posteriors)):
                    declarations = tuple((signal, d, a) for d, a in zip(posteriors, acts))
                    value = game.payoff(state, declarations)
                    assert value == naive(state, declarations)
                    settled += value != miss
                    missed += value == miss
                    others = [(t, *declarations[0][1:]) for t in tau.signals if t != signal]
                    for first in (BOTTOM, *others):  # an opt-out, or a signal apart
                        split = (first, *declarations[1:])
                        assert game.payoff(state, split) == miss == naive(state, split)
        args = _oracle_args(structure, tau)
        pairs = oracles.naive_pairs(*args)
        truthful = game.truthful_strategy()

        def options(i, pair):
            true = next(iter(truthful.mixture(i, *pair)))
            return [true, *rng.sample([a for a in game.actions[i] if a != true], 2)]

        for _ in range(3):
            tables = _unlike_tables(rng, pairs, options)
            strategy = make_strategy(game, tau, tables)
            mass = oracles.naive_outcome_distribution(*args, tables)
            event = rng.sample(states, rng.randint(1, len(states)))
            for given in (states, event):
                kept = {key: m for key, m in mass.items() if key[0] in given}
                expected = tuple(
                    sum(m * naive(*key)[i] for key, m in kept.items()) / sum(kept.values())
                    for i in range(n)
                )
                assert expected_payoffs(game, tau, strategy, given_event=given) == expected
        players.add(n)
    assert players == {2, 3} and settled > 0 and missed > 0


def test_two_stage_evaluators_never_read_a_fraction_payoff(monkeypatch):
    """``is_equilibrium``, ``expected_payoffs`` (with and without an event)
    and ``CombinedGame.truthful_payoffs`` value a two-stage game through its
    integer settlement: each gives the same answer with
    ``TwoStageGame.payoff`` raising."""
    tau = _example_signaling()
    game = TwoStageGame(STRUCTURE, tau)
    truthful = game.truthful_strategy()
    tables = [dict(t) for t in truthful.per_player]
    pair = next(iter(tables[1]))
    tables[1][pair] = BOTTOM
    strategies = (truthful, make_strategy(game, tau, tables))
    combined = CombinedGame(game)

    def evaluate():
        return (
            [is_equilibrium(game, tau, s) for s in strategies],
            [expected_payoffs(game, tau, s) for s in strategies],
            [expected_payoffs(game, tau, s, given_event=pair[0]) for s in strategies],
            combined.truthful_payoffs(),
        )

    before = evaluate()
    assert before[0][0].holds and not before[0][1].holds
    assert before[1][0] == (-1, -1)

    def unread(*args):
        raise AssertionError("TwoStageGame.payoff was read")

    monkeypatch.setattr(TwoStageGame, "payoff", unread)
    assert evaluate() == before


# ---------------------------------------------------------------------------
# The pruned slot searches against full scans


def _search_cases(rng, count):
    """Seeded 2- and 3-player games with 9-12 reachable (block, signal)
    slots and two actions each: at most two blocks per player, a 3-signal
    kernel with zero-mass signals (t3 never fires in every other case), and
    payoffs in 0..2, so that deviation values often tie."""
    labels = ("a0", "a1")
    cases = []
    while len(cases) < count:
        n = rng.choice((2, 3))
        states = tuple(f"w{j}" for j in range(rng.choice((4, 5))))
        space = StateSpace(states)
        nums = [rng.randint(1, 4) for _ in states]
        prior = Prior(space, tuple(Fraction(k, sum(nums)) for k in nums))
        players = tuple(
            Partition(space, tuple(_random_blocks(rng, states, 2))) for _ in range(n)
        )
        oracle = Partition(space, tuple(_random_blocks(rng, states, 3)))
        rows = {}
        for block in oracle.blocks:
            weights = [rng.randint(0, 2) for _ in range(3)]
            if len(cases) % 2:
                weights[2] = 0
            if sum(weights) == 0:
                weights[0] = 1
            row = {f"t{k + 1}": Fraction(v, sum(weights)) for k, v in enumerate(weights)}
            for state in block:
                rows[state] = row
        tau = StochasticSignaling.from_rows(oracle, ("t1", "t2", "t3"), rows)
        structure = InformationStructure(space, prior, ("A", "B", "C")[:n], players)
        if not 9 <= sum(len(p) for p in reachable_pairs(structure, tau)) <= 12:
            continue
        payoffs = {
            (state, profile): tuple(Fraction(rng.randint(0, 2)) for _ in range(n))
            for state in states
            for profile in itertools.product(labels, repeat=n)
        }
        cases.append((BayesianGame(structure, (labels,) * n, payoffs), tau))
    return cases


def test_pure_equilibria_follow_the_filtered_product_scan():
    rng = random.Random(53)
    players = set()
    for game, tau in _search_cases(rng, 6):
        pairs = reachable_pairs(game.structure, tau)
        slots = [(i, pair) for i in range(game.structure.n) for pair in pairs[i]]
        expected = oracles.pure_profile_scan(
            slots,
            game.actions,
            lambda tables: is_equilibrium(
                game, tau, make_strategy(game, tau, tables)
            ).holds,
        )
        found = enumerate_pure_equilibria(game, tau)
        # Same profiles in the same order, each table keyed in pair order.
        assert [[list(t.items()) for t in s.per_player] for s in found] == [
            [list(t.items()) for t in tables] for tables in expected
        ]
        players.add(game.structure.n)
    assert players == {2, 3}


def test_enumerate_pure_equilibria_refuses_before_valuing_a_slot(monkeypatch):
    from oraclegames import games

    game, tau = _search_cases(random.Random(59), 1)[0]
    largest = max(2 ** len(slots) for _, _, slots, _ in games._cells(game.structure, tau))
    assert largest < 2 ** sum(len(p) for p in reachable_pairs(game.structure, tau))

    class Unread:
        """Payoffs that fail on any read: a slot is valued, or a payoff
        table built, only by reading them."""

        def __getattr__(self, name):
            raise AssertionError(f"the payoffs were read ({name})")

        def __getitem__(self, key):
            raise AssertionError(f"the payoffs were read at {key!r}")

    def valued(*args):
        raise AssertionError("a slot was valued")

    monkeypatch.setattr(game, "payoffs", Unread())
    monkeypatch.setattr(games, "_integer_payoffs", valued)
    with pytest.raises(ResourceLimitError) as info:
        enumerate_pure_equilibria(game, tau, cap=largest - 1)
    assert f"{largest} pure strategy profiles" in str(info.value)


def _components_game(k, seed):
    """Two players who share one partition into k two-state blocks (k
    common-knowledge components, so k cells of 9 pure profiles under the
    uninformative signaling), three actions each, and payoffs in 0..3 drawn
    from ``seed``."""
    rng = random.Random(seed)
    space = StateSpace(tuple(f"w{j}" for j in range(2 * k)))
    pairs = Partition(space, tuple((f"w{2 * j}", f"w{2 * j + 1}") for j in range(k)))
    structure = InformationStructure(space, Prior.uniform(space), ("A", "B"), (pairs, pairs))
    actions = (("a", "b", "c"),) * 2
    payoffs = {
        (state, profile): (Fraction(rng.randint(0, 3)), Fraction(rng.randint(0, 3)))
        for state in space.states
        for profile in itertools.product(*actions)
    }
    return BayesianGame(structure, actions, payoffs), _uninformative(structure)


# At (10, 0) some cells have no pure equilibrium, so the answer is [].
@pytest.mark.parametrize("k, seed", [(6, 0), (10, 1), (10, 0)])
def test_pure_equilibria_are_the_product_of_the_cells_equilibria(k, seed):
    game, tau = _components_game(k, seed)
    assert 3 ** (2 * k) > 100000  # the full product is past the default cap
    start = time.perf_counter()
    found = enumerate_pure_equilibria(game, tau)
    assert time.perf_counter() - start < 1
    per_cell = []
    for j in range(k):
        # The component's game alone, on its own two states.
        space = StateSpace((f"w{2 * j}", f"w{2 * j + 1}"))
        alone = InformationStructure(
            space, Prior.uniform(space), ("A", "B"), (Partition.trivial(space),) * 2
        )
        payoffs = {key: v for key, v in game.payoffs.items() if key[0] in space.states}
        cell = BayesianGame(alone, game.actions, payoffs)
        per_cell.append(len(enumerate_pure_equilibria(cell, _uninformative(alone))))
    assert len(found) == math.prod(per_cell)
    slots = [(i, pair) for i in range(2) for pair in reachable_pairs(game.structure, tau)[i]]
    picks = [
        tuple(game.actions[i].index(*s.per_player[i][pair]) for i, pair in slots) for s in found
    ]
    assert picks == sorted(set(picks))  # itertools.product order, no repeats
    for strategy in found[:: max(1, len(found) // 8)]:
        assert is_equilibrium(game, tau, strategy).holds


def test_enumerate_pure_equilibria_refuses_too_many_equilibria():
    game, tau = _components_game(6, 0)
    count = len(enumerate_pure_equilibria(game, tau))
    assert 9 < count
    with pytest.raises(ResourceLimitError) as info:
        enumerate_pure_equilibria(game, tau, cap=count - 1)
    assert f"{count} pure equilibria exceed the cap of {count - 1}" in str(info.value)
    assert len(enumerate_pure_equilibria(game, tau, cap=count)) == count


def test_slot_search_is_the_filtered_product_in_its_order():
    from oraclegames.games import _slot_search

    sizes = (2, 3, 1, 2, 3)

    def keep(prefix):
        return sum(prefix) % 4 != 3

    expected = [
        leaf
        for leaf in itertools.product(*map(range, sizes))
        if all(keep(leaf[: d + 1]) for d in range(len(sizes)))
    ]
    assert list(_slot_search(sizes, lambda d, assigned: keep(assigned[: d + 1]))) == expected
    assert list(_slot_search((), lambda d, assigned: False)) == [()]
    # The walk is a loop: far more slots than the recursion limit allows.
    assert list(_slot_search((1,) * 5000, lambda d, assigned: True)) == [(0,) * 5000]


def test_enumerate_pure_equilibria_walks_a_long_chain_of_blocks():
    # A's blocks {w0,w1},{w2,w3},... and B's {w0},{w1,w2},... link all 1,200
    # states into one component: one cell of about 1,200 one-action slots.
    space = StateSpace(tuple(f"w{j}" for j in range(1200)))

    def blocks(first):
        return tuple(space.states[max(0, j) : j + 2] for j in range(first, 1200, 2))

    structure = InformationStructure(
        space,
        Prior.uniform(space),
        ("A", "B"),
        (Partition(space, blocks(0)), Partition(space, blocks(-1))),
    )
    game = BayesianGame(
        structure,
        (("x",), ("y",)),
        {(state, ("x", "y")): (Fraction(1), Fraction(1)) for state in space.states},
    )
    found = enumerate_pure_equilibria(game, _uninformative(structure))
    assert len(found) == 1 and len(found[0].per_player[1]) == 601
    start = time.perf_counter()
    assert best_common_payoff(game, _uninformative(structure)) == 1
    assert time.perf_counter() - start < 1


def _common_payoff_game(game):
    """The game with every player paid player 0's payoffs."""
    n = game.structure.n
    payoffs = {key: (values[0],) * n for key, values in game.payoffs.items()}
    return BayesianGame(game.structure, game.actions, payoffs)


def test_best_common_payoff_matches_the_brute_force_for_three_players():
    rng = random.Random(61)
    cases = [(game, tau) for game, tau in _search_cases(rng, 4) if game.structure.n == 3]
    assert len(cases) >= 2
    unlike = _unlike_denominator_cases(random.Random(73), 8)
    cases += [(game, tau) for game, tau, _ in unlike if game.structure.n == 3]
    assert len(cases) >= 4
    for game, tau in cases:
        structure = game.structure
        common = _common_payoff_game(game)
        states = structure.space.states
        expected = oracles.naive_best_common_payoff(
            states,
            dict(zip(states, structure.prior.vector)),
            {w: dict(zip(tau.signals, tau.row(w))) for w in states},
            [list(p.blocks) for p in structure.players],
            common.actions,
            lambda w, profile: common.payoffs[(w, profile)][0],
        )
        assert best_common_payoff(common, tau) == expected


def _singleton_kernel(rng, structure, signals):
    """A seeded kernel on the singletons: each state sends the first of the
    two ``signals`` with probability 0, 1/2 or 1."""
    rows = {}
    for state in structure.space.states:
        k = rng.randint(0, 2)
        rows[state] = dict(zip(signals, (Fraction(k, 2), Fraction(2 - k, 2))))
    return StochasticSignaling.from_rows(Partition.singletons(structure.space), signals, rows)


def _ceiling_signalings(rng, structure, tau):
    """The game's own signaling, a garbling that merges its two signals on
    half of t2's mass, a foreign kernel on the singletons, and another
    kernel on the singletons that sends the game's own signal names, so that
    a cell's truthful first leaf can exist without being its optimum."""
    merged = merge_garbled(tau, {"t1": {"g1": "1"}, "t2": {"g1": "1/2", "g2": "1/2"}})
    foreign = _singleton_kernel(rng, structure, ("f1", "f2"))
    return tau, merged, foreign, _singleton_kernel(rng, structure, ("t1", "t2"))


def _scan_size(structure, game, evaluation):
    """Joint declarations the unsplit brute force scans under ``evaluation``."""
    size = 1
    for menu, pairs in zip(game.menus, reachable_pairs(structure, evaluation)):
        size *= (1 + len(game.tau.signals) * len(menu)) ** len(pairs)
    return size


def _naive_ceiling(structure, game, evaluation):
    states = structure.space.states
    return oracles.naive_max_aggregate(
        states,
        dict(zip(states, structure.prior.vector)),
        {w: dict(zip(game.tau.signals, game.tau.row(w))) for w in states},
        {w: dict(zip(evaluation.signals, evaluation.row(w))) for w in states},
        [list(p.blocks) for p in structure.players],
        game.M,
    )


def _truthful_everywhere(structure, tau, evaluation):
    """Whether every (block, signal) pair the evaluation reaches is one the
    game's own signaling reaches, so that every cell has a truthful first
    leaf.  A case that also ends below -n reaches a first leaf that is not
    the optimum."""
    own = reachable_pairs(structure, tau)
    return all(set(p) <= set(q) for p, q in zip(reachable_pairs(structure, evaluation), own))


def test_two_stage_ceiling_matches_the_unsplit_brute_force():
    # Only cases whose unsplit scan covers at most 1,500 joint declarations
    # under every signaling are kept, so that the scan stays fast.
    rng = random.Random(47)
    kept = []
    for structure, tau in _small_two_stage_cases(rng, 100):
        game = TwoStageGame(structure, tau)
        signalings = _ceiling_signalings(rng, structure, tau)
        if max(_scan_size(structure, game, t) for t in signalings) <= 1500:
            kept.append((structure, tau, game, signalings))
    assert len(kept) >= 5
    below = truthful_below = 0
    for structure, tau, game, signalings in kept:
        for evaluation in signalings:
            expected = _naive_ceiling(structure, game, evaluation)
            assert game.max_aggregate(evaluation) == expected
            below += expected < -structure.n
            truthful_below += expected < -structure.n and _truthful_everywhere(
                structure, tau, evaluation
            )
        assert game.max_aggregate(tau) == -structure.n
    assert below > 0 and truthful_below > 0


def test_two_stage_ceiling_matches_the_unsplit_brute_force_for_three_players():
    # With three players the cross-player share 2/(n-1) is 1, not 2, so a
    # wrong share factor in the closed-form leaf or bound shows here.  Only
    # (case, signaling) pairs whose unsplit scan stays at most 1,500 joint
    # declarations are checked.
    rng = random.Random(48)
    checked = below = truthful_below = 0
    for structure, tau in _small_two_stage_cases(rng, 60, n=3):
        game = TwoStageGame(structure, tau)
        for evaluation in _ceiling_signalings(rng, structure, tau):
            if _scan_size(structure, game, evaluation) > 1500:
                continue
            expected = _naive_ceiling(structure, game, evaluation)
            assert game.max_aggregate(evaluation) == expected
            checked += 1
            below += expected < -structure.n
            truthful_below += expected < -structure.n and _truthful_everywhere(
                structure, tau, evaluation
            )
    assert checked >= 10 and below > 0 and truthful_below > 0


def test_two_stage_leaf_value_alone_gives_the_unsplit_brute_force(monkeypatch):
    # Every leaf of every cell is valued, with no cut and no first leaf, so a
    # leaf value that settles an opt-out, a disagreement on the signal or an
    # infeasible profile shows against the brute force; each leaf also stays
    # within the sum of its branches' bounds.
    from oraclegames import games

    def every_leaf(structure, tau, sizes, bounds, value, cap, first=None, floor=None):
        total = Fraction(0)
        for _, positioned, slots, scale in games._cells(structure, tau):
            values = []
            for leaf in itertools.product(*(range(sizes[i]) for i, _ in slots)):
                values.append(value(positioned, slots, leaf))
                fixed = [(s, w, tuple(leaf[k] for k in at)) for s, w, at in positioned]
                assert values[-1] <= sum(w * bounds(s).get(f, floor) for s, w, f in fixed)
            total += Fraction(max(values), scale)
        return total

    monkeypatch.setattr(games, "_cellwise_max", every_leaf)
    rng = random.Random(49)
    cases = _small_two_stage_cases(rng, 30) + _small_two_stage_cases(rng, 20, n=3)
    checked = below = 0
    for structure, tau in cases:
        game = TwoStageGame(structure, tau)
        for evaluation in _ceiling_signalings(rng, structure, tau):
            if _scan_size(structure, game, evaluation) > 1500:
                continue
            expected = _naive_ceiling(structure, game, evaluation)
            assert game.max_aggregate(evaluation) == expected
            checked += 1
            below += expected < -structure.n
    assert checked >= 20 and below > 0


def test_cells_scale_the_fraction_masses_by_each_cells_lcm():
    # A reference from Fraction masses prior(w) * tau(s|w): each cell's
    # scale is the lcm of its masses' denominators, and each positioned
    # mass is its Fraction mass times that scale.
    from oraclegames import games

    for game, tau, (states, prior, kernel, _) in _unlike_denominator_cases(random.Random(79), 12):
        branches = set()
        for signal, positioned, _, scale in games._cells(game.structure, tau):
            masses = [prior[w] * kernel[w][signal] for w, _, _ in positioned]
            assert scale == math.lcm(*(m.denominator for m in masses))
            assert [m for _, m, _ in positioned] == [m * scale for m in masses]
            branches.update((w, signal) for w, _, _ in positioned)
        assert branches == {(w, s) for w in states for s, p in kernel[w].items() if p}


def _count_valued_leaves(monkeypatch, first_leaf=True):
    """A list that collects every leaf ``games._cellwise_max`` values; with
    ``first_leaf`` false the search gets no first leaf, so only its bound cuts."""
    from oraclegames import games

    valued = []
    cellwise_max = games._cellwise_max

    def counting(structure, tau, sizes, bounds, value, cap, first=None, floor=None):
        def counted(positioned, slots, leaf):
            valued.append(leaf)
            return value(positioned, slots, leaf)

        first = first if first_leaf else None
        return cellwise_max(structure, tau, sizes, bounds, counted, cap, first, floor)

    monkeypatch.setattr(games, "_cellwise_max", counting)
    return valued


def test_two_stage_ceiling_cuts_every_subtree_with_an_unsettled_branch(monkeypatch):
    from oraclegames import games

    valued = _count_valued_leaves(monkeypatch, first_leaf=False)
    # Truthful declarations settle every branch, and any subtree that fixes
    # an opt-out or a mismatch is worth at most -M, far below them; the walk
    # starts with no first leaf, so only that bound cuts.
    rng = random.Random(5)
    combos = 0
    for structure, tau in _small_two_stage_cases(rng, 12):
        game = TwoStageGame(structure, tau)
        for _, _, slots, _ in games._cells(structure, tau):
            size = 1
            for i, _ in slots:
                size *= 1 + len(tau.signals) * len(game.menus[i])
            combos += size
        assert game.max_aggregate(tau) == -structure.n
    assert combos > 9000 and len(valued) * 20 < combos


def test_two_stage_ceiling_values_one_leaf_per_cell_under_its_own_signaling(monkeypatch):
    from oraclegames import games

    valued = _count_valued_leaves(monkeypatch)
    # The truthful first leaf pays -n per unit of mass, the bound of its
    # cell, so every other subtree is cut at once.
    rng = random.Random(71)
    cases = _small_two_stage_cases(rng, 16) + _small_two_stage_cases(rng, 8, n=3)
    for structure, tau in cases:
        game = TwoStageGame(structure, tau)
        valued.clear()
        assert game.max_aggregate(tau) == -structure.n
        assert len(valued) == len(list(games._cells(structure, tau)))


def _cycle(n):
    """Two players on an n-state cycle, uniform prior: A's blocks {w0,w1},
    {w2,w3}, ... and B's {w1,w2}, ..., {w(n-1),w0} link every state into
    one common-knowledge component."""
    space = StateSpace(tuple(f"w{j}" for j in range(n)))
    w = space.states
    a = Partition(space, tuple(w[j : j + 2] for j in range(0, n, 2)))
    b = Partition(space, tuple((w[j], w[(j + 1) % n]) for j in range(1, n, 2)))
    return InformationStructure(space, Prior.uniform(space), ("A", "B"), (a, b))


@pytest.mark.parametrize("n", [8, 10, 12])
def test_two_stage_ceiling_of_a_cycle_admits_few_slots(n):
    # Without a first leaf and with a bound of -1 per point mass only, the
    # 8-state cycle took seconds and the 10-state one did not finish.
    structure = _cycle(n)
    tau = _singleton_kernel(random.Random(n), structure, ("t1", "t2"))
    game = TwoStageGame(structure, tau)
    start = time.perf_counter()
    assert game.max_aggregate(tau, cap=n) == -2
    assert time.perf_counter() - start < 1


def test_best_common_payoff_refuses_a_large_cycle_at_the_cap():
    from oraclegames.games import DEFAULT_SEARCH_CAP

    # 24 states and 3 actions per player: the search without a cap took 36 s.
    structure = _cycle(24)
    rng = random.Random(0)
    actions = (("a", "b", "c"),) * 2
    payoffs = {}
    for state in structure.space.states:
        for profile in itertools.product(*actions):
            v = Fraction(rng.randint(0, 9))
            payoffs[(state, profile)] = (v, v)
    game = BayesianGame(structure, actions, payoffs)
    tau = _uninformative(structure)
    with pytest.raises(ResourceLimitError) as info:
        best_common_payoff(game, tau)
    cap = DEFAULT_SEARCH_CAP
    assert f"{cap + 1} admitted search slots exceed the cap of {cap}" in str(info.value)
    with pytest.raises(ResourceLimitError, match="exceed the cap of 100$"):
        best_common_payoff(game, tau, cap=100)


def _captured_bounds(monkeypatch):
    """A list that collects the (sizes, bounds, floor) of every
    ``games._cellwise_max`` call, which still runs as before."""
    from oraclegames import games

    calls = []
    cellwise_max = games._cellwise_max

    def capturing(structure, tau, sizes, bounds, value, cap, first=None, floor=None):
        calls.append((sizes, bounds, floor))
        return cellwise_max(structure, tau, sizes, bounds, value, cap, first, floor)

    monkeypatch.setattr(games, "_cellwise_max", capturing)
    return calls


def _check_prefix_table(bounds, floor, state, expected):
    """The state's ``_prefix_bounds`` table, read as the walk reads it, and
    its root bound equal ``expected`` at every prefix."""
    from oraclegames import games

    full = bounds(state)
    table = games._prefix_bounds(full)
    assert set(table) <= set(expected)
    assert {p: table.get(p, floor) for p in expected} == expected
    assert max(full.values(), default=floor) == expected[()]


def test_prefix_bounds_are_the_best_of_their_full_extensions(monkeypatch):
    calls = _captured_bounds(monkeypatch)
    players = set()
    for game, tau in _search_cases(random.Random(89), 6):
        common = _common_payoff_game(game)
        scale = math.lcm(*(v[0].denominator for v in common.payoffs.values()))
        calls.clear()
        best_common_payoff(common, tau)
        [(sizes, bounds, floor)] = calls
        assert list(sizes) == [len(actions) for actions in common.actions]
        for state in common.structure.space.states:

            def payoff(at):
                labels = tuple(common.actions[i][o] for i, o in enumerate(at))
                return common.payoffs[(state, labels)][0] * scale

            expected = oracles.naive_prefix_bounds(sizes, payoff, max, None)
            _check_prefix_table(bounds, floor, state, expected)
        players.add(common.structure.n)
    assert players == {2, 3}

    rng = random.Random(91)
    unmatched = 0
    for structure, tau in _small_two_stage_cases(rng, 6) + _small_two_stage_cases(rng, 3, n=3):
        game = TwoStageGame(structure, tau)
        n = structure.n
        options = [list(dict.fromkeys(o[:2] for o in actions)) for actions in game.actions]
        calls.clear()
        game.max_aggregate(_ceiling_signalings(rng, structure, tau)[1])
        [(sizes, bounds, floor)] = calls
        assert list(sizes) == list(map(len, options))
        unit = (game.M * n).denominator  # the walk's integer unit
        assert floor == -game.M * n * unit
        for state in structure.space.states:

            def cost(at):
                # 2 per declared posterior that misses the state, else 1.
                settled = game._settled.get(tuple(options[i][o] for i, o in enumerate(at)))
                if settled is not None:
                    return sum(2 if d.of(state) == 0 else 1 for d in settled)

            least = oracles.naive_prefix_bounds(sizes, cost, min, None)
            expected = {p: floor if c is None else -c * unit for p, c in least.items()}
            unmatched += None in least.values()
            _check_prefix_table(bounds, floor, state, expected)
    assert unmatched > 0


# The least cap each seeded pruned search accepts, which is the number of
# slots it admits: the common-payoff games of ``_search_cases(Random(89), 8)``,
# then per two-stage case of ``Random(93)`` the ceiling under each of
# ``_ceiling_signalings``.  The game's own signaling admits none, as its
# truthful first leaf meets every cell's bound.
ADMITTED_COMMON = [30, 34, 12, 27, 19, 26, 34, 14]
ADMITTED_STAGE = [
    [0, 18, 22, 10],
    [0, 184, 167, 11],
    [0, 14, 20, 8],
    [0, 38, 84, 30],
    [0, 11, 30, 21],
    [0, 56, 74, 0],
    [0, 90, 24, 36],
    [0, 49, 37, 131],
    [0, 28, 47, 14],
]


def _accepts_exactly(evaluate, count):
    assert evaluate(count) is not None
    if count:
        with pytest.raises(ResourceLimitError) as info:
            evaluate(count - 1)
        assert str(info.value) == f"{count} admitted search slots exceed the cap of {count - 1}"


def test_pruned_searches_admit_the_pinned_slot_counts():
    cases = _search_cases(random.Random(89), 8)
    for (game, tau), count in zip(cases, ADMITTED_COMMON, strict=True):
        common = _common_payoff_game(game)
        _accepts_exactly(lambda cap: best_common_payoff(common, tau, cap=cap), count)
    rng = random.Random(93)
    cases = _small_two_stage_cases(rng, 6) + _small_two_stage_cases(rng, 3, n=3)
    for (structure, tau), counts in zip(cases, ADMITTED_STAGE, strict=True):
        game = TwoStageGame(structure, tau)
        signalings = _ceiling_signalings(rng, structure, tau)
        for evaluation, count in zip(signalings, counts, strict=True):
            _accepts_exactly(lambda cap: game.max_aggregate(evaluation, cap=cap), count)
