"""Acceptance gate: eleven exact criteria covering the golden examples and
the structural invariants of the library.

Every comparison is exact rational or structural equality; there are no
tolerances anywhere.  Each criterion prints one visible PASS line when its
checks all hold.
"""

import functools
import itertools
import random
from fractions import Fraction

import oracles
from oraclegames import (
    BeliefGame,
    Distribution,
    InformationStructure,
    Partition,
    Prior,
    StateSpace,
    StochasticMatrix,
    StochasticSignaling,
    TwoStageGame,
    apply_garbling,
    belief_aggregate,
    belief_best_response,
    belief_expected_payoffs,
    belief_is_equilibrium,
    best_common_payoff,
    build_kld_game,
    ckc_decompose,
    coarsenings,
    experiment_matrix,
    expected_payoffs,
    game_from_json,
    garbling_exists,
    harness,
    is_equilibrium,
    is_imi,
    join,
    lift_garbled,
    log_score,
    log_score_argmax,
    posterior_atlas,
    post_included,
    proportional_decompose,
    refines,
    separating_strategy,
    set_partitions,
    signaling_from_json,
    stoch_posterior,
    strategy_from_json,
    structure_from_json,
    truthful_choices,
    two_sided_imi_equal,
)


def _fixture(name):
    data = harness.load_fixture(name)
    return data, structure_from_json(data["structure"])


def _signaling(data, structure, name):
    return signaling_from_json(structure, data["signalings"][name])


def _passed(capsys, number, text):
    with capsys.disabled():
        print(f"PASS criterion {number}: {text}")


# ---------------------------------------------------------------------------
# Shared exhaustive sweep: every 2-player structure with <=4 states whose
# common-knowledge decomposition is a single component, crossed with every
# ordered pair of oracle partitions.


@functools.lru_cache(maxsize=None)
def _lattice(n):
    space = StateSpace(tuple(f"x{i}" for i in range(n)))
    prior = Prior.uniform(space)
    parts = tuple(Partition(space, blocks) for blocks in set_partitions(space.states))
    return space, prior, parts


@functools.lru_cache(maxsize=None)
def _unique_ckc_pairs(n):
    _, _, parts = _lattice(n)
    return tuple(
        (p1, p2)
        for p1 in parts
        for p2 in parts
        if len(ckc_decompose((p1, p2)).blocks) == 1
    )


def test_criterion_01(capsys):
    data, structure = _fixture("rock-concert")
    assert ckc_decompose(structure.players).blocks == (("n1", "n2", "s1", "s2"),)
    f1, f2 = structure.oracle("F1"), structure.oracle("F2")
    assert is_imi(structure, f1, f2).holds is True
    assert is_imi(structure, f2, f1).holds is False

    game = game_from_json(structure, data["games"]["concert"])
    guided_tau = _signaling(data, structure, "guided")
    guided = strategy_from_json(game, guided_tau, data["strategies"]["guided"]["players"])
    assert is_equilibrium(game, guided_tau, guided).holds
    assert expected_payoffs(game, guided_tau, guided, given_event=("n2", "s2")) == (
        Fraction(18),
        Fraction(9, 2),
    )

    full_tau = _signaling(data, structure, "full")
    full = strategy_from_json(game, full_tau, data["strategies"]["full"]["players"])
    assert expected_payoffs(game, full_tau, full) == (Fraction(10), Fraction(10))
    _passed(
        capsys,
        1,
        "rock-concert: single component, one-way informativeness, guided "
        "payoffs (18, 9/2) on {n2,s2}, full revelation (10, 10)",
    )


def test_criterion_02(capsys):
    data, structure = _fixture("one-dm")
    tau2 = _signaling(data, structure, "tau2")
    matrix = experiment_matrix(tau2, structure.players[0])
    assert matrix.row("w1") == (
        Fraction(0),
        Fraction(0),
        Fraction(1, 2),
        Fraction(0),
        Fraction(1, 2),
        Fraction(0),
    )
    assert matrix.columns == (
        ("s1", "b0"),
        ("s1", "b1"),
        ("s2", "b0"),
        ("s2", "b1"),
        ("s3", "b0"),
        ("s3", "b1"),
    )
    _passed(capsys, 2, "single decision maker: experiment-matrix row at w1 is "
                       "(0, 0, 1/2, 0, 1/2, 0)")


def test_criterion_03(capsys):
    data, structure = _fixture("stochastic-imi-fail")
    tau2 = _signaling(data, structure, "tau2")
    first = stoch_posterior(structure, 0, tau2, "w1", "s2")
    second = stoch_posterior(structure, 1, tau2, "w1", "s2")
    assert first.vector == (Fraction(2, 5), Fraction(3, 5), Fraction(0), Fraction(0))
    assert second.vector == (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    _passed(capsys, 3, "posteriors at (w1, s2) are exactly (2/5, 3/5, 0, 0) "
                       "and (1, 0, 0, 0)")


def test_criterion_04(capsys):
    checked = 0
    spot_checked = 0
    for n in (2, 3, 4):
        space, prior, parts = _lattice(n)
        join_cache = {}

        def joined(p, c):
            key = (p.blocks, c.blocks)
            found = join_cache.get(key)
            if found is None:
                found = join_cache[key] = join(p, c).blocks
            return found

        coarse = {f.blocks: coarsenings(f) for f in parts}
        for p1, p2 in _unique_ckc_pairs(n):
            profiles = {
                f.blocks: frozenset(
                    (joined(p1, c), joined(p2, c)) for c in coarse[f.blocks]
                )
                for f in parts
            }
            structure = InformationStructure(space, prior, ("A", "B"), (p1, p2))
            for f1 in parts:
                for f2 in parts:
                    two_sided = profiles[f1.blocks] == profiles[f2.blocks]
                    assert two_sided == (f1.blocks == f2.blocks), (p1, p2, f1, f2)
                    checked += 1
                    if checked % 97 == 0:
                        result = two_sided_imi_equal(structure, f1, f2)
                        assert result.equivalent == two_sided
                        assert result.forward.holds == (
                            profiles[f2.blocks] <= profiles[f1.blocks]
                        )
                        spot_checked += 1
    assert checked > 25000 and spot_checked > 100

    # Randomized sample at five states.
    rng = random.Random(404)
    space, prior, parts = _lattice(5)
    sampled = 0
    for _ in range(6):
        while True:
            p1, p2 = rng.choice(parts), rng.choice(parts)
            if len(ckc_decompose((p1, p2)).blocks) == 1:
                break
        structure = InformationStructure(space, prior, ("A", "B"), (p1, p2))
        picks = [(rng.choice(parts), rng.choice(parts)) for _ in range(12)]
        picks.extend((f, f) for f in rng.sample(parts, 3))
        for f1, f2 in picks:
            result = two_sided_imi_equal(structure, f1, f2)
            assert result.equivalent == (f1.blocks == f2.blocks)
            sampled += 1
    assert sampled >= 90
    _passed(
        capsys,
        4,
        f"two-sided individual informativeness equals partition equality on "
        f"{checked} exhaustive pairs plus {sampled} five-state samples, "
        f"zero violations",
    )


def test_criterion_05(capsys):
    refine_checked = 0
    separate_checked = 0
    for n in (2, 3, 4):
        space, prior, parts = _lattice(n)
        sep = {f.blocks: separating_strategy(f, prior) for f in parts}
        refines_memo = {}
        prop_memo = {}
        for p1, p2 in _unique_ckc_pairs(n):
            structure = InformationStructure(space, prior, ("A", "B"), (p1, p2))
            atlas_memo = {}
            for f1 in parts:
                for f2 in parts:
                    key = (f1.blocks, f2.blocks)
                    finer = refines_memo.get(key)
                    if finer is None:
                        finer = refines_memo[key] = refines(f1, f2)
                    tau2 = sep[f2.blocks]
                    if finer:
                        # The second oracle's strategy is measurable for the
                        # finer first oracle, and replaying the same kernel
                        # reproduces the posterior atlas exactly.
                        sigma = StochasticSignaling(f1, tau2.signals, tau2.kernel)
                        base = atlas_memo.get(f2.blocks)
                        if base is None:
                            base = atlas_memo[f2.blocks] = posterior_atlas(
                                structure, tau2
                            )
                        assert posterior_atlas(structure, sigma) == base
                        refine_checked += 1
                    else:
                        # Some block of the first oracle straddles blocks the
                        # separating strategy tells apart, so no measurable
                        # candidate can reproduce its columns...
                        straddled = any(
                            len(
                                {
                                    tuple(tau2.prob(s, t) for t in tau2.signals)
                                    for s in block
                                }
                            )
                            > 1
                            for block in f1.blocks
                        )
                        assert straddled
                        # ...and the proportionality test rejects every column.
                        result = prop_memo.get(key)
                        if result is None:
                            result = prop_memo[key] = proportional_decompose(
                                sep[f1.blocks], tau2
                            )
                        assert all(v is None for v in result.values())
                        separate_checked += 1
    assert refine_checked > 3000 and separate_checked > 15000
    _passed(
        capsys,
        5,
        f"refinement transfers the separating strategy with an identical "
        f"atlas ({refine_checked} pairs); otherwise every measurable column "
        f"fails proportionality ({separate_checked} pairs)",
    )


def _random_profile(rng, space, n):
    declared = []
    for _ in range(n):
        size = rng.randint(1, len(space))
        support = rng.sample(range(len(space)), size)
        nums = [0] * len(space)
        for j in support:
            nums[j] = rng.randint(1, 6)
        total = sum(nums)
        declared.append(Distribution(space, tuple(Fraction(k, total) for k in nums)))
    return tuple(declared)


def test_criterion_06(capsys):
    rng = random.Random(2026)
    truthful_runs = 0
    while truthful_runs < 110:
        n = rng.choice((2, 3))
        size = rng.randint(2, 4)
        space = StateSpace(tuple(f"s{i}" for i in range(size)))
        declared = _random_profile(rng, space, n)
        game = BeliefGame(space, declared)
        choices = truthful_choices(game)
        assert belief_expected_payoffs(game, declared, choices) == (Fraction(-1),) * n
        assert belief_is_equilibrium(game, declared, choices)
        truthful_runs += 1

    perturbed_runs = 0
    while perturbed_runs < 110:
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
        choices = tuple(belief_best_response(game, i, beliefs[i]) for i in range(n))
        assert belief_aggregate(game, beliefs, choices) < -n
        perturbed_runs += 1
    _passed(
        capsys,
        6,
        f"{truthful_runs} random truthful profiles pay exactly -1 per player "
        f"in equilibrium; {perturbed_runs} single-player perturbations "
        f"aggregate strictly below -n",
    )


def test_criterion_07(capsys):
    data, structure = _fixture("witness-two-stage")
    tau2 = _signaling(data, structure, "tau2")
    mimic = _signaling(data, structure, "tau1mimic")
    n = structure.n
    game = TwoStageGame(structure, tau2)
    truthful = game.truthful_strategy()
    assert expected_payoffs(game, tau2, truthful) == (Fraction(-1),) * n
    assert is_equilibrium(game, tau2, truthful).holds
    assert (
        post_included(
            posterior_atlas(structure, mimic), posterior_atlas(structure, tau2)
        )
        is False
    )
    assert game.max_aggregate(mimic) < Fraction(-n)
    _passed(
        capsys,
        7,
        "declaration game: truthful play under the evaluated strategy "
        "aggregates to exactly -n in equilibrium; the mimicking strategy "
        "cannot reach -n under any pure declarations",
    )


def test_criterion_08(capsys):
    strict_pairs = 0
    for name in harness.available_fixtures():
        data = harness.load_fixture(name)
        structure = structure_from_json(data["structure"])
        for sig_name in sorted(data.get("signalings", {})):
            tau = _signaling(data, structure, sig_name)
            for menu in build_kld_game(structure, tau).menus:
                for q in menu:
                    assert log_score_argmax(q, menu) == q
                    own = log_score(q, q)
                    for p in menu:
                        if p != q:
                            assert own > log_score(q, p)
                            strict_pairs += 1
    assert strict_pairs > 100
    _passed(
        capsys,
        8,
        f"log score is strictly proper on every fixture menu "
        f"({strict_pairs} exact strict comparisons)",
    )


def _random_stochastic_rows(rng, n_rows, n_cols):
    rows = []
    for _ in range(n_rows):
        nums = [rng.randint(0, 3) for _ in range(n_cols)]
        if sum(nums) == 0:
            nums[rng.randrange(n_cols)] = 1
        total = sum(nums)
        rows.append(tuple(Fraction(k, total) for k in nums))
    return rows


def test_criterion_09(capsys):
    rng = random.Random(909)
    for _ in range(100):
        n_states = rng.randint(2, 4)
        n_cols = rng.randint(2, 4)
        n_targets = rng.randint(1, 3)
        space = StateSpace(tuple(f"w{i}" for i in range(n_states)))
        base = StochasticMatrix(
            space,
            tuple(f"u{j}" for j in range(n_cols)),
            tuple(_random_stochastic_rows(rng, n_states, n_cols)),
        )
        g0 = _random_stochastic_rows(rng, n_cols, n_targets)
        product = tuple(
            tuple(
                sum((row[u] * g0[u][v] for u in range(n_cols)), Fraction(0))
                for v in range(n_targets)
            )
            for row in base.entries
        )
        target = StochasticMatrix(
            space, tuple(f"v{j}" for j in range(n_targets)), product
        )
        result = garbling_exists(base, target)
        assert result.exists and result.garbling is not None
        for row in result.garbling:
            assert all(x >= 0 for x in row) and sum(row) == 1
        recovered = apply_garbling(base, result.garbling, result.col_labels)
        assert recovered.entries == target.entries
        assert recovered.column_labels == target.column_labels

    # Hand-built infeasible pair: the base cannot tell the states apart, the
    # target does, so no garbling exists; the independent vertex-enumeration
    # oracle agrees that the defining linear system has no solution.
    space = StateSpace(("w1", "w2"))
    half = (Fraction(1, 2), Fraction(1, 2))
    base = StochasticMatrix(space, ("u1", "u2"), (half, half))
    target = StochasticMatrix(
        space,
        ("v1", "v2"),
        ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
    )
    assert garbling_exists(base, target).exists is False
    n_u, n_v = 2, 2
    a_rows, b_vals = [], []
    for i in range(len(space)):  # match every target entry
        for v in range(n_v):
            coeffs = [Fraction(0)] * (n_u * n_v)
            for u in range(n_u):
                coeffs[u * n_v + v] = base.entries[i][u]
            a_rows.append(coeffs)
            b_vals.append(target.entries[i][v])
    for u in range(n_u):  # each garbling row is a distribution
        coeffs = [Fraction(0)] * (n_u * n_v)
        for v in range(n_v):
            coeffs[u * n_v + v] = Fraction(1)
        a_rows.append(coeffs)
        b_vals.append(Fraction(1))
    assert oracles.feasible_nonneg_oracle(a_rows, b_vals) is None
    _passed(
        capsys,
        9,
        "garbling feasibility: 100 random composed kernels recovered with "
        "exact witnesses; the hand-built infeasible pair is rejected and "
        "confirmed by vertex enumeration",
    )


def _random_common_setup(rng):
    size = rng.randint(3, 4)
    states = tuple(f"s{i}" for i in range(size))
    space = StateSpace(states)
    nums = [rng.randint(1, 4) for _ in states]
    prior = Prior(space, tuple(Fraction(k, sum(nums)) for k in nums))
    small = [b for b in oracles.all_partitions(states) if len(b) <= 2]
    structure = InformationStructure(
        space,
        prior,
        ("A", "B"),
        (Partition(space, rng.choice(small)), Partition(space, rng.choice(small))),
    )
    oracle = Partition(space, rng.choice(small))
    rows = {}
    for block in oracle.blocks:
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        if a + b == 0:
            a = 1
        row = {"t1": Fraction(a, a + b), "t2": Fraction(b, a + b)}
        for state in block:
            rows[state] = row
    tau = StochasticSignaling.from_rows(oracle, ("t1", "t2"), rows)
    labels = tuple(f"a{j}" for j in range(rng.randint(2, 3)))
    payoffs = {}
    for state in space:
        for profile in itertools.product(labels, repeat=2):
            value = Fraction(rng.randint(-4, 6))
            payoffs[(state, profile)] = (value, value)
    from oraclegames import BayesianGame

    game = BayesianGame(structure, (labels, labels), payoffs)
    return game, tau


def test_criterion_10(capsys):
    rng = random.Random(1010)
    for _ in range(50):
        game, tau = _random_common_setup(rng)
        garble = {}
        for signal in tau.signals:
            a, b = rng.randint(0, 2), rng.randint(0, 2)
            if a + b == 0:
                b = 1
            garble[signal] = {
                "m1": Fraction(a, a + b),
                "m2": Fraction(b, a + b),
            }
        lifted = lift_garbled(tau, garble)
        assert best_common_payoff(game, tau) >= best_common_payoff(game, lifted)

    data, structure = _fixture("common-objective")
    game = game_from_json(structure, data["games"]["coord"])
    for oracle_name in ("F1", "F2"):
        base = structure.oracle(oracle_name)
        reveal = StochasticSignaling.from_assignment(
            base, [f"r{i}" for i in range(len(base.blocks))]
        )
        assert best_common_payoff(game, reveal) == Fraction(1)
    _passed(
        capsys,
        10,
        "coordination value never improves under garbled extensions "
        "(50 random triples); full revelation of either oracle attains 1",
    )


def test_criterion_11(capsys):
    compared = 0
    for n in range(1, 6):
        states = tuple(f"x{i}" for i in range(n))
        space = StateSpace(states)
        package = [Partition(space, b) for b in set_partitions(states)]
        naive = oracles.all_partitions(states)
        assert {oracles.canon(p.blocks) for p in package} == {
            oracles.canon(b) for b in naive
        }
        assert len(package) == oracles.bell(n)
        for p in package:
            ours = {oracles.canon(c.blocks) for c in coarsenings(p)}
            theirs = {
                oracles.canon(b) for b in oracles.naive_coarsenings(p.blocks)
            }
            assert ours == theirs
        for p, q in itertools.product(package, repeat=2):
            assert oracles.canon(join(p, q).blocks) == oracles.canon(
                oracles.naive_join(p.blocks, q.blocks)
            )
            assert oracles.canon(ckc_decompose((p, q)).blocks) == oracles.canon(
                oracles.naive_meet((p.blocks, q.blocks), states)
            )
            assert refines(p, q) == oracles.naive_refines(p.blocks, q.blocks)
            compared += 1
    assert compared == sum(oracles.bell(n) ** 2 for n in range(1, 6))
    _passed(
        capsys,
        11,
        f"join, meet, refinement and coarsenings agree with brute force on "
        f"all partitions of up to five states ({compared} pairs)",
    )
