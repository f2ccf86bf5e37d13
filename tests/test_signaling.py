"""Signaling kernels, posteriors, atlases, experiment matrices, garbling
lifts and merges, the separating construction, and proportionality."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oraclegames import (
    DeterministicSignaling,
    DomainError,
    InformationStructure,
    InputError,
    Partition,
    Prior,
    StateSpace,
    StochasticSignaling,
    as_stochastic,
    atlas_equal,
    build_kld_game,
    det_posterior,
    experiment_matrix,
    lift_garbled,
    matrix_from_json,
    merge_garbled,
    post_equal,
    post_included,
    posterior_atlas,
    proportional_decompose,
    reachable_pairs,
    separating_strategy,
    signaling_from_json,
    stoch_posterior,
)

SPACE = StateSpace(("w1", "w2", "w3", "w4"))
PRIOR = Prior.uniform(SPACE)
P1 = Partition(SPACE, (("w1", "w2"), ("w3", "w4")))
P2 = Partition(SPACE, (("w1",), ("w2", "w3"), ("w4",)))
ORACLE = Partition.singletons(SPACE)
STRUCTURE = InformationStructure(
    SPACE, PRIOR, ("P1", "P2"), (P1, P2), ("F",), (ORACLE,)
)

TAU = StochasticSignaling(
    ORACLE,
    ("s1", "s2"),
    (
        (Fraction(1, 3), Fraction(2, 3)),
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 4), Fraction(3, 4)),
        (Fraction(1, 5), Fraction(4, 5)),
    ),
)


def test_kernel_validation():
    with pytest.raises(InputError):
        StochasticSignaling(ORACLE, ("s1",), ((Fraction(1, 2),),) * 4)
    with pytest.raises(InputError):
        StochasticSignaling(
            ORACLE,
            ("s1", "s2"),
            ((Fraction(-1, 2), Fraction(3, 2)),) * 4,
        )
    with pytest.raises(InputError):
        StochasticSignaling(ORACLE, ("s1", "s1"), ((Fraction(1, 2), Fraction(1, 2)),) * 4)
    with pytest.raises(InputError):
        StochasticSignaling(ORACLE, ("s|1",), ((Fraction(1),),) * 4)


def test_kernel_measurability_enforced():
    coarse = Partition(SPACE, (("w1", "w2"), ("w3", "w4")))
    rows = (
        (Fraction(1, 3), Fraction(2, 3)),
        (Fraction(1, 2), Fraction(1, 2)),  # differs from w1 inside the block
        (Fraction(1, 4), Fraction(3, 4)),
        (Fraction(1, 4), Fraction(3, 4)),
    )
    with pytest.raises(InputError):
        StochasticSignaling(coarse, ("s1", "s2"), rows)


def test_zero_probability_signals_are_trimmed():
    tau = StochasticSignaling(
        ORACLE,
        ("s1", "dead", "s2"),
        (
            (Fraction(1, 2), Fraction(0), Fraction(1, 2)),
            (Fraction(1, 3), Fraction(0), Fraction(2, 3)),
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1)),
        ),
    )
    assert tau.signals == ("s1", "s2")
    assert tau.prob("w3", "s1") == 1
    with pytest.raises(InputError):
        tau.signal_index("dead")


def test_from_rows_fills_missing_entries_with_zero():
    tau = StochasticSignaling.from_rows(
        ORACLE,
        ("s1", "s2"),
        {
            "w1": {"s1": "1"},
            "w2": {"s2": "1"},
            "w3": {"s1": "1/2", "s2": "1/2"},
            "w4": {"s2": "1"},
        },
    )
    assert tau.prob("w1", "s2") == 0
    assert tau.prob("w3", "s2") == Fraction(1, 2)
    with pytest.raises(InputError):
        StochasticSignaling.from_rows(ORACLE, ("s1",), {"w1": {"s1": "1"}})


def test_deterministic_signaling_basics():
    det = DeterministicSignaling(P1, ("hi", "lo"))
    assert det.signal_at("w2") == "hi"
    assert det.signals == ("hi", "lo")
    assert det.induced_partition() == P1
    merged = DeterministicSignaling(P2, ("x", "y", "x"))
    assert merged.signals == ("x", "y")
    assert merged.induced_partition() == Partition(
        SPACE, (("w1", "w4"), ("w2", "w3"))
    )
    stoch = det.as_stochastic()
    assert stoch.prob("w1", "hi") == 1 and stoch.prob("w1", "lo") == 0
    with pytest.raises(InputError):
        DeterministicSignaling(P1, ("only",) * 3)


def test_stoch_posterior_matches_oracle():
    prior_map = {s: PRIOR.of(s) for s in SPACE}
    kernel_map = {
        s: {sig: TAU.prob(s, sig) for sig in TAU.signals} for s in SPACE
    }
    for player, partition in ((0, P1), (1, P2)):
        for omega in SPACE:
            for sig in TAU.signals:
                expected = oracles.naive_posterior(
                    prior_map, kernel_map, partition.block_of(omega), SPACE.states, sig
                )
                actual = stoch_posterior(STRUCTURE, player, TAU, omega, sig)
                assert actual.vector == expected


def test_stoch_posterior_rejects_impossible_signal():
    tau = StochasticSignaling.from_rows(
        ORACLE,
        ("s1", "s2"),
        {"w1": {"s1": 1}, "w2": {"s2": 1}, "w3": {"s2": 1}, "w4": {"s2": 1}},
    )
    with pytest.raises(DomainError):
        stoch_posterior(STRUCTURE, 0, tau, "w1", "s2")


def test_det_posterior_agrees_with_stochastic_embedding():
    det = DeterministicSignaling(P1, ("hi", "lo"))
    emb = det.as_stochastic()
    for omega in SPACE:
        direct = det_posterior(STRUCTURE, 1, det, omega)
        embedded = stoch_posterior(STRUCTURE, 1, emb, omega, det.signal_at(omega))
        assert direct == embedded


def test_atlas_weights_and_martingale_property():
    atlas = posterior_atlas(STRUCTURE, TAU)
    assert sum(atlas.entries.values()) == 1
    for i in range(STRUCTURE.n):
        mixed = [Fraction(0)] * len(SPACE)
        for profile, w in atlas.entries.items():
            for j, v in enumerate(profile.per_player[i].vector):
                mixed[j] += w * v
        assert tuple(mixed) == PRIOR.vector  # posteriors average back to the prior


def test_atlas_rejects_a_signaling_over_another_state_space():
    three = StateSpace(("w1", "w2", "w3"))
    trivial = Partition.trivial(three)
    structure = InformationStructure(
        three, Prior.uniform(three), ("P1", "P2"), (trivial, trivial)
    )
    for build in (posterior_atlas, build_kld_game, reachable_pairs):
        with pytest.raises(DomainError, match="different state spaces"):
            build(structure, TAU)


def test_player_menu_is_sorted_and_deduplicated():
    atlas = posterior_atlas(STRUCTURE, TAU)
    for i in range(STRUCTURE.n):
        menu = atlas.player_menu(i)
        assert len(set(menu)) == len(menu)
        assert list(menu) == sorted(menu, key=lambda d: d.vector)


def test_atlas_unchanged_by_lift_garbling():
    m = {
        "s1": {"t1": "1/2", "t2": "1/2"},
        "s2": {"t1": "1/3", "t2": "2/3"},
    }
    lifted = lift_garbled(TAU, m)
    assert atlas_equal(
        posterior_atlas(STRUCTURE, TAU), posterior_atlas(STRUCTURE, lifted)
    )
    assert post_equal(
        posterior_atlas(STRUCTURE, TAU), posterior_atlas(STRUCTURE, lifted)
    )


def test_lift_garbled_kernel_and_errors():
    m = {"s1": {"t1": "1/2", "t2": "1/2"}, "s2": {"t2": "1"}}
    lifted = lift_garbled(TAU, m)
    assert lifted.prob("w1", "(s1,t1)") == Fraction(1, 6)
    assert lifted.prob("w1", "(s2,t2)") == Fraction(2, 3)
    with pytest.raises(DomainError):
        lift_garbled(TAU, {"s1": {"t1": "1"}})  # missing row for s2
    with pytest.raises(DomainError):
        lift_garbled(TAU, {"s1": {"t1": "1/2"}, "s2": {"t1": "1"}})  # row sums


@pytest.mark.parametrize("garble", [lift_garbled, merge_garbled])
def test_garblers_reject_bad_rows(garble):
    with pytest.raises(DomainError, match="missing a row"):
        garble(TAU, {"s1": {"t1": "1"}})
    with pytest.raises(DomainError, match="not a distribution"):
        garble(TAU, {"s1": {"t1": "1/2"}, "s2": {"t1": "1"}})
    with pytest.raises(DomainError, match="not a distribution"):
        garble(TAU, {"s1": {"t1": "3/2", "t2": "-1/2"}, "s2": {"t1": "1"}})


def test_merge_garbled_kernel_is_the_column_mixture():
    m = {"s1": {"t1": "1/2", "t2": "1/2"}, "s2": {"t1": "1/3", "t2": "2/3"}}
    merged = merge_garbled(TAU, m)
    assert merged.signals == ("t1", "t2")
    for state in SPACE:
        for t in merged.signals:
            expected = sum(
                (
                    Fraction(m[s][t]) * TAU.prob(state, s)
                    for s in TAU.signals
                ),
                Fraction(0),
            )
            assert merged.prob(state, t) == expected


def test_merge_garbled_identity_and_coarsening():
    identity = {"s1": {"s1": "1"}, "s2": {"s2": "1"}}
    assert merge_garbled(TAU, identity).kernel == TAU.kernel
    # Merging everything into one signal leaves no information at all.
    collapse = {"s1": {"t": "1"}, "s2": {"t": "1"}}
    merged = merge_garbled(TAU, collapse)
    atlas = posterior_atlas(STRUCTURE, merged)
    assert post_included(atlas, posterior_atlas(STRUCTURE, TAU)) is False
    assert len(atlas) == len(
        {(P1.block_of(s), P2.block_of(s)) for s in SPACE}
    )


def test_experiment_matrix_recovers_kernel_and_block_support():
    matrix = experiment_matrix(TAU, P1, PRIOR)
    for state in SPACE:
        row = matrix.row(state)
        assert sum(row) == 1
        # Summing out the block coordinate recovers the kernel.
        for sig in TAU.signals:
            mass = sum(
                (
                    v
                    for (s, _), v in zip(matrix.columns, row)
                    if s == sig
                ),
                Fraction(0),
            )
            assert mass == TAU.prob(state, sig)
        for (sig, label), v in zip(matrix.columns, row):
            block = dict(matrix.blocks)[label]
            if v > 0:
                assert state in block


def test_experiment_matrix_trivial_partition_is_the_kernel():
    matrix = experiment_matrix(TAU, Partition.trivial(SPACE))
    for state in SPACE:
        assert matrix.row(state) == TAU.row(state)


def test_experiment_matrix_space_mismatch():
    other = Partition.trivial(StateSpace(("x", "y")))
    with pytest.raises(DomainError):
        experiment_matrix(TAU, other)


def test_separating_strategy_small_block_counts():
    assert separating_strategy(Partition.trivial(SPACE)).column("s1") == (
        Fraction(1, 3),
    ) * 4
    two = separating_strategy(P1)
    assert two.prob("w1", "s1") == Fraction(1, 3)
    assert two.prob("w3", "s1") == Fraction(1, 5)
    assert two.fully_supported()


@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_separating_strategy_ratio_fingerprints(blocks):
    states = tuple(f"s{i}" for i in range(blocks))
    space = StateSpace(states)
    tau = separating_strategy(Partition.singletons(space))
    values = []
    for state in states:
        values.extend((tau.prob(state, "s1"), tau.prob(state, "s2")))
    assert len(set(values)) == len(values)
    ratios = [
        x / y for i, x in enumerate(values) for j, y in enumerate(values) if i != j
    ]
    assert len(set(ratios)) == len(ratios)


def test_separating_strategy_matches_the_exhaustive_check():
    def exhaustive(m):
        chosen, k = [], 1
        while len(chosen) < m:
            candidate = Fraction(1, 2 * k + 1)
            k += 1
            values = [v for p in chosen + [candidate] for v in (p, 1 - p)]
            ratios = [
                x / y for i, x in enumerate(values) for j, y in enumerate(values) if i != j
            ]
            if len(set(values)) == len(values) and len(set(ratios)) == len(ratios):
                chosen.append(candidate)
        return chosen

    space = StateSpace(tuple(f"s{i}" for i in range(12)))
    tau = separating_strategy(Partition.singletons(space))
    assert list(tau.column("s1")) == exhaustive(12)


def test_proportional_decompose_identity_and_scaling():
    out = proportional_decompose(TAU, TAU)
    assert out == {"s1": ("s1", Fraction(1)), "s2": ("s2", Fraction(1))}


def test_proportional_decompose_on_zero_one_lift():
    m = {"s1": {"t1": "1"}, "s2": {"t2": "1"}}
    lifted = lift_garbled(TAU, m)
    out = proportional_decompose(lifted, TAU)
    assert out == {
        "(s1,t1)": ("s1", Fraction(1)),
        "(s2,t2)": ("s2", Fraction(1)),
    }


def test_proportional_decompose_reports_failures():
    other = StochasticSignaling.from_rows(
        ORACLE,
        ("t1", "t2"),
        {
            "w1": {"t1": "1/2", "t2": "1/2"},
            "w2": {"t1": "1/2", "t2": "1/2"},
            "w3": {"t1": "1/2", "t2": "1/2"},
            "w4": {"t1": "1", "t2": "0"},
        },
    )
    out = proportional_decompose(other, TAU)
    assert out["t1"] is None and out["t2"] is None


def test_proportional_decompose_requires_full_support():
    partial = StochasticSignaling.from_rows(
        ORACLE,
        ("s1", "s2"),
        {"w1": {"s1": 1}, "w2": {"s2": 1}, "w3": {"s2": 1}, "w4": {"s2": 1}},
    )
    with pytest.raises(DomainError):
        proportional_decompose(TAU, partial)


def test_signaling_from_json_variants():
    stoch = signaling_from_json(
        STRUCTURE,
        {
            "oracle": "F",
            "type": "stochastic",
            "signals": ["s1", "s2"],
            "kernel": {s: {"s1": "1/2", "s2": "1/2"} for s in SPACE.states},
        },
    )
    assert isinstance(stoch, StochasticSignaling)
    det = signaling_from_json(
        STRUCTURE,
        {
            "partition": [["w1", "w2"], ["w3", "w4"]],
            "type": "deterministic",
            "assignment": {"block0": "hi", "block1": "lo"},
        },
    )
    assert isinstance(det, DeterministicSignaling)
    assert det.signal_at("w4") == "lo"
    with pytest.raises(InputError):
        signaling_from_json(STRUCTURE, {"oracle": "F", "type": "nope"})
    with pytest.raises(InputError):
        signaling_from_json(STRUCTURE, {"type": "stochastic"})


def test_matrix_from_json_round_trip():
    matrix = experiment_matrix(TAU, P1)
    again = matrix_from_json(matrix.as_json())
    assert again.entries == matrix.entries
    assert again.column_labels == matrix.column_labels
    plain = matrix_from_json(
        {
            "states": ["x", "y"],
            "columns": ["c1", "c2"],
            "entries": {"x": ["1", "0"], "y": ["1/2", "1/2"]},
        }
    )
    assert plain.row("y") == (Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(InputError):
        matrix_from_json({"states": ["x"], "columns": ["c"]})


@st.composite
def random_signaling(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    states = tuple(f"w{i}" for i in range(n))
    space = StateSpace(states)
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    prior_nums = [rng.randint(1, 5) for _ in states]
    prior = Prior(space, tuple(Fraction(k, sum(prior_nums)) for k in prior_nums))
    blocks = rng.choice(oracles.all_partitions(states))
    partition = Partition(space, blocks)
    k = rng.randint(1, 3)
    kernel_rows = {}
    for block in blocks:
        nums = [rng.randint(0, 4) for _ in range(k)]
        if sum(nums) == 0:
            nums[rng.randrange(k)] = 1
        total = sum(nums)
        row = {f"s{j}": Fraction(nums[j], total) for j in range(k)}
        for state in block:
            kernel_rows[state] = row
    tau = StochasticSignaling.from_rows(
        partition, tuple(f"s{j}" for j in range(k)), kernel_rows
    )
    players = (
        Partition(space, rng.choice(oracles.all_partitions(states))),
        Partition(space, rng.choice(oracles.all_partitions(states))),
    )
    structure = InformationStructure(space, prior, ("A", "B"), players)
    return structure, tau


@settings(derandomize=True, max_examples=60, deadline=None)
@given(random_signaling())
def test_atlas_invariants_on_random_signalings(case):
    structure, tau = case
    atlas = posterior_atlas(structure, tau)
    assert sum(atlas.entries.values()) == 1
    for profile in atlas.profiles():
        for i, dist in enumerate(profile.per_player):
            assert sum(dist.vector) == 1
    # Posterior supports stay inside the player's block.
    stoch = as_stochastic(tau)
    for omega in structure.space:
        for sig in stoch.signals:
            if stoch.prob(omega, sig) == 0:
                continue
            for i in range(structure.n):
                post = stoch_posterior(structure, i, stoch, omega, sig)
                block = structure.players[i].block_of(omega)
                assert set(post.support()) <= set(block)
