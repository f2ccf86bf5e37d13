"""Signaling kernels, posteriors, atlases, experiment matrices, garbling
lifts and merges, the separating construction, and proportionality."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oraclegames import (
    Distribution,
    DomainError,
    InformationStructure,
    InputError,
    JointPosteriorProfile,
    Partition,
    Prior,
    StateSpace,
    StochasticSignaling,
    build_kld_game,
    build_permutation_game,
    det_posterior,
    experiment_matrix,
    harness,
    information_partition,
    lift_garbled,
    matrix_from_json,
    merge_garbled,
    post_included,
    posterior_atlas,
    proportional_decompose,
    reachable_pairs,
    separating_strategy,
    signaling_from_json,
    stoch_posterior,
    structure_from_json,
)
from oraclegames.signaling import posterior_menu

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
    det = StochasticSignaling.from_assignment(P1, ("hi", "lo"))
    assert det.prob("w2", "hi") == 1
    assert det.signals == ("hi", "lo")
    assert det.induced_partition() == P1
    merged = StochasticSignaling.from_assignment(P2, ("x", "y", "x"))
    assert merged.signals == ("x", "y")
    assert merged.induced_partition() == Partition(
        SPACE, (("w1", "w4"), ("w2", "w3"))
    )
    assert det.prob("w1", "hi") == 1 and det.prob("w1", "lo") == 0
    with pytest.raises(InputError, match="one signal per oracle block"):
        StochasticSignaling.from_assignment(P1, ("only",) * 3)
    with pytest.raises(InputError, match="nonempty strings"):
        StochasticSignaling.from_assignment(P1, ("hi", ""))


def test_deterministic_is_decided_by_the_kernel():
    """A 0/1 kernel is deterministic however it was built; a kernel with an
    interior entry has no induced partition."""
    rows = StochasticSignaling.from_rows(
        P1, ("hi", "lo"), {"w1": {"hi": 1}, "w2": {"hi": 1}, "w3": {"lo": 1}, "w4": {"lo": 1}}
    )
    det = StochasticSignaling.from_assignment(P1, ("hi", "lo"))
    assert rows == det
    assert rows.induced_partition() == det.induced_partition() == P1
    for omega in SPACE:
        assert det_posterior(STRUCTURE, 1, rows, omega) == det_posterior(STRUCTURE, 1, det, omega)
    assert (
        build_permutation_game(STRUCTURE, 1, rows).actions
        == build_permutation_game(STRUCTURE, 1, det).actions
    )
    for call in (
        lambda: TAU.induced_partition(),
        lambda: det_posterior(STRUCTURE, 0, TAU, "w1"),
        lambda: information_partition(STRUCTURE, 0, TAU),
    ):
        with pytest.raises(DomainError, match="deterministic information"):
            call()


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
    det = StochasticSignaling.from_assignment(P1, ("hi", "lo"))
    for omega in SPACE:
        direct = det_posterior(STRUCTURE, 1, det, omega)
        signal = "hi" if omega in ("w1", "w2") else "lo"
        assert direct == stoch_posterior(STRUCTURE, 1, det, omega, signal)


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


def test_posteriors_reject_a_signaling_over_another_state_space():
    """The same labels in reversed order are another state space: rows are
    not looked up by label across spaces."""
    reversed_space = StateSpace(tuple(reversed(SPACE.states)))
    foreign = StochasticSignaling.from_assignment(
        Partition.trivial(reversed_space), ["u0"]
    )
    for call in (
        lambda: stoch_posterior(STRUCTURE, 0, foreign, "w1", "u0"),
        lambda: det_posterior(STRUCTURE, 0, foreign, "w1"),
    ):
        with pytest.raises(DomainError, match="different state spaces"):
            call()


def test_player_menu_is_sorted_and_deduplicated():
    atlas = posterior_atlas(STRUCTURE, TAU)
    for i in range(STRUCTURE.n):
        menu = posterior_menu(p.per_player[i] for p in atlas.profiles())
        assert len(set(menu)) == len(menu)
        assert list(menu) == sorted(menu, key=lambda d: d.vector)


def test_atlas_unchanged_by_lift_garbling():
    m = {
        "s1": {"t1": "1/2", "t2": "1/2"},
        "s2": {"t1": "1/3", "t2": "2/3"},
    }
    lifted = lift_garbled(TAU, m)
    assert posterior_atlas(STRUCTURE, TAU) == posterior_atlas(STRUCTURE, lifted)
    before, after = posterior_atlas(STRUCTURE, TAU), posterior_atlas(STRUCTURE, lifted)
    assert post_included(before, after) and post_included(after, before)


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
    with pytest.raises(InputError, match="a garbling must be a JSON object"):
        garble(TAU, [["s1", "t1"]])
    with pytest.raises(InputError, match="garbling row for signal 's2' must be a JSON object"):
        garble(TAU, {"s1": {"t1": "1"}, "s2": ["t1", "1"]})


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
    trivial = separating_strategy(Partition.trivial(SPACE))
    assert [row[0] for row in trivial.kernel] == [Fraction(1, 3)] * 4
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
    assert [row[0] for row in tau.kernel] == exhaustive(12)


def test_separating_strategy_reuses_one_scan_for_every_block_count():
    expected = oracles.separating_probabilities(32)
    for m in (32, *range(1, 32), 5):  # smaller counts after the largest one
        space = StateSpace(tuple(f"s{i}" for i in range(m)))
        tau = separating_strategy(Partition.singletons(space))
        assert [row[0] for row in tau.kernel] == expected[:m]
    coarse = Partition(SPACE, (("w1", "w3"), ("w2",), ("w4",)))
    tau = separating_strategy(coarse)
    assert [tau.prob(block[0], "s1") for block in coarse.blocks] == expected[:3]


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
    assert stoch.kernel[0] == (Fraction(1, 2), Fraction(1, 2))
    det = signaling_from_json(
        STRUCTURE,
        {
            "partition": [["w1", "w2"], ["w3", "w4"]],
            "type": "deterministic",
            "assignment": {"block0": "hi", "block1": "lo"},
        },
    )
    assert det == StochasticSignaling.from_assignment(P1, ("hi", "lo"))
    assert det.induced_partition() == P1
    with pytest.raises(InputError):
        signaling_from_json(STRUCTURE, {"oracle": "F", "type": "nope"})
    with pytest.raises(InputError):
        signaling_from_json(STRUCTURE, {"type": "stochastic"})


def test_deterministic_assignment_refuses_stray_keys():
    data = harness.load_fixture("one-dm")
    structure = structure_from_json(data["structure"])
    tau = {"type": "deterministic", "oracle": "F2", "assignment": {"block0": "a", "block1": "b"}}
    assert signaling_from_json(structure, tau).signals == ("a", "b")
    tau["assignment"]["blokc2"] = "c"
    with pytest.raises(InputError, match="unknown key 'blokc2'"):
        signaling_from_json(structure, tau)
    tau["assignment"]["block2"] = "d"  # F2 has two blocks; sorted first
    with pytest.raises(InputError, match="unknown key 'block2'"):
        signaling_from_json(structure, tau)
    del tau["assignment"]["block1"]  # a missing key is named first
    with pytest.raises(InputError, match="is missing its 'block1' field"):
        signaling_from_json(structure, tau)


def _stochastic_json(**changes):
    data = {
        "oracle": "F",
        "type": "stochastic",
        "signals": ["s1", "s2"],
        "kernel": {s: {"s1": "1/2", "s2": "1/2"} for s in SPACE.states},
    }
    data.update(changes)
    return data


@pytest.mark.parametrize(
    "data, message",
    [
        (_stochastic_json(signals="s1"), "'signals' must be a JSON list"),
        (_stochastic_json(kernel=[]), "'kernel' must be a JSON object"),
        (
            _stochastic_json(kernel={s: ["s1"] for s in SPACE.states}),
            "kernel row for state 'w1' must be a JSON object",
        ),
        (
            _stochastic_json(kernel={s: {"s1": 1, "typo": 0} for s in SPACE.states}),
            "state 'w1' names unknown signal 'typo'",
        ),
        (
            _stochastic_json(kernel={s: {"s1": "1/2", "typo": "1/2"} for s in SPACE.states}),
            "state 'w1' names unknown signal 'typo'",
        ),
        (
            {"partition": [["w1", "w2"], ["w3", "w4"]], "type": "deterministic",
             "assignment": ["hi", "lo"]},
            "'assignment' must be a JSON object",
        ),
    ],
)
def test_signaling_json_is_strict(data, message):
    with pytest.raises(InputError, match=message):
        signaling_from_json(STRUCTURE, data)


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


@pytest.mark.parametrize(
    "change, message",
    [
        pytest.param(
            {"columns": None},
            "is missing its 'columns' field",
            id="change0-missing key 'columns'",
        ),
        ({"columns": [["s1", "b0", "extra"]] * 4}, "is not a \\[signal, label\\] pair"),
        ({"columns": ["s1@b0"] * 4}, "is not a \\[signal, label\\] pair"),
        ({"entries": []}, "'entries' must be a JSON object"),
        ({"blocks": [["w1", "w2"], ["w3", "w4"]]}, "'blocks' must be a JSON object"),
        ({"blocks": {"b0": "w1w2", "b1": ["w3", "w4"]}}, "block 'b0' must be a JSON list"),
        ({"states": "w1w2w3w4"}, "'states' must be a JSON list"),
    ],
)
def test_matrix_from_json_rejects_malformed_sections(change, message):
    data = experiment_matrix(TAU, P1).as_json()
    for key, value in change.items():
        if value is None:
            del data[key]
        else:
            data[key] = value
    with pytest.raises(InputError, match=message):
        matrix_from_json(data)


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
    for omega in structure.space:
        for sig in tau.signals:
            if tau.prob(omega, sig) == 0:
                continue
            for i in range(structure.n):
                post = stoch_posterior(structure, i, tau, omega, sig)
                block = structure.players[i].block_of(omega)
                assert set(post.support()) <= set(block)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(random_signaling())
def test_profile_membership_and_menu_order_follow_the_vectors(case):
    # Profiles rebuilt from the naive posteriors, written as strings, are new
    # objects with the same exact values: set membership and menu order may
    # read only those values.
    structure, tau = case
    states = structure.space.states
    prior = dict(zip(states, structure.prior.vector))
    kernel = {w: dict(zip(tau.signals, tau.row(w))) for w in states}
    expected = {
        tuple(
            oracles.naive_posterior(prior, kernel, p.block_of(w), states, s)
            for p in structure.players
        )
        for w in states
        for s in tau.signals
        if kernel[w][s]
    }
    atlas = posterior_atlas(structure, tau)
    keys = set(atlas.entries)
    assert len(keys) == len(expected)
    for vectors in expected:
        profile = JointPosteriorProfile(
            tuple(Distribution.from_mass(structure.space, list(map(str, v))) for v in vectors)
        )
        assert profile in atlas and profile in keys
    for i in range(structure.n):
        menu = posterior_menu(p.per_player[i] for p in atlas.profiles())
        assert [d.vector for d in menu] == sorted({v[i] for v in expected})
