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
    ExperimentMatrix,
    InformationStructure,
    InputError,
    Partition,
    PosteriorAtlas,
    Prior,
    StateSpace,
    StochasticMatrix,
    StochasticSignaling,
    TwoStageGame,
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
from oraclegames import signaling
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


HALF = Fraction(1, 2)
FLOAT_AND_BOOL = pytest.mark.parametrize("value", [0.5, True], ids=["float", "bool"])


@FLOAT_AND_BOOL
def test_stochastic_signaling_refuses_a_float_and_a_bool(value):
    # 0.5 was once read as the kernel of halves, True as 1.
    with pytest.raises(InputError, match="^kernel row for state 'w1': not a rational"):
        StochasticSignaling(ORACLE, ("x", "y"), ((value, 1 - value),) * 4)


@FLOAT_AND_BOOL
def test_stochastic_matrix_refuses_a_float_and_a_bool(value):
    with pytest.raises(InputError, match="^matrix row for state 'w4': not a rational"):
        StochasticMatrix(SPACE, ("x", "y"), ((HALF, HALF),) * 3 + ((value, 1 - value),))


@pytest.mark.parametrize("labels", [(1, "y"), ("x", "")], ids=["not-a-string", "empty"])
def test_stochastic_matrix_refuses_labels_its_json_form_would_refuse(labels):
    with pytest.raises(InputError, match="column labels must be nonempty strings"):
        StochasticMatrix(SPACE, labels, ((HALF, HALF),) * 4)


def test_stochastic_matrix_round_trips_through_its_json_form():
    plain = StochasticMatrix(SPACE, ("x", "y z"), ((HALF, HALF), (1, 0), (0, 1), (HALF, HALF)))
    made = experiment_matrix(TAU, P1)
    for matrix in (plain, made):
        assert matrix_from_json(matrix.as_json()) == matrix


@pytest.mark.parametrize(
    "labels, last, message",
    [
        (("s1", "s2"), (), "kernel must have one row per state"),
        (("s1", "s1"), ((HALF, HALF),), "duplicate signal label"),
        (("s1", "s2"), ((1,),), "kernel row for state 'w4' has the wrong width"),
        (
            ("s1", "s2"),
            ((2, -1),),
            "kernel row for state 'w4' has negative probability -1 at signal 's2'",
        ),
        (("s1", "s2"), ((HALF, 1),), "kernel row for state 'w4' sums to 3/2, not 1"),
    ],
    ids=["row-count", "labels", "width", "sign", "row-sum"],
)
def test_kernels_and_matrices_share_one_row_check(labels, last, message):
    # One row-stochastic check serves both types; a matrix names its rows
    # and labels as a matrix's.
    rows = ((HALF, HALF),) * 3 + last
    with pytest.raises(InputError) as kernel:
        StochasticSignaling(ORACLE, labels, rows)
    with pytest.raises(InputError) as matrix:
        StochasticMatrix(SPACE, labels, rows)
    assert str(kernel.value) == message
    assert str(matrix.value) == message.replace("kernel", "matrix").replace("signal", "column")


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


@pytest.mark.parametrize("i", [-1, 2])
def test_posterior_refuses_a_player_index_out_of_range(i):
    fix = harness.Fixture(harness.load_fixture("stochastic-imi-fail"))
    det = StochasticSignaling.from_assignment(fix.structure.oracle("F1"), ("a", "b"))
    with pytest.raises(InputError, match=f"player index {i} is out of range"):
        stoch_posterior(fix.structure, i, fix.signaling("tau2"), "w1", "s2")
    with pytest.raises(InputError, match=f"player index {i} is out of range"):
        det_posterior(fix.structure, i, det, "w1")


def test_posterior_pass_skips_the_public_distribution_checks(monkeypatch):
    """Every posterior of an atlas is built from exact integer masses; none
    goes through the public constructor's checks, and the atlas is the same."""
    space = StateSpace(tuple(f"w{k}" for k in range(24)))
    blocks = lambda size: tuple(space.states[k : k + size] for k in range(0, 24, size))
    structure = InformationStructure(
        space,
        Prior(space, tuple(Fraction(k % 5 + 1, 70) for k in range(24))),
        ("A", "B"),
        (Partition(space, blocks(3)), Partition(space, blocks(4))),
    )
    tau = separating_strategy(Partition(space, blocks(2)))
    expected = posterior_atlas(structure, tau)

    def refuse(self, sums_to_one):
        raise AssertionError("a posterior went through the public checks")

    monkeypatch.setattr(Distribution, "_check_masses", refuse)
    atlas = posterior_atlas(structure, tau)
    assert len(atlas) == 24
    assert atlas == expected and atlas.as_json() == expected.as_json()


def test_posterior_claims_build_no_profile_table(monkeypatch):
    """One posterior reads its own block of the masses; the posterior table,
    with every block's posterior, is never built for it."""

    def refuse(*args):
        raise AssertionError("a lone posterior built the posterior table")

    monkeypatch.setattr(signaling, "_PosteriorTable", refuse)
    ran = 0
    for name in ("stochastic-imi-fail", "unique-ckc-3-player"):
        data = harness.load_fixture(name)
        fix = harness.Fixture(data)
        for claim in data["claims"]:
            if claim["op"] == "stoch_posterior":
                assert harness.run_claim(fix, claim)["pass"], claim["id"]
                ran += 1
    assert ran == 4


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
            for j, v in enumerate(profile[i].vector):
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
        menu = posterior_menu(p[i] for p in atlas.profiles())
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
    # Rows under a signal tau does not send are checked too.
    m = {"s1": {"t1": "1/2", "t2": "1/2"}, "s2": {"t2": "1"}}
    message = "garbling row for signal 'c' must be a JSON object, got 'not even a row'"
    with pytest.raises(InputError, match=message):
        garble(TAU, {**m, "c": "not even a row"})
    with pytest.raises(DomainError, match="garbling row for signal 'c' is not a distribution"):
        garble(TAU, {**m, "c": {"t1": "1/2"}})
    with pytest.raises(DomainError, match="garbling row for signal 'c' is not a distribution"):
        garble(TAU, {**m, "c": {"t1": "2", "t2": "-1"}})
    # A well-formed row under a signal tau does not send (here, one its
    # kernel could have trimmed) is checked, then ignored.
    assert garble(TAU, {**m, "c": {"t3": "1"}}) == garble(TAU, m)


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


def _recording(monkeypatch, made):
    """Wrap ``signaling._unchecked``, the one unchecked builder, so each
    object it builds is kept with its fields and, for a signaling, with the
    untrimmed signals and kernel that were trimmed into those fields. The
    untrimmed kernel is read from the untrimmed integer rows ``(T, m, ...)``
    as the Fractions m / T."""
    given = []
    trimmed, unchecked = signaling._trimmed, signaling._unchecked

    def trim(signals, keys):
        given.append((signals, tuple(tuple(Fraction(m, key[0]) for m in key[1:]) for key in keys)))
        return trimmed(signals, keys)

    def record(cls, **fields):
        untrimmed = given[-1] if cls is StochasticSignaling else None
        made.append((unchecked(cls, **fields), fields, untrimmed))
        return made[-1][0]

    monkeypatch.setattr(signaling, "_trimmed", trim)
    monkeypatch.setattr(signaling, "_unchecked", record)


def _random_partition(rng, space, most):
    owner = [rng.randrange(most) for _ in space.states]
    return Partition(
        space, tuple(tuple(w for w, k in zip(space.states, owner) if k == b) for b in set(owner))
    )


def _random_row(rng, labels):
    """A distribution over ``labels`` as a garbling row, often with zero entries."""
    weights = [rng.choice((0, 0, 1, 2, 5)) for _ in labels]
    weights[rng.randrange(len(labels))] += 1
    return {t: f"{w}/{sum(weights)}" for t, w in zip(labels, weights)}


def test_derived_objects_equal_the_public_constructions(monkeypatch):
    # lift_garbled, merge_garbled and experiment_matrix build their results
    # with the one unchecked builder; the public constructors on the same
    # data must build the same objects, zero signals trimmed alike, and the
    # same integer rows: a derived signaling computes its rows from integers.
    made, spread = [], []
    _recording(monkeypatch, made)
    rng = random.Random(2026)
    for _ in range(60):
        space = StateSpace(tuple(f"w{i}" for i in range(rng.randint(2, 7))))
        oracle = _random_partition(rng, space, 4)
        signals = tuple(f"s{j}" for j in range(rng.randint(1, 4)))
        rows = {
            block: tuple(Fraction(v) for v in _random_row(rng, signals).values())
            for block in oracle.blocks
        }
        tau = StochasticSignaling(
            oracle, signals, tuple(rows[oracle.block_of(w)] for w in space.states)
        )
        labels = tuple(f"t{j}" for j in range(rng.randint(1, 3)))
        garbling = {s: _random_row(rng, labels) for s in tau.signals}
        player = _random_partition(rng, space, 3)
        for derived in (tau, lift_garbled(tau, garbling), merge_garbled(tau, garbling)):
            experiment_matrix(derived, player)
            # Each kernel row spread over the player's blocks: the matrix's entries.
            at = [(derived.row(w), player.block_index(w)) for w in space.states]
            width = range(len(player.blocks))
            spread.append(tuple(tuple(p * (b == j) for p in row for b in width) for row, j in at))
    signalings = [entry for entry in made if entry[2] is not None]
    matrices = [entry[:2] for entry in made if entry[2] is None]
    assert len(signalings) == 120 and len(matrices) == 180
    trimmed = 0
    for built, fields, (signals, kernel) in signalings:
        public = StochasticSignaling(fields["oracle_partition"], signals, kernel)
        assert (built.signals, built.kernel) == (public.signals, public.kernel)
        assert built._keys == public._keys
        assert built == public
        trimmed += len(built.signals) < len(signals)
    assert trimmed >= 30
    for (built, fields), entries in zip(matrices, spread):
        # The matrix is built as integer row keys: its entries are made when read.
        keys = fields.pop("_keys")
        assert "entries" not in vars(built)
        public = signaling.ExperimentMatrix(entries=entries, **fields)
        assert keys == built._keys == public._keys
        assert (built.entries, built.column_labels) == (public.entries, public.column_labels)
        assert (built.columns, built.blocks) == (public.columns, public.blocks)
        assert built.as_json() == public.as_json()
        assert built == public


def _composition(rng, total, parts, least):
    """``parts`` integers of at least ``least`` summing to ``total``."""
    nums = [least] * parts
    for _ in range(total - least * parts):
        nums[rng.randrange(parts)] += 1
    return nums


def _unlike_denominator_signalings(rng, count):
    """Seeded (structure, tau, garbling) cases whose masses have unlike
    denominators: the prior over 7 or 11, each kernel row over 2, 3 or 5
    (zero entries allowed), and garbling rows over their own totals."""
    cases = []
    for _ in range(count):
        space = StateSpace(tuple(f"w{i}" for i in range(rng.randint(2, 6))))
        d = rng.choice((7, 11))
        prior = Prior(space, tuple(Fraction(k, d) for k in _composition(rng, d, len(space), 1)))
        oracle = _random_partition(rng, space, 3)
        signals = tuple(f"s{j}" for j in range(rng.randint(2, 3)))
        rows = {}
        for block in oracle.blocks:
            q = rng.choice((2, 3, 5))
            rows[block] = tuple(Fraction(k, q) for k in _composition(rng, q, len(signals), 0))
        tau = StochasticSignaling(
            oracle, signals, tuple(rows[oracle.block_of(w)] for w in space.states)
        )
        players = tuple(_random_partition(rng, space, 3) for _ in range(rng.randint(1, 3)))
        names = tuple(f"P{i}" for i in range(len(players)))
        structure = InformationStructure(space, prior, names, players)
        labels = tuple(f"t{j}" for j in range(rng.randint(1, 3)))
        cases.append((structure, tau, {s: _random_row(rng, labels) for s in tau.signals}))
    return cases


def _naive_kernels(tau, garbling, states):
    """The kernels of tau, of its lift and of its merge by ``garbling``, as
    state -> signal -> mass, computed here from tau's rows."""
    base = {w: dict(zip(tau.signals, tau.row(w))) for w in states}
    g = {s: {t: Fraction(p) for t, p in row.items()} for s, row in garbling.items()}
    lifted = {w: {(s, t): g[s][t] * base[w][s] for s in g for t in g[s]} for w in states}
    targets = {t for row in g.values() for t in row}
    merged = {
        w: {t: sum(g[s].get(t, 0) * base[w][s] for s in tau.signals) for t in targets}
        for w in states
    }
    return base, lifted, merged


def test_posterior_atlas_equals_the_naive_weighted_atlas():
    # Weights and profile order, on base, lifted and merged signalings whose
    # prior and kernel denominators differ.
    checked = 0
    for structure, tau, garbling in _unlike_denominator_signalings(random.Random(2027), 40):
        states = structure.space.states
        prior = dict(zip(states, structure.prior.vector))
        partitions = [p.blocks for p in structure.players]
        derived = (tau, lift_garbled(tau, garbling), merge_garbled(tau, garbling))
        for sig, kernel in zip(derived, _naive_kernels(tau, garbling, states)):
            atlas = posterior_atlas(structure, sig)
            naive = oracles.naive_atlas(prior, kernel, partitions, states)
            order = sorted(naive)
            assert [tuple(d.vector for d in p) for p in atlas.profiles()] == order
            assert [atlas.weight(p) for p in atlas.profiles()] == [naive[v] for v in order]
            checked += len(order)
    assert checked > 200


def test_posterior_atlas_equals_the_public_constructor_on_its_entries():
    # posterior_atlas builds its atlas unchecked; the public constructor on
    # the same entries must build the same atlas, in the same order.
    for structure, tau, garbling in _unlike_denominator_signalings(random.Random(2028), 20):
        for sig in (tau, lift_garbled(tau, garbling), merge_garbled(tau, garbling)):
            atlas = posterior_atlas(structure, sig)
            public = PosteriorAtlas(atlas.entries)
            assert public == atlas and public._order == atlas._order
            assert public.as_json() == atlas.as_json()


def test_integer_forms_make_their_fractions_only_when_read():
    # Posteriors, atlas weights and garbled kernels are built as integer keys:
    # building an atlas reads no Fraction form, and each form, once read,
    # equals the one computed here in plain Fractions.
    unread = 0
    for structure, tau, garbling in _unlike_denominator_signalings(random.Random(2033), 30):
        states = structure.space.states
        prior = dict(zip(states, structure.prior.vector))
        partitions = [p.blocks for p in structure.players]
        labels = (
            {s: s for s in tau.signals},
            {(s, t): f"({s},{t})" for s in tau.signals for t in garbling[s]},
            {t: t for s in tau.signals for t in garbling[s]},
        )
        derived = (tau, lift_garbled(tau, garbling), merge_garbled(tau, garbling))
        for sig, kernel, label in zip(derived, _naive_kernels(tau, garbling, states), labels):
            atlas = posterior_atlas(structure, sig)
            assert len(atlas) == len(set(atlas.profiles())) and atlas.profiles()[0] in atlas
            assert post_included(atlas, atlas) and "entries" not in vars(atlas)
            posteriors = {d for profile in atlas.profiles() for d in profile}
            assert not any("vector" in vars(d) for d in posteriors)
            unread += len(posteriors)
            if sig is not tau:
                assert "kernel" not in vars(sig)
            rows = tuple(tuple(kernel[w][x] for x in label) for w in states)
            public = StochasticSignaling(tau.oracle_partition, tuple(label.values()), rows)
            assert sig.kernel == public.kernel and sig.signals == public.signals
            assert sig._keys == public._keys and sig == public
            naive = oracles.naive_atlas(prior, kernel, partitions, states)
            order = sorted(naive)
            assert [tuple(d.vector for d in p) for p in atlas.profiles()] == order
            assert all("vector" in vars(d) for d in posteriors)
            assert [atlas.weight(p) for p in atlas.profiles()] == [naive[v] for v in order]
            rebuilt = PosteriorAtlas(atlas.entries)
            assert rebuilt == atlas and rebuilt._order == atlas._order
            assert rebuilt.as_json() == atlas.as_json()
    assert unread > 200


def _normalized(table):
    """Integer rows with positive sums as probability rows: unlike denominators."""
    return tuple(tuple(Fraction(v, sum(row)) for v in row) for row in table)


def _near_miss_signalings(rng, count):
    """Seeded (structure, tau, kernel, shape) cases on singleton oracles whose
    kernel columns come close to proportional, next to a planted proportional
    column. The shapes take turns:
    - "near": a column twice a base column on every state but one;
    - "support": a column three times a base column where both are positive,
      with one more zero (the same ratio, another zero pattern);
    - "flat": every row the same, so every column is proportional;
    - "zero": a column of zeros, trimmed from tau.
    ``kernel`` is state -> signal -> probability, zero columns included. The
    first player holds the trivial partition, whose posteriors show every
    entry of a column."""
    shapes = ("near", "support", "flat", "zero")
    cases = []
    for k in range(count):
        shape = shapes[k % len(shapes)]
        n = rng.randint(3, 6)
        space = StateSpace(tuple(f"w{i}" for i in range(n)))
        base = [rng.choice((0, 1, 2, 3, 4)) for _ in range(n)]
        for i in rng.sample(range(n), 2):
            base[i] = rng.randint(1, 4)
        other = [rng.choice((0, 1, 2, 5)) for _ in range(n)]
        columns = [base, other, [5 * v for v in base]]
        if shape == "near":
            near = [2 * v for v in base]
            near[rng.randrange(n)] += rng.randint(1, 3)
            columns.append(near)
        elif shape == "support":
            support = [3 * v for v in base]
            support[rng.choice([i for i in range(n) if base[i]])] = 0
            columns.append(support)
        elif shape == "flat":
            weights = [rng.choice((0, 1, 2, 3)) for _ in range(rng.randint(2, 4))]
            weights[0] += 1
            columns = [[w] * n for w in weights]
        else:
            columns.append([0] * n)
        for i in range(n):
            if not any(column[i] for column in columns):
                columns[1][i] += 1
        rng.shuffle(columns)
        signals = tuple(f"s{j}" for j in range(len(columns)))
        rows = _normalized(list(zip(*columns)))
        tau = StochasticSignaling(Partition.singletons(space), signals, rows)
        d = rng.choice((7, 11))
        prior = Prior(space, tuple(Fraction(k, d) for k in _composition(rng, d, n, 1)))
        players = (Partition.trivial(space),)
        players += tuple(_random_partition(rng, space, 3) for _ in range(rng.randint(0, 2)))
        names = tuple(f"P{i}" for i in range(len(players)))
        structure = InformationStructure(space, prior, names, players)
        kernel = {w: dict(zip(signals, row)) for w, row in zip(space.states, rows)}
        cases.append((structure, tau, kernel, shape))
    return cases


def test_posterior_atlas_merges_only_proportional_columns():
    # Near-miss columns must keep their own posteriors; proportional ones,
    # planted or all of a flat kernel's, are merged with the same result.
    trimmed = 0
    for structure, tau, kernel, shape in _near_miss_signalings(random.Random(2029), 80):
        states = structure.space.states
        prior = dict(zip(states, structure.prior.vector))
        partitions = [p.blocks for p in structure.players]
        atlas = posterior_atlas(structure, tau)
        naive = oracles.naive_atlas(prior, kernel, partitions, states)
        order = sorted(naive)
        assert [tuple(d.vector for d in p) for p in atlas.profiles()] == order, shape
        assert [atlas.weight(p) for p in atlas.profiles()] == [naive[v] for v in order], shape
        public = PosteriorAtlas(atlas.entries)
        assert public == atlas and public._order == atlas._order
        assert public.as_json() == atlas.as_json()
        trimmed += len(tau.signals) < len(kernel[states[0]])
    assert trimmed >= 20


def test_a_lifted_atlas_builds_each_posterior_once(monkeypatch):
    # Every lifted signal (s, t) has a column proportional to s's, so the
    # lifted atlas builds exactly the posteriors the base atlas builds.
    built = []
    on_block = Distribution._on_block.__func__

    def counted(cls, *args):
        built.append(args)
        return on_block(cls, *args)

    monkeypatch.setattr(Distribution, "_on_block", classmethod(counted))
    grew = 0
    for structure, tau, garbling in _unlike_denominator_signalings(random.Random(2030), 30):
        lifted = lift_garbled(tau, garbling)
        base = posterior_atlas(structure, tau)
        once = len(built)
        built.clear()
        assert posterior_atlas(structure, lifted) == base
        assert len(built) == once
        built.clear()
        grew += len(lifted.signals) > len(tau.signals)
    assert grew >= 15


def _derived_cases(rng, count):
    """Seeded (structure, signaling, kernel) cases of at least 2 players: the
    base, lifted and merged signalings of ``_unlike_denominator_signalings``,
    each with its kernel as state -> signal label -> mass."""
    for structure, tau, garbling in _unlike_denominator_signalings(rng, count):
        if structure.n < 2:
            continue
        states = structure.space.states
        labels = (
            {s: s for s in tau.signals},
            {(s, t): f"({s},{t})" for s in tau.signals for t in garbling[s]},
            {t: t for s in tau.signals for t in garbling[s]},
        )
        derived = (tau, lift_garbled(tau, garbling), merge_garbled(tau, garbling))
        for sig, kernel, label in zip(derived, _naive_kernels(tau, garbling, states), labels):
            kernel = {w: {label[x]: p for x, p in row.items()} for w, row in kernel.items()}
            yield structure, sig, kernel


def test_declaration_menus_and_settlements_match_the_naive_posteriors():
    # The two-stage game's menus and settlement table, and the log-score
    # game's menus, read the posterior table; each equals the one built here
    # from naive posteriors, branch by branch in state and then signal order.
    checked = 0
    for structure, tau, kernel in _derived_cases(random.Random(2034), 40):
        states = structure.space.states
        prior = dict(zip(states, structure.prior.vector))
        blocks = [p.block_of for p in structure.players]
        settled = {}
        for w in states:
            for s in tau.signals:
                if kernel[w][s]:
                    profile = tuple(
                        oracles.naive_posterior(prior, kernel, block(w), states, s)
                        for block in blocks
                    )
                    settled.setdefault(tuple((s, v) for v in profile), profile)
        menus = [sorted({p[i] for p in settled.values()}) for i in range(structure.n)]
        stage = TwoStageGame(structure, tau)
        assert [[d.vector for d in menu] for menu in stage.menus] == menus
        got = [
            (tuple((t, d.vector) for t, d in key), tuple(d.vector for d in p))
            for key, p in stage._settled.items()
        ]
        assert got == list(settled.items())
        kld = build_kld_game(structure, tau)
        assert [[d.vector for d in menu] for menu in kld.menus] == menus
        checked += len(settled)
    assert checked > 300


def test_an_atlas_sorts_its_profiles_only_when_they_are_read():
    # Building an atlas, and asking its size, inclusion and membership, read
    # no order; the first profiles() sorts the profiles and keeps them.
    for structure, tau, _ in _derived_cases(random.Random(2035), 20):
        atlas = posterior_atlas(structure, tau)
        other = posterior_atlas(structure, tau)
        assert post_included(atlas, other) and post_included(other, atlas)
        assert len(atlas) == len(other) and next(iter(other._weights)) in atlas
        assert "_order" not in vars(atlas) and "_order" not in vars(other)
        order = atlas.profiles()
        assert vars(atlas)["_order"] is order and atlas.profiles() is order
        assert PosteriorAtlas(atlas.entries)._order == order


def test_an_atlas_with_an_unreached_block_matches_the_naive_atlas():
    # A player block with no mass under a signal has no posterior there, and
    # the join cells inside it add nothing; the rest still match.
    unreached = 0
    for structure, tau, kernel in _derived_cases(random.Random(2036), 60):
        states = structure.space.states
        prior = dict(zip(states, structure.prior.vector))
        partitions = [p.blocks for p in structure.players]
        if not any(
            not any(kernel[w][s] for w in block)
            for blocks in partitions
            for block in blocks
            for s in tau.signals
        ):
            continue
        unreached += 1
        atlas = posterior_atlas(structure, tau)
        naive = oracles.naive_atlas(prior, kernel, partitions, states)
        order = sorted(naive)
        assert [tuple(d.vector for d in p) for p in atlas.profiles()] == order
        assert [atlas.weight(p) for p in atlas.profiles()] == [naive[v] for v in order]
    assert unreached > 40


def test_lift_garbled_refuses_signal_labels_that_collide():
    # ("a", "b,c") and ("a,b", "c") both lift to "(a,b,c)".
    tau = StochasticSignaling(ORACLE, ("a", "a,b"), ((Fraction(1, 2),) * 2,) * 4)
    with pytest.raises(InputError, match="duplicate signal label"):
        lift_garbled(tau, {"a": {"b,c": "1"}, "a,b": {"c": "1"}})


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


def _reference_kernels(rng, count):
    """Seeded (tau1, tau2) pairs on singleton oracles, rows over unlike
    denominators. tau2 is fully supported, and some of its columns repeat an
    earlier column or twice it. tau1 holds one or two planted columns c times
    a column of tau2, sometimes one of them halved on one state, and splits
    the rest of each row over remainder columns with zero entries (a zero
    remainder column is trimmed)."""
    cases = []
    for _ in range(count):
        n = rng.randint(2, 6)
        oracle = Partition.singletons(StateSpace(tuple(f"w{i}" for i in range(n))))
        columns = [[rng.randint(1, 6) for _ in range(n)] for _ in range(rng.randint(2, 4))]
        for _ in range(rng.randint(1, 2)):
            columns.append([rng.choice((1, 2)) * v for v in rng.choice(columns)])
        kernel2 = _normalized(list(zip(*columns)))
        tau2 = StochasticSignaling(oracle, tuple(f"s{j}" for j in range(len(columns))), kernel2)
        planted = []
        for c in rng.sample((Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)), rng.randint(1, 2)):
            s = rng.randrange(len(columns))
            planted.append([c * row[s] for row in kernel2])
        if rng.random() < 0.5:
            planted[0][rng.randrange(n)] /= 2
        rest = [1 - sum(column[i] for column in planted) for i in range(n)]
        share = [rng.choice((0, Fraction(1, 3), Fraction(1, 2), 1)) for _ in range(n)]
        first = [r * q for r, q in zip(rest, share)]
        columns1 = planted + [first, [r - f for r, f in zip(rest, first)]]
        rng.shuffle(columns1)
        signals = tuple(f"t{j}" for j in range(len(columns1)))
        cases.append((StochasticSignaling(oracle, signals, tuple(zip(*columns1))), tau2))
    return cases


def test_proportional_decompose_matches_the_fraction_scan():
    # The same hits, constants and misses as the pairwise Fraction scan; of
    # several proportional columns in tau2 the first one wins.
    rng = random.Random(2031)
    hits = later = 0
    for tau1, tau2 in _reference_kernels(rng, 200):
        garbling = {s: _random_row(rng, ("a", "b")) for s in tau2.signals}
        for one in (tau1, tau2, lift_garbled(tau2, garbling)):
            found = proportional_decompose(one, tau2)
            naive = oracles.naive_proportional_decompose(
                one.signals, one.kernel, tau2.signals, tau2.kernel
            )
            assert found == naive
            assert all(type(hit[1]) is Fraction for hit in found.values() if hit)
        for hit in filter(None, proportional_decompose(tau1, tau2).values()):
            hits += 1
            s = tau2.signal_index(hit[0])
            column = [row[s] for row in tau2.kernel]
            later += any(
                len({a / b for a, b in zip(column, other)}) == 1
                for other in list(zip(*tau2.kernel))[s + 1 :]
            )
    assert hits > 150 and later > 20, (hits, later)
    # The space is checked before the reference's support.
    partial = StochasticSignaling(ORACLE, ("s1", "s2"), ((1, 0), (0, 1), (0, 1), (0, 1)))
    elsewhere = StochasticSignaling(Partition.singletons(StateSpace(("x",))), ("s",), ((1,),))
    with pytest.raises(DomainError, match="different state spaces"):
        proportional_decompose(elsewhere, partial)
    with pytest.raises(DomainError, match="must be fully supported"):
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
        (
            {"blocks": {"b0": ["w1", "w2"], "b1": ["w3", "w4"], "b2": ["zz"]}},
            "^matrix block 'b2' names unknown state 'zz'$",
        ),
        (
            {"blocks": {"b0": ["w1", "w2"], "b1": ["w2", "w3", "w4"]}},
            "^matrix block 'b1' repeats state 'w2'$",
        ),
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


def test_experiment_matrix_refuses_metadata_that_would_not_round_trip():
    # Each of these would lose a column or a block in as_json.
    made = experiment_matrix(TAU, P1)
    fields = ("space", "column_labels", "entries", "columns", "blocks")
    good = {key: getattr(made, key) for key in fields}
    assert ExperimentMatrix(**good) == made
    relabelled = ("x", *good["column_labels"][1:])
    with pytest.raises(InputError, match="column label 'x' is not 's1@b0'"):
        ExperimentMatrix(**dict(good, column_labels=relabelled))
    twice = (("b0", P1.blocks[0]), ("b0", P1.blocks[1]))
    with pytest.raises(InputError, match="duplicate block label"):
        ExperimentMatrix(**dict(good, blocks=twice))
    short = (("b0", P1.blocks[0]), ("b1", ("w3",)))
    uncovered = "^matrix 'blocks': partition blocks do not cover state 'w4'$"
    with pytest.raises(InputError, match=uncovered):
        ExperimentMatrix(**dict(good, blocks=short))


def test_atlas_refusals():
    point = (Distribution(SPACE, (1, 0, 0, 0)),)
    other = (Distribution(SPACE, (0, 1, 0, 0)),)
    for entries, message in (
        ({}, "an atlas cannot be empty"),
        ({point: Fraction(1), other: Fraction(0)}, "atlas weight 0 is not positive"),
        ({point: HALF, other: Fraction(1, 3)}, "atlas weights do not sum to 1"),
        ({point: 1.0}, r"^atlas weight: not a rational: 1\.0 \(floats are not accepted\)$"),
    ):
        with pytest.raises(InputError, match=message):
            PosteriorAtlas(entries)
    atlas = PosteriorAtlas({point: HALF, other: HALF})
    assert atlas.weight(other) == HALF
    with pytest.raises(DomainError, match="profile is not in the atlas"):
        atlas.weight((Distribution(SPACE, (0, 0, 1, 0)),))


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
    assert atlas.profiles() == tuple(
        sorted(atlas.entries, key=lambda p: tuple(d.vector for d in p))
    )
    for profile in atlas.profiles():
        for i, dist in enumerate(profile):
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
        profile = tuple(
            Distribution.from_mass(structure.space, list(map(str, v))) for v in vectors
        )
        assert profile in atlas and profile in keys
    for i in range(structure.n):
        menu = posterior_menu(p[i] for p in atlas.profiles())
        assert [d.vector for d in menu] == sorted({v[i] for v in expected})
