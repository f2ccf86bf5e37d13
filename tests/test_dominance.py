"""Oracle-ranking decision procedures: matched coarsening profiles, two-sided
equivalence, refinement dominance, restriction to components, garbling
feasibility, and the common-objective condition."""

import random
from fractions import Fraction

import pytest

import oracles
from oraclegames import dominance, partitions
from oraclegames import (
    DomainError,
    InformationStructure,
    InputError,
    Partition,
    Prior,
    ResourceLimitError,
    StateSpace,
    StochasticMatrix,
    apply_garbling,
    ckc_decompose,
    coarsening_profiles,
    coarsenings,
    common_objective_condition,
    garbling_exists,
    induced_profile,
    is_imi,
    join,
    refines,
    restrict_to_ckc,
    two_sided_imi_equal,
    unique_ckc_dominates,
)

SPACE = StateSpace(("w1", "w2", "w3", "w4"))
PRIOR = Prior.uniform(SPACE)
P1 = Partition(SPACE, (("w1", "w2"), ("w3", "w4")))
P2 = Partition(SPACE, (("w1",), ("w2", "w3"), ("w4",)))
CONNECTED = InformationStructure(SPACE, PRIOR, ("P1", "P2"), (P1, P2))

SPLIT = InformationStructure(
    SPACE,
    PRIOR,
    ("P1", "P2"),
    (
        Partition(SPACE, (("w1", "w2"), ("w3",), ("w4",))),
        Partition(SPACE, (("w1", "w2"), ("w3", "w4"))),
    ),
)


def test_induced_profile_is_the_joined_information():
    oracle = Partition(SPACE, (("w1",), ("w2", "w3", "w4")))
    profile = induced_profile(CONNECTED, oracle)
    assert profile == (join(P1, oracle), join(P2, oracle))


def test_coarsening_profiles_checks_the_space_before_the_block_cap():
    eleven = StateSpace(tuple(f"s{i}" for i in range(11)))
    with pytest.raises(DomainError, match="different state spaces"):
        coarsening_profiles(CONNECTED, Partition.singletons(eleven))
    structure = _one_player(eleven, (eleven.states,))
    with pytest.raises(ResourceLimitError, match="partition has 11 blocks"):
        coarsening_profiles(structure, Partition.singletons(eleven))
    assert len(coarsening_profiles(structure, Partition.trivial(eleven))) == 1


def test_imi_failure_produces_a_checkable_witness():
    finer = Partition.singletons(SPACE)
    coarser = Partition(SPACE, (("w1", "w2", "w3"), ("w4",)))
    assert is_imi(CONNECTED, finer, coarser).holds
    result = is_imi(CONNECTED, coarser, finer)
    assert not result.holds
    witness = result.witness
    assert witness is not None
    # The witness is a coarsening of the finer oracle whose induced profile
    # no coarsening of the coarser oracle reproduces.
    assert refines(finer, witness)
    target = induced_profile(CONNECTED, witness)
    for c in coarsenings(coarser):
        assert induced_profile(CONNECTED, c) != target


def test_imi_reflexive_and_transitive_on_samples():
    rng = random.Random(7)
    parts = [
        Partition(SPACE, blocks) for blocks in oracles.all_partitions(SPACE.states)
    ]
    for _ in range(40):
        f1, f2, f3 = rng.choice(parts), rng.choice(parts), rng.choice(parts)
        assert is_imi(CONNECTED, f1, f1).holds
        if is_imi(CONNECTED, f1, f2).holds and is_imi(CONNECTED, f2, f3).holds:
            assert is_imi(CONNECTED, f1, f3).holds


def test_refinement_implies_imi():
    finer = Partition(SPACE, (("w1",), ("w2",), ("w3", "w4")))
    coarser = Partition(SPACE, (("w1", "w2"), ("w3", "w4")))
    assert refines(finer, coarser)
    assert is_imi(CONNECTED, finer, coarser).holds


def test_two_sided_requires_unique_component():
    assert len(ckc_decompose(SPLIT.players).blocks) == 2
    with pytest.raises(DomainError):
        two_sided_imi_equal(SPLIT, P1, P2)
    with pytest.raises(DomainError):
        unique_ckc_dominates(SPLIT, P1, P2)


def test_two_sided_equivalence_matches_partition_equality():
    parts = [
        Partition(SPACE, blocks) for blocks in oracles.all_partitions(SPACE.states)
    ]
    rng = random.Random(13)
    for _ in range(25):
        f1, f2 = rng.choice(parts), rng.choice(parts)
        result = two_sided_imi_equal(CONNECTED, f1, f2)
        assert result.equivalent == (f1 == f2)
        assert result.equivalent == (result.forward.holds and result.backward.holds)


def _random_partition(rng, space, most):
    return Partition(space, oracles.random_blocks(rng, space.states, most))


def _agrees(result, naive):
    holds, witness = naive
    if result.holds != holds:
        return False
    if holds:
        return result.witness is None
    return oracles.canon(result.witness.blocks) == oracles.canon(witness)


def test_imi_and_two_sided_agree_with_brute_force():
    rng = random.Random(31)
    checked = {"holds": 0, "fails": 0, "two_sided": 0}
    for _ in range(24):
        space = StateSpace(tuple(f"w{i}" for i in range(rng.randint(6, 8))))
        players = tuple(
            _random_partition(rng, space, rng.randint(2, 4)) for _ in range(rng.randint(2, 3))
        )
        if rng.random() < 0.25:
            players = (Partition.singletons(space),) + players[1:]
        names = tuple(f"P{i}" for i in range(len(players)))
        structure = InformationStructure(space, Prior.uniform(space), names, players)
        blocks = [p.blocks for p in players]
        second = _random_partition(rng, space, 5)
        # A refinement of the second oracle dominates it; a random one may not.
        first = rng.choice([join(second, _random_partition(rng, space, 3)),
                            _random_partition(rng, space, 5)])
        naive = {}
        for a, b in ((first, second), (second, first), (Partition.trivial(space), second)):
            naive[a, b] = oracles.naive_is_imi(blocks, a.blocks, b.blocks)
            assert _agrees(is_imi(structure, a, b), naive[a, b]), (players, a, b)
            checked["holds" if naive[a, b][0] else "fails"] += 1
        if len(oracles.naive_meet(blocks, space.states)) == 1:
            result = two_sided_imi_equal(structure, first, second)
            assert _agrees(result.forward, naive[first, second])
            assert _agrees(result.backward, naive[second, first])
            checked["two_sided"] += 1
        else:
            with pytest.raises(DomainError):
                two_sided_imi_equal(structure, first, second)
    assert min(checked.values()) >= 5, checked


def test_imi_holds_without_refinement_as_brute_force_does():
    # A holding verdict whose first oracle refines the second is decided
    # without a scan; these first oracles merge two of the second's blocks.
    rng = random.Random(47)
    checked = {"holds": 0, "fails": 0}
    for _ in range(150):
        space = StateSpace(tuple(f"w{i}" for i in range(rng.randint(4, 6))))
        players = tuple(
            _random_partition(rng, space, rng.randint(3, 5)) for _ in range(rng.randint(2, 3))
        )
        structure = InformationStructure(
            space, Prior.uniform(space), tuple(f"P{i}" for i in range(len(players))), players
        )
        second = _random_partition(rng, space, 5)
        if len(second.masks) < 2:
            continue
        a, b, *rest = rng.sample(second.masks, len(second.masks))
        first = Partition.from_masks(space, [a | b, *rest])
        if rng.random() < 0.5:
            first = join(first, _random_partition(rng, space, 2))
        if refines(first, second):
            continue
        naive = oracles.naive_is_imi([p.blocks for p in players], first.blocks, second.blocks)
        assert _agrees(is_imi(structure, first, second), naive), (players, first, second)
        checked["holds" if naive[0] else "fails"] += 1
    assert min(checked.values()) >= 10, checked


def _one_player(space, blocks):
    return InformationStructure(space, Prior.uniform(space), ("P",), (Partition(space, blocks),))


def _doomed_before_the_last_block(players, first, second, witness):
    """Whether, for some d short of all blocks, every coarsening of
    ``second`` (one state per block) that groups its first d blocks as
    ``witness`` does fails: a scan may then stop with blocks left to place."""
    def profile(c):
        return tuple(oracles.canon(oracles.naive_join(p, c)) for p in players)

    def labels(c):
        return [next(i for i, b in enumerate(c) if s in b) for (s,) in second]

    reachable = {profile(c) for c in oracles.naive_coarsenings(first)}
    every = oracles.naive_coarsenings(second)
    return any(
        all(profile(c) not in reachable for c in every if labels(c)[:d] == labels(witness)[:d])
        for d in range(1, len(second))
    )


def test_imi_witness_of_a_failure_caught_before_the_last_block():
    space = StateSpace(tuple(f"s{i}" for i in range(7)))
    second = Partition(space, tuple((s,) for s in space.states))
    cases = [
        # The player tells s0 from s1 and nothing else apart, and the first
        # oracle is trivial: every coarsening keeping s0 and s1 together
        # matches, and placing s1 apart fails with five blocks unplaced.
        ((("s0", "s1"),) + tuple((s,) for s in space.states[2:]), (space.states,),
         (("s0", "s2", "s3", "s4", "s5", "s6"), ("s1",))),
        # Placing s3 apart from s1, which the player cannot tell it from and
        # the first oracle keeps with it, fails with three blocks unplaced.
        ((("s0", "s2"), ("s1", "s3"), ("s4",), ("s5",), ("s6",)),
         (("s0", "s1", "s2", "s3"), ("s4", "s5", "s6")),
         (("s0", "s1", "s2", "s4", "s5", "s6"), ("s3",))),
    ]
    rng = random.Random(3)
    for _ in range(60):
        blocks = oracles.random_blocks(rng, space.states, 4)
        cases.append((blocks, oracles.random_blocks(rng, space.states, 3), None))
    caught = 0
    for player, first, expected in cases:
        structure = _one_player(space, player)
        result = is_imi(structure, Partition(space, first), second)
        naive = oracles.naive_is_imi([player], first, second.blocks)
        assert _agrees(result, naive), (player, first)
        if expected is not None:
            assert result.witness.blocks == expected
        if not result.holds:
            caught += _doomed_before_the_last_block([player], first, second.blocks, naive[1])
    assert caught >= 8, caught


def test_imi_never_enumerates_the_first_oracle(monkeypatch):
    drawn = []
    for module in (dominance, partitions):
        def counted(masks, cap, real=module._merged_masks):
            drawn.append(tuple(masks))
            return real(masks, cap)

        monkeypatch.setattr(module, "_merged_masks", counted)
    rng = random.Random(5)
    scans = 0
    for _ in range(40):
        space = StateSpace(tuple(f"w{i}" for i in range(rng.randint(4, 7))))
        players = (_random_partition(rng, space, 3), _random_partition(rng, space, 4))
        structure = InformationStructure(space, Prior.uniform(space), ("A", "B"), players)
        first, second = _random_partition(rng, space, 6), _random_partition(rng, space, 6)
        is_imi(structure, first, second)
        assert tuple(first.masks) not in drawn
        scans += not refines(first, second)
    assert scans >= 30


def _with_blocks(space, k):
    head = tuple((s,) for s in space.states[: k - 1])
    return Partition(space, head + (space.states[k - 1 :],))


def test_dominance_refuses_an_over_cap_oracle_up_front(monkeypatch):
    # Only an oracle whose coarsenings a direction must scan is capped, and
    # every such oracle is checked before either direction scans anything.
    space = StateSpace(tuple(f"s{i}" for i in range(12)))
    structure = _one_player(space, (space.states,))
    scanned = []
    real = dominance._closure_scan
    monkeypatch.setattr(
        dominance, "_closure_scan", lambda *args: scanned.append(args) or real(*args)
    )
    # Eleven blocks against two that the first does not refine: forward
    # scans the two-block oracle, backward the eleven-block one.
    eleven, split = _with_blocks(space, 11), Partition(space, (space.states[:11], ("s11",)))
    refused = {
        is_imi: ((_with_blocks(space, 10), _with_blocks(space, 11), 11),),
        two_sided_imi_equal: (
            (_with_blocks(space, 10), _with_blocks(space, 11), 11),
            (_with_blocks(space, 12), _with_blocks(space, 11), 12),
            (eleven, split, 11),
        ),
    }
    for check, cases in refused.items():
        for first, second, named in cases:
            message = f"partition has {named} blocks; coarsening enumeration is capped at 10"
            with pytest.raises(ResourceLimitError, match=message):
                check(structure, first, second)
    assert scanned == []
    # A verdict decided by refinement is never refused.
    assert is_imi(structure, _with_blocks(space, 12), _with_blocks(space, 11)).holds
    assert is_imi(structure, _with_blocks(space, 11), _with_blocks(space, 11)).holds
    assert two_sided_imi_equal(structure, eleven, eleven).equivalent
    assert scanned == []


def test_imi_decides_a_non_refining_first_oracle_over_the_cap():
    # The paper's coarse-oracle example, with nine more states that the
    # player tells apart: each is its own block of the first oracle and all
    # sit in one block of the second. Merging such states changes no join,
    # so the verdicts are those of the four-state example.
    base = (("w1", "w2"), ("w3", "w4"))
    extra = tuple(f"x{i}" for i in range(9))
    apart = tuple((x,) for x in extra)
    space = StateSpace(tuple(w for block in base for w in block) + extra)
    structure = _one_player(space, base + apart)
    cases = (
        ((("w1", "w2", "w3"), ("w4",)), (("w1", "w2"), ("w3",), ("w4",)), True),
        (base, (("w1",), ("w2", "w3"), ("w4",)), False),
    )
    for small_first, small_second, holds in cases:
        assert oracles.naive_is_imi([base], small_first, small_second)[0] == holds
        first = Partition(space, small_first + apart)
        second = Partition(space, small_second + (extra,))
        assert len(first.blocks) > 10 and not refines(first, second)
        result = is_imi(structure, first, second)
        assert result.holds == holds
        if not holds:
            assert refines(second, result.witness)
            assert induced_profile(structure, result.witness) not in {
                induced_profile(structure, Partition(space, c + apart))
                for c in oracles.naive_coarsenings(small_first)
            }


def test_unique_ckc_dominates_is_refinement():
    finer = Partition(SPACE, (("w1",), ("w2",), ("w3", "w4")))
    coarser = Partition(SPACE, (("w1", "w2"), ("w3", "w4")))
    assert unique_ckc_dominates(CONNECTED, finer, coarser)
    assert not unique_ckc_dominates(CONNECTED, coarser, finer)


def test_restrict_to_ckc_renormalizes():
    sub = restrict_to_ckc(SPLIT, "w1")
    assert sub.space.states == ("w1", "w2")
    assert sub.prior.vector == (Fraction(1, 2), Fraction(1, 2))
    assert sub.players[0].blocks == (("w1", "w2"),)
    other = restrict_to_ckc(SPLIT, "w4")
    assert other.space.states == ("w3", "w4")
    assert other.players[0].blocks == (("w3",), ("w4",))


def test_common_objective_condition_definition():
    rng = random.Random(99)
    parts = [
        Partition(SPACE, blocks) for blocks in oracles.all_partitions(SPACE.states)
    ]
    for _ in range(30):
        f1, f2 = rng.choice(parts), rng.choice(parts)
        expected = all(
            oracles.naive_refines(
                oracles.naive_join(p.blocks, f1.blocks),
                oracles.naive_join(p.blocks, f2.blocks),
            )
            for p in CONNECTED.players
        )
        assert common_objective_condition(CONNECTED, f1, f2) == expected


# ---------------------------------------------------------------------------
# Garbling feasibility


def _random_stochastic_rows(rng, n_rows, n_cols):
    rows = []
    for _ in range(n_rows):
        nums = [rng.randint(0, 4) for _ in range(n_cols)]
        if sum(nums) == 0:
            nums[rng.randrange(n_cols)] = 1
        total = sum(nums)
        rows.append(tuple(Fraction(k, total) for k in nums))
    return rows


def test_garbling_exists_on_identity():
    m = StochasticMatrix(
        SPACE,
        ("c1", "c2"),
        tuple(_random_stochastic_rows(random.Random(3), 4, 2)),
    )
    result = garbling_exists(m, m)
    assert result.exists
    rebuilt = apply_garbling(m, result.garbling, result.col_labels)
    assert rebuilt.entries == m.entries


def test_garbling_recovers_random_composites():
    rng = random.Random(20240815)
    for _ in range(25):
        n_cols = rng.randint(2, 3)
        base = StochasticMatrix(
            SPACE,
            tuple(f"u{j}" for j in range(n_cols)),
            tuple(_random_stochastic_rows(rng, 4, n_cols)),
        )
        g_cols = rng.randint(1, 3)
        g0 = _random_stochastic_rows(rng, n_cols, g_cols)
        labels = tuple(f"v{j}" for j in range(g_cols))
        target = apply_garbling(base, g0, labels)
        result = garbling_exists(base, target)
        assert result.exists
        witness = apply_garbling(base, result.garbling, labels)
        assert witness.entries == target.entries
        for row in result.garbling:
            assert all(v >= 0 for v in row)
            assert sum(row) == 1


# apply_garbling refuses a malformed garbling, even one whose product would
# pass as a row-stochastic matrix: column u2 of BASE is 0, so its garbling row
# never shows in the product, and the two columns of EVEN are equal, so one
# row's negative entry can be offset by the other row.
BASE = StochasticMatrix(SPACE, ("u1", "u2"), ((Fraction(1), Fraction(0)),) * 4)
EVEN = StochasticMatrix(SPACE, ("u1", "u2"), ((Fraction(1, 2), Fraction(1, 2)),) * 4)


def _garbling(*rows):
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


def test_apply_garbling_refuses_a_short_row():
    with pytest.raises(InputError, match="row for column 'u2' has 1 entries, not 2"):
        apply_garbling(BASE, _garbling((1, 0), (1,)), ("v1", "v2"))


def test_apply_garbling_refuses_a_long_row():
    with pytest.raises(InputError, match="row for column 'u1' has 3 entries, not 2"):
        apply_garbling(BASE, _garbling((1, 0, 0), (1, 0)), ("v1", "v2"))


@pytest.mark.parametrize(
    "base, garbling, column",
    [
        (EVEN, _garbling(("3/2", "-1/2"), ("1/2", "1/2")), "u1"),  # the product is (1, 0)
        (BASE, _garbling((1, 0), (1, 1)), "u2"),
        (BASE, _garbling((1, 0), (0, 0)), "u2"),
    ],
)
def test_apply_garbling_refuses_a_row_that_is_not_a_distribution(base, garbling, column):
    with pytest.raises(InputError, match=f"row for column '{column}' is not a distribution"):
        apply_garbling(base, garbling, ("v1", "v2"))


@pytest.mark.parametrize("value", [0.5, True], ids=["float", "bool"])
def test_apply_garbling_refuses_a_float_and_a_bool(value):
    with pytest.raises(InputError, match="not a rational"):
        apply_garbling(BASE, ((value, 1 - value), (1, 0)), ("v1", "v2"))


def test_garbling_rejects_information_gains():
    # Both base columns treat w1 and w2 identically, so no garbling can
    # separate those states afterwards.
    base = StochasticMatrix(
        SPACE,
        ("u1", "u2"),
        (
            (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1)),
        ),
    )
    target = StochasticMatrix(
        SPACE,
        ("v1", "v2"),
        (
            (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1)),
        ),
    )
    result = garbling_exists(base, target)
    assert not result.exists
    assert result.garbling is None


def test_garbling_space_mismatch():
    a = StochasticMatrix(SPACE, ("c",), ((Fraction(1),),) * 4)
    b = StochasticMatrix(StateSpace(("x",)), ("c",), ((Fraction(1),),))
    with pytest.raises(DomainError):
        garbling_exists(a, b)


def test_garbling_agrees_with_vertex_oracle():
    rng = random.Random(6)
    for _ in range(10):
        base = StochasticMatrix(
            SPACE, ("u1", "u2"), tuple(_random_stochastic_rows(rng, 4, 2))
        )
        second = StochasticMatrix(
            SPACE, ("v1", "v2"), tuple(_random_stochastic_rows(rng, 4, 2))
        )
        # The whole feasibility system, for the independent basic-solution oracle.
        rows, rhs = oracles.dense_garbling_system(base.entries, second.entries)
        expected = oracles.feasible_nonneg_oracle(rows, rhs) is not None
        assert garbling_exists(base, second).exists == expected
