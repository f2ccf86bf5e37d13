"""Oracle-ranking decision procedures: matched coarsening profiles, two-sided
equivalence, refinement dominance, restriction to components, garbling
feasibility, and the common-objective condition."""

import random
from fractions import Fraction

import pytest

import oracles
from oraclegames import dominance
from oraclegames import (
    DomainError,
    InformationStructure,
    Partition,
    Prior,
    ResourceLimitError,
    StateSpace,
    StochasticMatrix,
    apply_garbling,
    ckc_decompose,
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
        assert result.as_tuple() == (
            result.forward.holds,
            result.backward.holds,
            result.equivalent,
        )


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


def test_dominance_refuses_an_over_cap_oracle_up_front(monkeypatch):
    space = StateSpace(tuple(f"s{i}" for i in range(12)))
    structure = InformationStructure(
        space, Prior.uniform(space), ("all",), (Partition.trivial(space),)
    )

    def with_blocks(k):
        head = tuple((s,) for s in space.states[: k - 1])
        return Partition(space, head + (space.states[k - 1 :],))

    drawn = []
    real = dominance._merged_masks

    def counted(masks, cap):
        return (drawn.append(merged) or merged for merged in real(masks, cap))

    monkeypatch.setattr(dominance, "_merged_masks", counted)
    for check in (is_imi, two_sided_imi_equal):
        for first, second, named in ((10, 11, 11), (12, 11, 12), (11, 11, 11)):
            message = f"partition has {named} blocks; coarsening enumeration is capped at 10"
            with pytest.raises(ResourceLimitError, match=message):
                check(structure, with_blocks(first), with_blocks(second))
    assert drawn == []


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
        # Rebuild the feasibility system exactly as an equality LP and give it
        # to the independent basic-solution oracle.
        rows, rhs = [], []
        for w in SPACE.states:
            frow, srow = base.row(w), second.row(w)
            for v in range(2):
                coeffs = [Fraction(0)] * 4
                for u in range(2):
                    coeffs[u * 2 + v] = frow[u]
                rows.append(coeffs)
                rhs.append(srow[v])
        for u in range(2):
            coeffs = [Fraction(0)] * 4
            for v in range(2):
                coeffs[u * 2 + v] = Fraction(1)
            rows.append(coeffs)
            rhs.append(Fraction(1))
        expected = oracles.feasible_nonneg_oracle(rows, rhs) is not None
        assert garbling_exists(base, second).exists == expected
