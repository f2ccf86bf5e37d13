"""Lattice operations on partitions, cross-checked against the brute-force
reference implementations in oracles.py."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oraclegames import (
    DomainError,
    Partition,
    ResourceLimitError,
    StateSpace,
    StochasticSignaling,
    ckc_decompose,
    coarsenings,
    connect_path,
    join,
    refines,
)
from oraclegames.partitions import _merged_masks

STATES4 = ("a", "b", "c", "d")
SPACE4 = StateSpace(STATES4)
PARTS4 = [Partition(SPACE4, blocks) for blocks in oracles.all_partitions(STATES4)]


def test_bell_counts():
    assert [oracles.bell(n) for n in range(6)] == [1, 1, 2, 5, 15, 52]
    for n in range(1, 6):
        space = StateSpace(tuple(f"s{i}" for i in range(n)))
        assert len(coarsenings(Partition.singletons(space))) == oracles.bell(n)


def test_join_agrees_with_oracle_on_all_pairs():
    for p in PARTS4:
        for q in PARTS4:
            expected = oracles.canon(oracles.naive_join(p.blocks, q.blocks))
            assert oracles.canon(join(p, q).blocks) == expected


def test_meet_agrees_with_oracle_on_all_pairs():
    for p in PARTS4:
        for q in PARTS4:
            expected = oracles.canon(oracles.naive_meet((p.blocks, q.blocks), STATES4))
            assert oracles.canon(ckc_decompose((p, q)).blocks) == expected


def test_refines_agrees_with_oracle_on_all_pairs():
    for p in PARTS4:
        for q in PARTS4:
            assert refines(p, q) == oracles.naive_refines(p.blocks, q.blocks)


def test_coarsenings_agree_with_oracle():
    for p in PARTS4:
        expected = {oracles.canon(c) for c in oracles.naive_coarsenings(p.blocks)}
        actual = {oracles.canon(c.blocks) for c in coarsenings(p)}
        assert actual == expected
        assert len(coarsenings(p)) == oracles.bell(len(p.blocks))


def test_coarsenings_order_and_extremes():
    p = Partition.singletons(SPACE4)
    cs = coarsenings(p)
    assert cs[0] == Partition.trivial(SPACE4)  # everything merged comes first
    assert cs[-1] == p  # the identity coarsening comes last


def test_merged_masks_walk_the_restricted_growth_strings_in_order():
    # Group g of the i-th merged tuple is every mask whose entry in the i-th
    # restricted growth string is g; the masks are disjoint, shuffled bits.
    rng = random.Random(2032)
    for k in range(8):
        for _ in range(3):
            bits = rng.sample(range(12), k)
            masks = [(1 << b) | (rng.randrange(2) << (b + 12)) for b in bits]
            expected = [
                tuple(sum(m for m, a in zip(masks, rgs) if a == g) for g in range(len(set(rgs))))
                for rgs in oracles.restricted_growth_strings(k)
            ]
            assert list(_merged_masks(masks, 7)) == expected
            assert len(expected) == oracles.bell(k)
    with pytest.raises(ResourceLimitError, match="8 blocks"):
        _merged_masks([1 << b for b in range(8)], 7)  # refused before the first is drawn


def test_coarsenings_cap():
    space = StateSpace(tuple(f"s{i}" for i in range(11)))
    with pytest.raises(ResourceLimitError):
        coarsenings(Partition.singletons(space))
    assert len(coarsenings(Partition.singletons(space), cap=11)) > 0


def _random_partition(rng, space, most):
    return Partition(space, oracles.random_blocks(rng, space.states, most))


def _assert_equal_partitions(a, b):
    """``a`` and ``b`` agree in equality, hash, blocks, masks and the block of every state."""
    assert a == b and hash(a) == hash(b)
    assert a.blocks == b.blocks and a.masks == b.masks
    for state in a.space.states:
        assert a.block_of(state) == b.block_of(state)
        assert a.block_index(state) == b.block_index(state)


def _canonical(space, blocks):
    """``blocks`` sorted into canonical form: states in state order, blocks by least state."""
    inner = [sorted(block, key=space.index) for block in blocks]
    return tuple(tuple(block) for block in sorted(inner, key=lambda block: space.index(block[0])))


def _assert_rebuilds(rng, p, given):
    """``p``, built from the blocks ``given``, is the partition that the string
    constructor builds from those blocks shuffled (states and blocks) and that
    ``from_masks`` builds from its masks shuffled; its blocks are the sorted
    canonical form and its masks their bits."""
    space = p.space
    assert oracles.canon(p.blocks) == oracles.canon(given)
    assert p.blocks == _canonical(space, given)
    assert p.masks == tuple(sum(1 << space.index(s) for s in block) for block in p.blocks)
    shuffled = [tuple(rng.sample(block, len(block))) for block in given]
    rng.shuffle(shuffled)
    _assert_equal_partitions(p, Partition(space, tuple(shuffled)))
    _assert_equal_partitions(p, Partition.from_masks(space, rng.sample(p.masks, len(p.masks))))
    for state in space.states:
        assert state in p.block_of(state)
        assert p.blocks[p.block_index(state)] == p.block_of(state)


def test_mask_operations_agree_with_oracle_on_seeded_partitions():
    """Join, meet and refinement agree with the brute force, and every partition
    (given, joined, met, or induced by a seeded 0/1 kernel) is the same whether
    built from strings, from masks, or read through ``oracles.canon``."""
    rng = random.Random(2024)
    induced_with_unsent = 0
    for _ in range(60):
        space = StateSpace(tuple(f"w{i}" for i in range(rng.randint(6, 8))))
        parts = [_random_partition(rng, space, rng.randint(1, 6)) for _ in range(3)]
        p, q = parts[:2]
        naive_join = oracles.naive_join(p.blocks, q.blocks)
        assert oracles.canon(join(p, q).blocks) == oracles.canon(naive_join)
        expected = oracles.naive_meet(tuple(r.blocks for r in parts), space.states)
        meet = ckc_decompose(parts)
        assert oracles.canon(meet.blocks) == oracles.canon(expected)
        for a, b in ((p, q), (join(p, q), q), (q, meet), (meet, q)):
            assert refines(a, b) == oracles.naive_refines(a.blocks, b.blocks)
        for part, given in [*((r, r.blocks) for r in parts), (join(p, q), naive_join)]:
            _assert_rebuilds(rng, part, given)
        _assert_rebuilds(rng, meet, expected)

        sent = [rng.randrange(4) for _ in p.blocks]
        kernel = tuple(tuple(int(j == sent[p.block_index(s)]) for j in range(4)) for s in space)
        tau = StochasticSignaling(p, ("x0", "x1", "x2", "x3"), kernel)
        induced_with_unsent += len(tau.signals) < 4
        preimages = [
            tuple(s for s, row in zip(space.states, tau.kernel) if row[j])
            for j in range(len(tau.signals))
        ]
        _assert_equal_partitions(tau.induced_partition(), Partition(space, tuple(preimages)))
        _assert_rebuilds(rng, tau.induced_partition(), preimages)
    assert induced_with_unsent > 10


def test_coarsenings_follow_the_set_partitions_order():
    rng = random.Random(5)
    for _ in range(12):
        space = StateSpace(tuple(f"w{i}" for i in range(rng.randint(4, 8))))
        p = _random_partition(rng, space, 6)
        naive = [oracles.canon(c) for c in oracles.naive_coarsenings(p.blocks)]
        assert [oracles.canon(c.blocks) for c in coarsenings(p)] == naive


def test_join_and_meet_lattice_laws():
    for p in PARTS4:
        for q in PARTS4:
            j = join(p, q)
            m = ckc_decompose((p, q))
            assert refines(j, p) and refines(j, q)  # join refines both
            assert refines(p, m) and refines(q, m)  # both refine the meet
            assert (join(p, q) == p) == refines(p, q)
            assert (ckc_decompose((p, q)) == p) == refines(q, p)


def test_meet_of_many_partitions():
    parts = [
        Partition(SPACE4, (("a", "b"), ("c",), ("d",))),
        Partition(SPACE4, (("a",), ("b", "c"), ("d",))),
        Partition(SPACE4, (("a",), ("b",), ("c",), ("d",))),
    ]
    expected = oracles.canon(
        oracles.naive_meet(tuple(p.blocks for p in parts), STATES4)
    )
    assert oracles.canon(ckc_decompose(parts).blocks) == expected
    assert ckc_decompose(parts).blocks == (("a", "b", "c"), ("d",))


def test_connect_path_within_component():
    players = (
        Partition(SPACE4, (("a", "b"), ("c", "d"))),
        Partition(SPACE4, (("a",), ("b", "c"), ("d",))),
    )
    path = connect_path(players, "a", "d")
    assert path is not None
    states = [s for s, _ in path]
    assert states[0] == "a" and states[-1] == "d"
    assert path[-1][1] is None
    for (s, who), (t, _) in zip(path, path[1:]):
        assert who is not None
        block = players[who].block_of(s)
        assert t in block  # each hop stays inside the named player's block


def test_connect_path_self_and_disconnected():
    players = (
        Partition(SPACE4, (("a", "b"), ("c", "d"))),
        Partition(SPACE4, (("a", "b"), ("c",), ("d",))),
    )
    assert connect_path(players, "b", "b") == (("b", None),)
    assert connect_path(players, "a", "c") is None
    with pytest.raises(DomainError):
        connect_path((), "a", "b")


def test_connect_path_consistent_with_meet():
    for p in PARTS4[:8]:
        for q in PARTS4[:8]:
            meet = ckc_decompose((p, q))
            for a in STATES4:
                for b in STATES4:
                    reachable = connect_path((p, q), a, b) is not None
                    assert reachable == (meet.block_of(a) == meet.block_of(b))


@st.composite
def partition_pair(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    states = tuple(f"s{i}" for i in range(n))
    space = StateSpace(states)
    choices = oracles.all_partitions(states)
    p = draw(st.sampled_from(choices))
    q = draw(st.sampled_from(choices))
    return space, Partition(space, p), Partition(space, q)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(partition_pair())
def test_refines_is_a_partial_order(pair):
    _, p, q = pair
    assert refines(p, p)
    if refines(p, q) and refines(q, p):
        assert p == q  # antisymmetry on canonical forms


@settings(derandomize=True, max_examples=60, deadline=None)
@given(partition_pair())
def test_join_commutes_and_is_idempotent(pair):
    _, p, q = pair
    assert join(p, q) == join(q, p)
    assert join(p, p) == p
    assert join(p, Partition.trivial(p.space)) == p
    assert join(p, Partition.singletons(p.space)) == Partition.singletons(p.space)
