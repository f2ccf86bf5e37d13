"""Core domain objects: rationals, spaces, distributions, partitions,
structures, and their JSON forms."""

import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oraclegames
from oraclegames import (
    BayesianGame,
    Distribution,
    InformationStructure,
    InputError,
    Partition,
    Prior,
    StateSpace,
    StochasticSignaling,
    det_posterior,
    format_rational,
    parse_rational,
    structure_from_json,
)

SPACE = StateSpace(("a", "b", "c", "d"))


def test_parse_rational_accepts_ints_and_strings():
    assert parse_rational(3) == Fraction(3)
    assert parse_rational("2/7") == Fraction(2, 7)
    assert parse_rational("-5") == Fraction(-5)
    assert parse_rational(Fraction(1, 3)) == Fraction(1, 3)


@pytest.mark.parametrize("bad", [0.5, True, None, "1/0", "abc", [1]])
def test_parse_rational_rejects_non_rationals(bad):
    with pytest.raises(InputError):
        parse_rational(bad)


def test_format_rational_round_trips():
    for value in (Fraction(0), Fraction(3, 7), Fraction(-22, 5), Fraction(4)):
        assert parse_rational(format_rational(value)) == value


def test_state_space_validation():
    with pytest.raises(InputError):
        StateSpace(())
    with pytest.raises(InputError):
        StateSpace(("a", "a"))
    with pytest.raises(InputError):
        StateSpace(("a,b",))
    with pytest.raises(InputError):
        StateSpace(("a|b",))
    with pytest.raises(InputError):
        StateSpace(("a", ""))
    assert SPACE.index("c") == 2
    with pytest.raises(InputError):
        SPACE.index("z")


def test_distribution_validation_and_accessors():
    d = Distribution.from_mass(SPACE, {"a": "1/2", "c": "1/2"})
    assert d.of("a") == Fraction(1, 2)
    assert d.of("b") == 0
    assert d.support() == ("a", "c")
    assert d.as_strings() == ["1/2", "0", "1/2", "0"]
    with pytest.raises(InputError):
        Distribution.from_mass(SPACE, {"a": "1/2"})
    with pytest.raises(InputError):
        Distribution.from_mass(SPACE, {"a": "3/2", "b": "-1/2"})
    with pytest.raises(InputError):
        Distribution(SPACE, (Fraction(1),))


def test_distribution_is_hashable_and_value_equal():
    d1 = Distribution.from_mass(SPACE, ["1/2", "1/2", 0, 0])
    d2 = Distribution.from_mass(SPACE, {"a": "1/2", "b": "1/2"})
    assert d1 == d2
    assert len({d1, d2}) == 1


def test_distribution_equality_and_hash_read_the_exact_values():
    half = [
        Distribution.from_mass(SPACE, ["2/4", "2/4", 0, 0]),
        Distribution(SPACE, (Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0))),
        Distribution.from_mass(SPACE, {"a": "1/2", "b": "3/6"}),
    ]
    point = [
        Distribution(SPACE, (1, 0, 0, 0)),
        Distribution.from_mass(SPACE, ["2/2", "0/4", 0, "0"]),
        Distribution(SPACE, (Fraction(1), Fraction(0), Fraction(0), Fraction(0))),
    ]
    for group in (half, point):
        assert all(d == group[0] and hash(d) == hash(group[0]) for d in group)
    assert half[0] != point[0]
    other = StateSpace(("a", "b", "c", "e"))
    assert Distribution(other, (1, 0, 0, 0)) != point[0]
    prior = Prior.uniform(SPACE)
    uniform = Distribution(SPACE, prior.vector)
    assert uniform != prior and prior != uniform
    assert len({uniform, prior}) == 2


def test_distribution_equality_matches_vector_equality():
    rng = random.Random(2718)
    spaces = (SPACE, StateSpace(("a", "b", "c", "e")))
    pool = []
    for _ in range(200):
        weights = [rng.choice((0, 1, 2, 3)) for _ in range(3)] + [1]
        rng.shuffle(weights)
        scale = rng.randint(1, 3)  # the same vector, written over other denominators
        vector = tuple(f"{w * scale}/{sum(weights) * scale}" for w in weights)
        pool.append(Distribution.from_mass(rng.choice(spaces), vector))
    equal_pairs = 0
    for a in pool:
        for b in pool:
            same = a.vector == b.vector and a.space == b.space
            assert (a == b) is same
            if same:
                equal_pairs += 1
                assert hash(a) == hash(b)
    assert equal_pairs > len(pool)  # more than each with itself


def test_prior_requires_full_support():
    with pytest.raises(InputError):
        Prior.from_mass(SPACE, {"a": 1})
    prior = Prior.uniform(SPACE)
    assert prior.of("b") == Fraction(1, 4)
    assert prior.event_mass(("a", "b", "a")) == Fraction(1, 2)
    assert prior.min_mass() == Fraction(1, 4)


def test_conditional_restricts_and_renormalizes():
    """Under an uninformative signal a posterior is the prior conditioned on
    the player's block."""
    prior = Prior.from_mass(SPACE, {"a": "1/2", "b": "1/4", "c": "1/8", "d": "1/8"})
    player = Partition(SPACE, (("a",), ("b", "c"), ("d",)))
    structure = InformationStructure(SPACE, prior, ("P",), (player,))
    uninformative = StochasticSignaling.from_assignment(Partition.trivial(SPACE), ["u0"])
    cond = det_posterior(structure, 0, uninformative, "b")
    assert cond.vector == (0, Fraction(2, 3), Fraction(1, 3), 0)


def _one_action_game(action):
    space = StateSpace(("x",))
    structure = InformationStructure(
        space, Prior.uniform(space), ("A",), (Partition.trivial(space),)
    )
    return BayesianGame(structure, ((action,),), {("x", (action,)): (Fraction(0),)})


def _one_signal_kernel(signal):
    return StochasticSignaling.from_assignment(Partition.trivial(SPACE), [signal])


@pytest.mark.parametrize(
    "build, label, message",
    [
        (lambda s: StateSpace(("a", s)), "", "state labels must be nonempty strings, got ''"),
        (lambda s: StateSpace(("a", s)), "b|c", "state label 'b|c' may not contain '|'"),
        (lambda s: StateSpace(("a", s)), "b,c", "state label 'b,c' may not contain ','"),
        (_one_action_game, "", "action labels must be nonempty strings, got ''"),
        (_one_action_game, "l|r", "action label 'l|r' may not contain '|'"),
        (_one_signal_kernel, "", "signal labels must be nonempty strings, got ''"),
        (_one_signal_kernel, "s|t", "signal label 's|t' may not contain '|'"),
    ],
    ids=[
        "state-empty", "state-bar", "state-comma",
        "action-empty", "action-bar", "signal-empty", "signal-bar",
    ],
)
def test_label_messages(build, label, message):
    with pytest.raises(InputError) as caught:
        build(label)
    assert str(caught.value) == message


def test_partition_canonical_form():
    p = Partition(SPACE, (("d", "b"), ("c", "a")))
    assert p.blocks == (("a", "c"), ("b", "d"))
    assert Partition(p.space, p.blocks) == p
    assert p.block_of("d") == ("b", "d")
    assert p.block_index("c") == 0
    assert p == Partition(SPACE, (("a", "c"), ("d", "b")))


def test_partition_validation():
    with pytest.raises(InputError):
        Partition(SPACE, (("a", "b"),))  # does not cover c, d
    with pytest.raises(InputError):
        Partition(SPACE, (("a", "b"), ("b", "c", "d")))  # overlap
    with pytest.raises(InputError):
        Partition(SPACE, (("a", "b"), (), ("c", "d")))  # empty block


def test_partition_restrict_drops_empty_intersections():
    p = Partition(SPACE, (("a", "b"), ("c",), ("d",)))
    sub = StateSpace(("a", "b", "c"))
    assert p.restrict(sub).blocks == (("a", "b"), ("c",))


def test_structure_validation():
    prior = Prior.uniform(SPACE)
    part = Partition.trivial(SPACE)
    with pytest.raises(InputError):
        InformationStructure(SPACE, prior, (), ())
    with pytest.raises(InputError):
        InformationStructure(SPACE, prior, ("P1", "P1"), (part, part))
    st_ok = InformationStructure(SPACE, prior, ("P1",), (part,), ("F",), (part,))
    assert st_ok.n == 1
    assert st_ok.player_index("P1") == 0
    with pytest.raises(InputError):
        st_ok.player_index("nobody")
    assert st_ok.oracle("F") == part
    with pytest.raises(InputError):
        st_ok.oracle("missing")


def test_structure_from_json():
    data = {
        "states": ["a", "b", "c", "d"],
        "prior": {"a": "1/4", "b": "1/4", "c": "1/4", "d": "1/4"},
        "players": [
            {"name": "P1", "partition": [["a", "b"], ["c", "d"]]},
            {"name": "P2", "partition": [["a"], ["b", "c"], ["d"]]},
        ],
        "oracles": [{"name": "F", "partition": [["a", "b", "c", "d"]]}],
    }
    structure = structure_from_json(data)
    assert structure.space == SPACE
    assert structure.players[1].block_of("c") == ("b", "c")
    assert structure.oracle("F") == Partition.trivial(SPACE)
    with pytest.raises(InputError):
        structure_from_json({"states": ["a"]})
    with pytest.raises(InputError):
        structure_from_json("not an object")


@st.composite
def rational_vectors(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    nums = draw(
        st.lists(st.integers(min_value=1, max_value=30), min_size=n, max_size=n)
    )
    total = sum(nums)
    return [Fraction(k, total) for k in nums]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(rational_vectors())
def test_distribution_accepts_any_exact_unit_vector(vector):
    space = StateSpace(tuple(f"s{i}" for i in range(len(vector))))
    d = Distribution(space, tuple(vector))
    assert sum(d.vector) == 1
    assert all(v >= 0 for v in d.vector)


def test_public_names_are_no_modules():
    assert "types" not in oraclegames.__all__
    for name in oraclegames.__all__:
        assert not isinstance(getattr(oraclegames, name), types.ModuleType), name
