"""Core domain objects: rationals, spaces, distributions, partitions,
structures, and their JSON forms."""

import math
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
    assert parse_rational("-04/06") == Fraction(-2, 3)
    assert parse_rational(Fraction(1, 3)) == Fraction(1, 3)
    longest = "9" * 1000
    assert parse_rational(f"-{longest}/{longest}") == -1
    assert parse_rational(10**1000 - 1) == 10**1000 - 1


# Only -?[0-9]+(/[0-9]+)? is a rational string: no decimal point, exponent,
# underscore, sign on the denominator, whitespace or non-ASCII digit.
NOT_RATIONAL = [
    "0/00", "", "2.5", "1e-3", "1E3", "1_0", "1_0/2_0", "+1", "1/-2", "--1",
    " 1/2", "1/2 ", "1/2\n", "١/٢", "½", "inf", "nan", "1/2/3", "0x10",
]


@pytest.mark.parametrize("bad", [0.5, True, None, "1/0", "abc", [1], *NOT_RATIONAL])
def test_parse_rational_rejects_non_rationals(bad):
    with pytest.raises(InputError, match="^not a rational: "):
        parse_rational(bad)


def test_parse_rational_caps_the_digits_of_each_part():
    """A part of more than 1,000 digits, or an int of as many, is refused
    without echoing it."""
    long = "1" * 1001
    too_long = (long, f"-{long}", f"1/{long}", f"{long}/3", "1/" + "7" * 5000)
    for bad in (*too_long, 10**1000, -(10**1000)):
        with pytest.raises(InputError) as raised:
            parse_rational(bad)
        assert str(raised.value).startswith("not a rational: a")
        assert len(str(raised.value)) < 60


def test_format_rational_refuses_an_unprintable_value():
    """Past the interpreter's digit limit for int-to-string conversion a
    value cannot be printed; that is a ResourceLimitError, not a ValueError."""
    assert format_rational(Fraction(10**4000 + 1, 3)) == str(Fraction(10**4000 + 1, 3))
    for value in (Fraction(10**5000), Fraction(1, 7**6000)):
        with pytest.raises(oraclegames.ResourceLimitError, match="too many digits to print"):
            format_rational(value)


def test_a_sum_refusal_does_not_print_an_unbounded_value():
    """Masses of 1,000-digit denominators sum to a longer one; the refusal
    says so instead of printing it."""
    a, b, c = (Fraction(1, 10**999 + k) for k in (1, 3, 7))
    message = "^masses sum to a rational of more than 1000 digits, not 1$"
    with pytest.raises(InputError, match=message):
        Distribution(StateSpace(("x", "y", "z")), (a, b, c))
    with pytest.raises(InputError, match="^masses sum to 3/4, not 1$"):
        Distribution(StateSpace(("x", "y")), ("1/2", "1/4"))


# Each constructor reads its values through parse_rational, so a float or a
# bool is refused rather than taken as the rational it rounds to.
FLOAT_AND_BOOL = pytest.mark.parametrize("value", [0.5, True], ids=["float", "bool"])


@FLOAT_AND_BOOL
def test_distribution_refuses_a_float_and_a_bool(value):
    with pytest.raises(InputError, match="^distribution mass at state 'a': not a rational"):
        Distribution(SPACE, (value, 1 - value, 0, 0))


@FLOAT_AND_BOOL
def test_prior_refuses_a_float_and_a_bool(value):
    with pytest.raises(InputError, match="^prior mass at state 'a': not a rational"):
        Prior(SPACE, (value, Fraction(1, 4), Fraction(1, 4), Fraction(1, 2) - value))


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
    with pytest.raises(InputError, match="masses sum to 1/2, not 1"):
        Distribution.from_mass(SPACE, {"a": "1/2"})
    near = Fraction(1, 2) - Fraction(1, 10**40)
    with pytest.raises(InputError, match="not 1"):
        Distribution(SPACE, (near, Fraction(1, 2), Fraction(0), Fraction(0)))
    with pytest.raises(InputError, match="negative mass -1/2 at state 'b'"):
        Distribution.from_mass(SPACE, {"a": "3/2", "b": "-1/2"})
    with pytest.raises(InputError, match="distribution length does not match"):
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


def test_a_lazy_vector_is_still_a_required_field_and_is_kept_once_made():
    """``vector`` is made from the key on its first read and then kept; the
    public constructor still requires it and keeps the vector it checked."""
    with pytest.raises(TypeError, match="vector"):
        Distribution(SPACE)
    posterior = Distribution._on_block(SPACE, (1, 3), [2, 6])
    assert "vector" not in vars(posterior)
    made = posterior.vector
    assert made == (0, Fraction(1, 4), 0, Fraction(3, 4)) and posterior.vector is made
    public = Distribution(SPACE, ("0", "1/4", 0, Fraction(3, 4)))
    assert vars(public)["vector"] == made and public == posterior
    assert repr(public) == repr(posterior)


def test_block_constructor_matches_the_public_constructor():
    """The posterior constructor's key, vector, hash, equality and support
    are those of the public constructor on the same exact vector."""
    rng = random.Random(1618)
    space = StateSpace(tuple(f"s{i}" for i in range(6)))
    zero_mass = common_factor = 0
    for _ in range(2000):
        block = rng.sample(space.states, rng.randint(1, 6))
        factor = rng.choice((1, 2, 3, 12))
        masses = [factor * rng.randint(0, 4) for _ in block]
        if not any(masses):
            masses[0] = factor
        zero_mass += 0 in masses
        common_factor += math.gcd(*masses) > 1
        fast = Distribution._on_block(space, [space.index(s) for s in block], masses)
        at = dict(zip(block, masses))
        public = Distribution(space, tuple(Fraction(at.get(s, 0), sum(masses)) for s in space))
        assert fast._key == public._key and fast.vector == public.vector
        assert all(type(v) is Fraction for v in fast.vector)
        assert hash(fast) == hash(public) and fast == public and public == fast
        support = tuple(s for s in space.states if at.get(s, 0))
        assert fast.support() == public.support() == support
        assert len({fast, public}) == 1
    assert zero_mass > 200 and common_factor > 200


def test_prior_requires_full_support():
    with pytest.raises(InputError, match="prior must have full support; state 'b' has mass 0"):
        Prior.from_mass(SPACE, {"a": 1})
    with pytest.raises(InputError, match="prior must have full support; state 'd' has mass -2"):
        Prior.from_mass(SPACE, [1, 1, 1, -2])
    with pytest.raises(InputError, match="prior masses sum to 2, not 1"):
        Prior.from_mass(SPACE, ["1/2", "1/2", "1/2", "1/2"])
    with pytest.raises(InputError, match="prior length does not match"):
        Prior(SPACE, (Fraction(1),))
    assert type(Prior.from_mass(SPACE, ["1/4"] * 4)) is Prior
    prior = Prior.uniform(SPACE)
    assert isinstance(prior, Distribution)
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


def test_structure_refuses_misaligned_oracles_and_foreign_spaces():
    prior, part = Prior.uniform(SPACE), Partition.trivial(SPACE)
    other = StateSpace(("a", "b", "c", "e"))
    foreign = Partition.trivial(other)
    for players, oracle_names, oracles, message in (
        ((part,), ("F", "G"), (part,), "oracle names and partitions do not line up"),
        ((part,), ("F",), (foreign,), "partition 'F' is defined over a different state space"),
        ((foreign,), (), (), "partition 'P1' is defined over a different state space"),
    ):
        with pytest.raises(InputError, match=message):
            InformationStructure(SPACE, prior, ("P1",), players, oracle_names, oracles)
    with pytest.raises(InputError, match="prior is defined over a different state space"):
        InformationStructure(SPACE, Prior.uniform(other), ("P1",), (part,))


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
