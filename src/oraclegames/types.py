"""Exact-arithmetic domain objects: state spaces, distributions, priors,
partitions, and multi-player information structures, plus their JSON forms.

Every probability is exact, a Fraction or integers over a common denominator;
floats are rejected at parse time. A prior is a distribution with full support;
every distribution is checked on one integer key, its masses over their common
denominator. The library's own posteriors build only that key, unchecked, and
their Fraction vector on its first read. Only this module scales by a
denominator or divides by a gcd: ``_over_lcm``, ``_over_common``, ``_reduced``.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import InputError, ResourceLimitError


def check_label(kind: str, label: object, reserved: str = "|") -> str:
    """``label`` if it is a nonempty string free of the ``reserved``
    characters; otherwise an InputError naming the ``kind`` of label."""
    if not isinstance(label, str) or not label:
        raise InputError(f"{kind} labels must be nonempty strings, got {label!r}")
    for ch in reserved:
        if ch in label:
            raise InputError(f"{kind} label {label!r} may not contain {ch!r}")
    return label


_DIGITS = 1000  # the most digits of an input rational's part, far below CPython's 4,300
_BOUND = 10**_DIGITS
_RATIONAL = re.compile(f"(-?[0-9]{{1,{_DIGITS}}})(?:/([0-9]{{1,{_DIGITS}}}))?")


def parse_rational(value: object) -> Fraction:
    """Turn an int or an ASCII "p" or "p/q" string (decimal digits, an
    optional leading minus, q > 0) into a Fraction; a Fraction is kept.
    Floats, bools and parts of more than ``_DIGITS`` digits are refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"not a rational: {value!r}")
    if isinstance(value, int):
        if -_BOUND < value < _BOUND:
            return Fraction(value)
        raise InputError(f"not a rational: an integer of more than {_DIGITS} digits")
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        if match:
            p, q = match.groups()
            if q is None:
                return Fraction(int(p))
            if q.strip("0"):
                return Fraction(int(p), int(q))
        elif re.fullmatch("-?[0-9]+(?:/[0-9]+)?", value):  # the grammar, past the digit cap
            raise InputError(f"not a rational: a part of more than {_DIGITS} digits")
        raise InputError(f"not a rational: {value!r}")
    raise InputError(f"not a rational: {value!r} (floats are not accepted)")


def _parsed(value: object, what: str) -> Fraction:
    """``parse_rational(value)``, a refusal prefixed with ``what``, the place of the value."""
    try:
        return parse_rational(value)
    except InputError as exc:
        raise InputError(f"{what}: {exc}") from None


def json_object(value: object, what: str, *keys: str) -> Mapping:
    """``value`` if it is a JSON object holding every one of ``keys``;
    otherwise an InputError naming ``what`` (and the first missing key)."""
    if not isinstance(value, Mapping):
        raise InputError(f"{what} must be a JSON object, got {value!r}")
    for key in keys:
        if key not in value:
            raise InputError(f"{what} is missing its '{key}' field")
    return value


def json_record(value: object, what: str, *keys: str, optional: tuple[str, ...] = ()) -> Mapping:
    """``value`` if it is a JSON object holding every one of ``keys`` and no
    other key but those in ``optional``; otherwise an InputError naming ``what``."""
    json_object(value, what, *keys)
    unknown = sorted(set(value) - set(keys) - set(optional))
    if unknown:
        raise InputError(f"{what} has an unexpected '{unknown[0]}' field")
    return value


def json_list(value: object, what: str) -> Sequence:
    """``value`` if it is a JSON list; otherwise an InputError naming ``what``."""
    if not isinstance(value, (list, tuple)):
        raise InputError(f"{what} must be a JSON list, got {value!r}")
    return value


def check_labels(kind: str, value: object, what: str, reserved: str = "|") -> tuple[str, ...]:
    """The JSON list ``value`` (named ``what``) as a tuple of checked labels."""
    return tuple(check_label(kind, label, reserved) for label in json_list(value, what))


def format_rational(value: Fraction) -> str:
    """``value`` as "p" or "p/q"; a ResourceLimitError when a part has more
    digits than the interpreter converts to a string."""
    try:
        return str(value)
    except ValueError:
        raise ResourceLimitError("a rational has too many digits to print") from None


def _shown(value: Fraction) -> str:
    """``value`` for a refusal message: as printed while no part passes
    ``_DIGITS`` digits, else only that it is longer."""
    if abs(value.numerator) < _BOUND and value.denominator < _BOUND:
        return str(value)
    return f"a rational of more than {_DIGITS} digits"


@dataclass(frozen=True)
class StateSpace:
    """Ordered finite set of distinct state labels.

    The construction order is fixed and used for every canonical
    serialization (vectors, block sorting, reports); bit i of a mask is state i.
    """

    states: tuple[str, ...]
    _position: dict[str, int] = field(init=False, compare=False, repr=False)
    _blocks: dict[int, tuple] = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        if not self.states:
            raise InputError("state space must contain at least one state")
        position = {}
        for i, s in enumerate(self.states):
            # In a strategy key "|" ends a block and "," separates its states.
            check_label("state", s, "|,")
            if position.setdefault(s, i) != i:
                raise InputError(f"duplicate state label '{s}'")
        object.__setattr__(self, "_position", position)

    def index(self, state: str) -> int:
        try:
            return self._position[state]
        except (KeyError, TypeError):
            raise InputError(f"unknown state '{state}'") from None

    def states_of(self, mask: int) -> tuple[str, ...]:
        """The states whose bits are set in ``mask``, in state order; one shared tuple per mask."""
        if mask not in self._blocks:
            self._blocks[mask] = tuple(s for i, s in enumerate(self.states) if mask >> i & 1)
        return self._blocks[mask]

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self):
        return iter(self.states)

    def __contains__(self, state: object) -> bool:
        return isinstance(state, str) and state in self._position


def _vector_from(space: StateSpace, mass: object, what: str = "masses") -> tuple[object, ...]:
    """The masses of a JSON object or list in state order, unparsed."""
    if isinstance(mass, Mapping):
        for state in mass:
            space.index(state)
        return tuple(mass.get(s, 0) for s in space.states)
    if not isinstance(mass, (list, tuple)):
        raise InputError(f"{what} must be a JSON object or list, got {mass!r}")
    if len(mass) != len(space):
        raise InputError(
            f"expected {len(space)} masses for states {list(space.states)}, got {len(mass)}"
        )
    return tuple(mass)


def _unchecked(cls: type, **fields: object):
    """An instance of ``cls`` holding ``fields``, built without its constructor or checks:
    the one builder of objects computed exactly from checked ones, which the caller vouches for."""
    self = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(self, name, value)
    return self


class _Lazy(cached_property):
    """A lock-free ``cached_property`` that a dataclass takes as a field with no default."""

    def __get__(self, instance: object, owner: type = None):
        if instance is None:
            raise AttributeError(self.attrname)  # a dataclass then sees no default
        return vars(instance).setdefault(self.attrname, self.func(instance))


_ZERO = Fraction(0)  # every zero ``_fractions`` makes; tuples compare it by identity


def _over_lcm(vector: Sequence[Fraction]) -> tuple[int, ...]:
    """``(d, n_1 * d / d_1, ...)``: ``vector`` as integers over d, the lcm of its denominators."""
    d = lcm(*(v.denominator for v in vector))
    return (d, *(v.numerator * (d // v.denominator) for v in vector))


def _over_common(keys: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Each key ``(T, m_1, ...)`` as ``(m_1 * L / T, ...)``, L the lcm of the keys' totals T."""
    scale = lcm(*[key[0] for key in keys])
    return [tuple([n * f for n in key[1:]]) for key in keys for f in [scale // key[0]]]


def _fractions(key: Sequence[int]) -> tuple[Fraction, ...]:
    """The masses of the key ``(T, m_1, ...)`` as Fractions ``m_i / T``."""
    return tuple([Fraction(n, key[0]) if n else _ZERO for n in key[1:]])


def _reduced(values: Sequence[int]) -> Sequence[int]:
    """``values`` divided by their gcd g, as a list; ``values`` itself, uncopied, when g
    is 0 or 1. So ``(T, m_1, ...)``, integer masses m over their total T > 0, becomes
    the key of m/T: T/g is the lcm of the reduced denominators of m/T."""
    g = gcd(*values)
    return values if g < 2 else [v // g for v in values]


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability distribution over a state space; masses sum to exactly 1.
    The constructor computes an integer key once, ``(d, n_1 * d / d_1,
    ...)`` with ``d`` the lcm of the denominators ``d_i``: the vector sums to
    1 exactly when the other entries sum to ``d``, and equality and hashing
    read the key. ``_on_block`` builds only the key, unchecked, and ``vector``
    is made from it on its first read. A ``Prior`` has full support."""

    space: StateSpace
    vector: tuple[Fraction, ...] = _Lazy(lambda self: _fractions(self._key))
    _key: tuple[int, ...] = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False)

    def __post_init__(self):
        name, vector = type(self).__name__.lower(), tuple(self.vector)
        if len(vector) != len(self.space):
            raise InputError(f"{name} length does not match the state space")
        at = (f"{name} mass at state '{s}'" for s in self.space.states)
        vector = tuple(map(_parsed, vector, at))
        object.__setattr__(self, "vector", vector)
        key = _over_lcm(vector)
        self._check_masses(sum(key[1:]) == key[0])
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def _check_masses(self, sums_to_one: bool) -> None:
        """Refuse a negative mass, then masses that do not sum to 1."""
        for s, v in zip(self.space.states, self.vector):
            if v < 0:
                raise InputError(f"negative mass {_shown(v)} at state '{s}'")
        if not sums_to_one:
            raise InputError(f"masses sum to {_shown(sum(self.vector))}, not 1")

    @classmethod
    def _on_block(cls, space: StateSpace, block: Sequence[str], masses: list[int]) -> Distribution:
        """Integer ``masses`` m >= 0 on ``block`` over their total T > 0, 0 elsewhere, unchecked;
        the key is ``_reduced((T, m, ...))``, the masses reduced alone, as their gcd divides T."""
        reduced = _reduced(masses)
        key = [sum(reduced)] + [0] * len(space)
        for state, m in zip(block, reduced):
            key[space._position[state] + 1] = m
        key = tuple(key)
        return _unchecked(cls, space=space, _key=key, _hash=hash(key))

    def __eq__(self, other: object) -> bool:
        return (
            other.__class__ is self.__class__
            and self._key == other._key
            and (self.space is other.space or self.space == other.space)
        )

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_mass(cls, space: StateSpace, mass: object) -> "Distribution":
        return cls(space, _vector_from(space, mass))

    def of(self, state: str) -> Fraction:
        return self.vector[self.space.index(state)]

    def support(self) -> tuple[str, ...]:
        return tuple(s for s, n in zip(self.space.states, self._key[1:]) if n)

    def as_strings(self) -> list[str]:
        return [format_rational(v) for v in self.vector]


class Prior(Distribution):
    """Full-support prior: every state carries strictly positive mass.

    Full support is required, not optional: the witness-game constructions
    divide by per-state and per-block masses.
    """

    def _check_masses(self, sums_to_one: bool) -> None:
        """The full-support rule: refuse a mass that is not positive, then a sum other than 1."""
        for s, v in zip(self.space.states, self.vector):
            if v <= 0:
                raise InputError(f"prior must have full support; state '{s}' has mass {_shown(v)}")
        if not sums_to_one:
            raise InputError(f"prior masses sum to {_shown(sum(self.vector))}, not 1")

    @classmethod
    def uniform(cls, space: StateSpace) -> "Prior":
        n = len(space)
        return cls(space, tuple(Fraction(1, n) for _ in range(n)))

    def event_mass(self, event: Iterable[str]) -> Fraction:
        return sum((self.of(s) for s in set(event)), Fraction(0))

    def min_mass(self) -> Fraction:
        return min(self.vector)


def _block_masks(space: StateSpace, blocks: Iterable[Iterable[str]]) -> Iterator[int]:
    """Each block as a mask, drawn as ``Partition._build`` checks them. A block with a repeat
    yields its states' bits in state order, and ``_build`` refuses the repeat first."""
    for block in blocks:
        try:
            mask = sum(map((1).__lshift__, map(space._position.__getitem__, block)))
        except (KeyError, TypeError):
            mask = sum(1 << space.index(s) for s in block)  # names the unknown state
        if mask.bit_count() != len(block):  # a sum of distinct bits has one bit each
            yield from sorted(1 << space._position[s] for s in block)
        if mask not in space._blocks:  # the tuple states_of would build, from the block
            space._blocks[mask] = tuple(sorted(block, key=space._position.__getitem__))
        yield mask


@dataclass(frozen=True, slots=True)
class Partition:
    """Disjoint cover of the state space, checked and built from its block masks (bit i =
    state i) sorted by least state: ``blocks`` (in state order, one shared tuple per mask)
    and ``_block_at`` (each state's block) derive from them. Strings only turn into masks."""

    space: StateSpace
    blocks: tuple[tuple[str, ...], ...]
    masks: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _block_at: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self._build(_block_masks(self.space, self.blocks))

    def _build(self, masks: Iterable[int]) -> "Partition":
        """Refuse, mask by mask, a zero mask, a bit outside the space or the lowest state of an
        earlier mask, then an uncovered state; set the fields from the masks by least state."""
        states, position, of = self.space.states, self.space._position, self.space.states_of
        full, seen, taken, ordered = (1 << len(states)) - 1, 0, [], True
        for mask in masks:
            if not mask:
                raise InputError("partition contains an empty block")
            if mask < 0 or mask > full:
                raise InputError(f"a partition mask sets a bit outside the {len(states)} states")
            if mask & seen:
                raise InputError(f"state '{of(mask & seen)[0]}' appears in more than one block")
            ordered = ordered and mask & (seen + 1)  # the mask holds the least uncovered state
            seen |= mask
            taken.append(mask)
        if seen != full:
            raise InputError(f"partition blocks do not cover state '{of(full & ~seen)[0]}'")
        if not ordered:
            taken.sort(key=lambda mask: mask & -mask)
        blocks = tuple(map(of, taken))
        block_at = [0] * len(states)
        for b, block in enumerate(blocks):
            for state in block:
                block_at[position[state]] = b
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "masks", tuple(taken))
        object.__setattr__(self, "_block_at", tuple(block_at))
        return self

    @classmethod
    def from_masks(cls, space: StateSpace, masks: Iterable[int]) -> "Partition":
        """The partition whose blocks are ``masks``, in any order, checked by ``_build``."""
        return _unchecked(cls, space=space)._build(masks)

    @classmethod
    def trivial(cls, space: StateSpace) -> "Partition":
        return cls.from_masks(space, ((1 << len(space)) - 1,))

    @classmethod
    def singletons(cls, space: StateSpace) -> "Partition":
        return cls.from_masks(space, (1 << i for i in range(len(space))))

    def block_of(self, state: str) -> tuple[str, ...]:
        return self.blocks[self._block_at[self.space.index(state)]]

    def block_index(self, state: str) -> int:
        return self._block_at[self.space.index(state)]

    def restrict(self, new_space: StateSpace) -> "Partition":
        """Intersect every block with a sub-space, dropping empties."""
        blocks = (tuple(s for s in block if s in new_space) for block in self.blocks)
        return Partition(new_space, tuple(b for b in blocks if b))

    def as_json(self) -> list[list[str]]:
        return [list(b) for b in self.blocks]


@dataclass(frozen=True)
class InformationStructure:
    """A state space with a full-support prior, named player partitions
    (n >= 1), and named oracle partitions."""

    space: StateSpace
    prior: Prior
    player_names: tuple[str, ...]
    players: tuple[Partition, ...]
    oracle_names: tuple[str, ...] = ()
    oracles: tuple[Partition, ...] = ()

    def __post_init__(self):
        if len(self.player_names) != len(self.players) or not self.players:
            raise InputError("need at least one named player partition")
        if len(self.oracle_names) != len(self.oracles):
            raise InputError("oracle names and partitions do not line up")
        if self.prior.space != self.space:
            raise InputError("prior is defined over a different state space")
        for name, part in zip(self.player_names + self.oracle_names, self.players + self.oracles):
            if part.space != self.space:
                raise InputError(f"partition '{name}' is defined over a different state space")
        for names, kind in ((self.player_names, "player"), (self.oracle_names, "oracle")):
            if len(set(names)) != len(names):
                raise InputError(f"duplicate {kind} name")

    @property
    def n(self) -> int:
        return len(self.players)

    def player_index(self, name: str) -> int:
        try:
            return self.player_names.index(name)
        except ValueError:
            raise InputError(
                f"unknown player '{name}' (players: {', '.join(self.player_names)})"
            ) from None

    def oracle(self, name: str) -> Partition:
        try:
            return self.oracles[self.oracle_names.index(name)]
        except ValueError:
            raise InputError(
                f"unknown oracle '{name}' (oracles: {', '.join(self.oracle_names) or 'none'})"
            ) from None


# ---------------------------------------------------------------------------
# JSON forms


def partition_from_json(space: StateSpace, blocks: object, what: str = "partition") -> Partition:
    """A partition written as a JSON list of blocks, each a list of states;
    a refusal names ``what``."""
    given = tuple(tuple(json_list(b, f"a block of {what}")) for b in json_list(blocks, what))
    try:
        return Partition(space, given)
    except InputError as exc:
        raise InputError(f"{what}: {exc}") from None


def _named_partitions(
    space: StateSpace, entries: object, kind: str, entry: str
) -> tuple[tuple[str, ...], tuple[Partition, ...]]:
    """The names and partitions of a structure's 'players' or 'oracles' list."""
    names, partitions = [], []
    for item in json_list(entries, f"structure '{kind}s'"):
        item = json_record(item, entry, "name", "partition")
        names.append(check_label(kind, item["name"], ""))
        what = f"{kind} '{names[-1]}' partition"
        partitions.append(partition_from_json(space, item["partition"], what))
    return tuple(names), tuple(partitions)


def structure_from_json(data: object) -> InformationStructure:
    data = json_record(data, "structure", "states", "prior", "players", optional=("oracles",))
    space = StateSpace(tuple(json_list(data["states"], "structure 'states'")))
    prior = Prior(space, _vector_from(space, data["prior"], "structure 'prior'"))
    player_names, players = _named_partitions(space, data["players"], "player", "a player entry")
    oracle_names, oracles = _named_partitions(
        space, data.get("oracles", []), "oracle", "an oracle entry"
    )
    return InformationStructure(space, prior, player_names, players, oracle_names, oracles)


def load_json(path: str) -> object:
    """The JSON value in a UTF-8 file; a file that cannot be read or parsed
    is an InputError naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise InputError(f"invalid JSON in {path}: {exc}") from None


def load_structure(path: str) -> InformationStructure:
    return structure_from_json(load_json(path))
