"""Signaling functions measurable over an oracle partition, Bayesian
posteriors, joint-posterior atlases, Blackwell experiment matrices, garbling
lifts, a deterministic two-signal separating construction, and
column-proportionality decomposition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import DomainError, InputError
from .types import (
    Distribution,
    InformationStructure,
    Partition,
    Prior,
    StateSpace,
    _fractions,
    _Lazy,
    _over_common,
    _over_lcm,
    _parsed,
    _reduced,
    _shown,
    _unchecked,
    check_label,
    check_labels,
    format_rational,
    json_list,
    json_object,
    json_record,
    parse_rational,
    partition_from_json,
)


def _stochastic_rows(
    space: StateSpace, labels: Sequence[str], rows: Sequence[Sequence], what: str, kind: str
) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[tuple[int, ...], ...]]:
    """``rows`` read by ``parse_rational`` and each row's ``_over_lcm`` key,
    checked in this order: one row per state, every entry rational, distinct
    ``kind`` labels, one entry per label, no negative entry, every row summing
    to 1. An InputError names the ``what``'s first fault."""
    rows = tuple(rows)
    if len(rows) != len(space):
        raise InputError(f"{what} must have one row per state")
    at = (f"{what} row for state '{s}'" for s in space.states)
    rows = tuple(tuple(_parsed(v, where) for v in row) for row, where in zip(rows, at))
    if len(set(labels)) != len(labels):
        raise InputError(f"duplicate {kind} label")
    keys = tuple(map(_over_lcm, rows))
    for state, row, key in zip(space.states, rows, keys):
        if len(row) != len(labels):
            raise InputError(f"{what} row for state '{state}' has the wrong width")
        for label, v in zip(labels, row):
            if v < 0:
                raise InputError(
                    f"{what} row for state '{state}' has negative probability {_shown(v)} "
                    f"at {kind} '{label}'"
                )
        if sum(key[1:]) != key[0]:
            raise InputError(f"{what} row for state '{state}' sums to {_shown(sum(row))}, not 1")
    return rows, keys


def _trimmed(signals: tuple[str, ...], keys: Sequence[tuple]) -> dict:
    """The signals with a positive entry somewhere, and the kernel's keys on them."""
    keep = [j for j in range(len(signals)) if any(key[j + 1] for key in keys)]
    return {
        "signals": tuple(signals[j] for j in keep),
        "_keys": tuple((key[0], *(key[j + 1] for j in keep)) for key in keys),
    }


@dataclass(frozen=True)
class StochasticSignaling:
    """Row-stochastic kernel tau(s|state), constant on oracle blocks.

    Signals of zero probability everywhere are trimmed, so the signal set is the kernel's
    support. ``_keys`` holds each row as integers ``(d, n_1, ...)`` over its lcm d, and
    ``kernel`` (rows by state, columns by signal) is made from them when read.
    """

    oracle_partition: Partition
    signals: tuple[str, ...]
    kernel: tuple[tuple[Fraction, ...], ...] = _Lazy(lambda tau: tuple(map(_fractions, tau._keys)))
    _keys: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        space = self.oracle_partition.space
        signals = tuple(check_label("signal", s) for s in self.signals)
        kernel, keys = _stochastic_rows(space, signals, self.kernel, "kernel", "signal")
        for block in self.oracle_partition.blocks:
            ref = kernel[space.index(block[0])]
            for s in block[1:]:
                if kernel[space.index(s)] != ref:
                    raise InputError(
                        f"kernel is not measurable: states '{block[0]}' and '{s}' share an "
                        "oracle block but have different rows"
                    )
        vars(self).update(_trimmed(signals, keys))
        del vars(self)["kernel"]  # made from the trimmed keys on its first read

    @property
    def space(self) -> StateSpace:
        return self.oracle_partition.space

    def signal_index(self, signal: str) -> int:
        try:
            return self.signals.index(signal)
        except ValueError:
            raise InputError(f"unknown signal '{signal}'") from None

    def prob(self, state: str, signal: str) -> Fraction:
        return self.kernel[self.space.index(state)][self.signal_index(signal)]

    def row(self, state: str) -> tuple[Fraction, ...]:
        return self.kernel[self.space.index(state)]

    def fully_supported(self) -> bool:
        return all(v > 0 for row in self.kernel for v in row)

    @classmethod
    def from_rows(
        cls,
        oracle_partition: Partition,
        signals: Sequence[str],
        rows: Mapping[str, Mapping[str, object]],
    ) -> "StochasticSignaling":
        space = oracle_partition.space
        json_object(rows, "kernel", *space.states)
        for state in rows:
            space.index(state)
        kernel = []
        for state in space.states:
            row = json_object(rows[state], f"kernel row for state '{state}'")
            for sig in row:
                if sig not in signals:
                    raise InputError(f"kernel row for state '{state}' names unknown signal {sig!r}")
            kernel.append(tuple(row.get(sig, 0) for sig in signals))
        return cls(oracle_partition, tuple(signals), tuple(kernel))

    @classmethod
    def from_assignment(
        cls, oracle_partition: Partition, assignment: Sequence[str]
    ) -> "StochasticSignaling":
        """The deterministic signaling sending one signal per oracle block, in
        canonical block order: a 0/1 kernel, signals in first-seen order."""
        assignment = tuple(check_label("signal", s) for s in assignment)
        if len(assignment) != len(oracle_partition.blocks):
            raise InputError("need exactly one signal per oracle block")
        signals = tuple(dict.fromkeys(assignment))
        kernel = []
        for state in oracle_partition.space.states:
            sent = assignment[oracle_partition.block_index(state)]
            kernel.append(tuple(Fraction(int(sig == sent)) for sig in signals))
        return cls(oracle_partition, signals, tuple(kernel))

    def induced_partition(self) -> Partition:
        """The signal preimages; only a deterministic (0/1) kernel has them."""
        if any(key[0] != 1 for key in self._keys):  # integers summing to 1 are 0s and a 1
            raise DomainError("deterministic information is required here")
        columns = zip(*(key[1:] for key in self._keys))  # a 0 or 1 per state
        masks = [sum(n << i for i, n in enumerate(column)) for column in columns]
        return Partition.from_masks(self.space, masks)


class PosteriorAtlas:
    """The distribution over joint posterior profiles induced by a signaling
    function: profile -> positive weight, weights summing to 1. A profile is
    a tuple of one posterior per player, in player order. The key set is the
    reachable-profile set; ``entries`` is ``_weights`` over ``_total``, made when read."""

    entries = _Lazy(lambda self: {p: Fraction(w, self._total) for p, w in self._weights.items()})

    def __init__(self, entries: Mapping[tuple[Distribution, ...], Fraction]):
        self._weights = {p: _parsed(w, "atlas weight") for p, w in entries.items()}
        self._total = 1
        self._order = _checked_order(self._weights, 1)

    def profiles(self) -> tuple[tuple[Distribution, ...], ...]:
        return self._order

    def weight(self, profile: tuple[Distribution, ...]) -> Fraction:
        try:
            return self.entries[profile]
        except KeyError:
            raise DomainError("profile is not in the atlas") from None

    def __contains__(self, profile: tuple[Distribution, ...]) -> bool:
        return profile in self._weights

    def __len__(self) -> int:
        return len(self._weights)

    def __eq__(self, other: object) -> bool:
        """Full weighted-map equality (profiles and weights)."""
        return isinstance(other, PosteriorAtlas) and self.entries == other.entries

    def as_json(self) -> list[dict]:
        return [
            {"posteriors": [d.as_strings() for d in p], "weight": format_rational(self.entries[p])}
            for p in self._order
        ]


def _checked_order(weights: Mapping[tuple[Distribution, ...], object], total: int) -> tuple:
    """The profiles of ``weights`` by vector (equal vectors are equal posteriors, so by each
    player's ranks), once they are some, each positive, summing to ``total``."""
    if not weights:
        raise InputError("an atlas cannot be empty")
    for w in weights.values():
        if w <= 0:
            raise InputError(f"atlas weight {w} is not positive")
    if sum(weights.values()) != total:
        raise InputError("atlas weights do not sum to 1")
    ranks = [{d: r for r, d in enumerate(posterior_menu(c))} for c in zip(*weights)]
    return tuple(sorted(weights, key=lambda p: tuple(map(dict.__getitem__, ranks, p))))


def posterior_menu(posteriors: Iterable[Distribution]) -> tuple[Distribution, ...]:
    """The distinct posteriors, sorted by vector (their keys over one denominator): a menu."""
    menu = tuple(set(posteriors))
    scaled = _over_common([d._key for d in menu])
    return tuple(menu[i] for i in sorted(range(len(menu)), key=scaled.__getitem__))


def det_posterior(
    structure: InformationStructure, i: int, tau: StochasticSignaling, omega: str
) -> Distribution:
    """Posterior of player i at state omega after a deterministic (0/1)
    public signal: the kernel posterior at the signal sent at omega."""
    tau.induced_partition()  # refuses a kernel that is not 0/1
    sent = tau.signals[tau.row(omega).index(1)]
    return stoch_posterior(structure, i, tau, omega, sent)


def stoch_posterior(
    structure: InformationStructure,
    i: int,
    tau: StochasticSignaling,
    omega: str,
    signal: str,
) -> Distribution:
    """Posterior of player i at (omega, signal): mass proportional to
    prior * kernel on the player's block, zero elsewhere."""
    if i not in range(structure.n):
        raise InputError(f"player index {i!r} is out of range for {structure.n} players")
    masses, _ = _branch_masses(structure, tau)
    if tau.prob(omega, signal) == 0:
        raise DomainError(f"signal '{signal}' impossible at state '{omega}'")
    return _posterior(structure, masses, structure.players[i].block_of(omega), signal)


def _branch_masses(
    structure: InformationStructure, tau: StochasticSignaling
) -> tuple[dict[tuple[str, str], int], int]:
    """(masses, D): prior(state) * tau(signal|state) for every (state, signal)
    branch of positive mass, in state order and then signal order, as integers
    over D, the prior's and the kernel rows' denominators' lcms multiplied:
    the one table that every walk over branches reads. The masses sum to D."""
    if tau.space != structure.space:
        raise DomainError("signaling and structure use different state spaces")
    prior = structure.prior._key
    scale = lcm(*(key[0] for key in tau._keys))
    masses: dict[tuple[str, str], int] = {}
    for state, base, key in zip(structure.space.states, prior[1:], tau._keys):
        base *= scale // key[0]
        for signal, n in zip(tau.signals, key[1:]):
            if n:
                masses[(state, signal)] = base * n
    return masses, prior[0] * scale


def _posterior(
    structure: InformationStructure, masses: Mapping, block: Sequence[str], signal: str
) -> Distribution:
    """The posterior on ``block`` after ``signal``: its table masses over their total."""
    weights = [masses.get((s, signal), 0) for s in block]
    return Distribution._on_block(structure.space, block, weights)


def _branch_profiles(
    structure: InformationStructure, masses: Mapping
) -> dict[tuple[str, str], tuple[Distribution, ...]]:
    """The joint posterior profile of every branch in the mass table.  A
    player's posterior depends only on (their block, signal), so each is
    computed once."""
    cache: dict[tuple[int, int, str], Distribution] = {}
    out = {}
    for state, signal in masses:
        posts = []
        for i, partition in enumerate(structure.players):
            key = (i, partition.block_index(state), signal)
            if key not in cache:
                cache[key] = _posterior(structure, masses, partition.block_of(state), signal)
            posts.append(cache[key])
        out[(state, signal)] = tuple(posts)
    return out


def _column_keys(rows: Iterable[Sequence[int]]) -> list[tuple[int, tuple[int, ...]]]:
    """Each column of the integer table ``rows`` as (its sum, its entries over their gcd): under
    a positive scale per row, two columns are proportional exactly when the latter are equal."""
    return [(sum(column), tuple(_reduced(column))) for column in zip(*rows)]


def posterior_atlas(
    structure: InformationStructure, tau: StochasticSignaling
) -> PosteriorAtlas:
    """The joint posterior profiles of all branches with positive mass, exact duplicates merged,
    each weighted by the total prior(state) * tau(signal|state) of its branches, summed over the
    table's denominator. Signals with proportional kernel columns induce the same posteriors, so
    the masses of each are summed into the first such signal before the branch loop."""
    masses, total = _branch_masses(structure, tau)
    keys = [k for _, k in _column_keys(row[1:] for row in tau._keys)]
    if len(set(keys)) < len(keys):
        into = {s: tau.signals[keys.index(key)] for s, key in zip(tau.signals, keys)}
        merged: dict[tuple[str, str], int] = {}
        for (state, signal), m in masses.items():
            merged[state, into[signal]] = merged.get((state, into[signal]), 0) + m
        masses = merged
    weights: dict[tuple[Distribution, ...], int] = {}
    for branch, profile in _branch_profiles(structure, masses).items():
        weights[profile] = weights.get(profile, 0) + masses[branch]
    order = _checked_order(weights, total)
    return _unchecked(PosteriorAtlas, _weights=weights, _total=total, _order=order)


def post_included(a: PosteriorAtlas, b: PosteriorAtlas) -> bool:
    """Key-set inclusion: every profile reachable under a is reachable under b."""
    return a._weights.keys() <= b._weights.keys()


# ---------------------------------------------------------------------------
# Experiment matrices


@dataclass(frozen=True)
class StochasticMatrix:
    """Row-stochastic matrix with rows indexed by states."""

    space: StateSpace
    column_labels: tuple[str, ...]
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        labels = tuple(check_label("column", c, "") for c in self.column_labels)
        entries, _ = _stochastic_rows(self.space, labels, self.entries, "matrix", "column")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "column_labels", labels)

    def row(self, state: str) -> tuple[Fraction, ...]:
        return self.entries[self.space.index(state)]

    def as_json(self) -> dict:
        return {
            "states": list(self.space.states),
            "columns": list(self.column_labels),
            "entries": {
                s: [format_rational(v) for v in row]
                for s, row in zip(self.space.states, self.entries)
            },
        }


@dataclass(frozen=True)
class ExperimentMatrix(StochasticMatrix):
    """Blackwell experiment of an agent observing a public signal on top of a
    partition: columns are (signal, block) pairs and an entry is positive only
    when the state lies in the column's block."""

    columns: tuple[tuple[str, str], ...] = ()
    blocks: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def __post_init__(self):
        super().__post_init__()
        block_map = dict(self.blocks)
        if len(block_map) != len(self.blocks):
            raise InputError("duplicate block label")
        seen: set[str] = set()
        for label, states in self.blocks:
            for s in states:
                if s not in self.space:
                    raise InputError(f"matrix block '{label}' names unknown state {s!r}")
                if s in seen:
                    raise InputError(f"matrix block '{label}' repeats state '{s}'")
                seen.add(s)
        # What is left to refuse: an empty block, or a state in no block.
        partition_from_json(self.space, list(block_map.values()), "matrix 'blocks'")
        if len(self.columns) != len(self.column_labels):
            raise InputError("column metadata does not match the matrix width")
        for (sig, label), name in zip(self.columns, self.column_labels):
            if label not in block_map:
                raise InputError(f"matrix column '{name}' references unknown block '{label}'")
            if name != f"{sig}@{label}":
                raise InputError(f"column label '{name}' is not '{sig}@{label}'")
        for state, row in zip(self.space.states, self.entries):
            for (sig, label), v in zip(self.columns, row):
                if v > 0 and state not in block_map[label]:
                    raise InputError(
                        f"matrix row for state '{state}' is positive at column "
                        f"'{sig}@{label}' outside its block"
                    )

    def as_json(self) -> dict:
        data = super().as_json()
        data["columns"] = [[sig, label] for sig, label in self.columns]
        data["blocks"] = {label: list(states) for label, states in self.blocks}
        return data


def experiment_matrix(
    tau: StochasticSignaling, partition: Partition, prior: Optional[Prior] = None
) -> ExperimentMatrix:
    """Entry at (state, (signal, block)) = tau(signal|state) * [state in block].

    Column order is signal-major over canonical blocks; block labels are
    "b0", "b1", ... in canonical order.
    """
    if partition.space != tau.space:
        raise DomainError("partition and signaling use different state spaces")
    if prior is not None and prior.space != tau.space:
        raise DomainError("prior uses a different state space")
    labels = [f"b{i}" for i in range(len(partition.blocks))]
    columns = tuple((sig, lab) for sig in tau.signals for lab in labels)
    rows = []
    zero = Fraction(0)
    for state, kernel_row in zip(tau.space.states, tau.kernel):
        bidx = partition.block_index(state)
        rows.append(tuple(p if b == bidx else zero for p in kernel_row for b in range(len(labels))))
    return _unchecked(
        ExperimentMatrix,
        space=tau.space,
        column_labels=tuple(f"{sig}@{lab}" for sig, lab in columns),
        entries=tuple(rows),
        columns=columns,
        blocks=tuple((lab, block) for lab, block in zip(labels, partition.blocks)),
    )


def _garbling_rows(
    tau: StochasticSignaling, m: Mapping[str, Mapping[str, object]]
) -> dict[str, dict[str, int]]:
    """Per signal of tau, a distribution over garbled labels, as integers over one lcm. Every
    row of ``m`` is checked; one under a key that is not a signal of tau is then ignored."""
    json_object(m, "a garbling")
    for s in tau.signals:
        if s not in m:
            raise DomainError(f"garbling is missing a row for signal '{s}'")
    rows: dict[str, dict[str, Fraction]] = {}
    for s, given in m.items():
        given = json_object(given, f"garbling row for signal '{s}'")
        row = {t: parse_rational(v) for t, v in given.items()}
        if any(v < 0 for v in row.values()) or sum(row.values()) != 1:
            raise DomainError(f"garbling row for signal '{s}' is not a distribution")
        for t in row:
            check_label("signal", t)
        rows[s] = row
    _, *ints = _over_lcm([v for s in tau.signals for v in rows[s].values()])
    at = iter(ints)
    return {s: {t: next(at) for t in rows[s]} for s in tau.signals}


def _garbled(tau: StochasticSignaling, signals: tuple, masses: list) -> StochasticSignaling:
    """``tau``'s oracle sending ``signals`` with integer ``masses`` m over each row's total T,
    zero signals trimmed; each row's key is ``_reduced((T, m, ...))``, as in ``_on_block``."""
    fields = _trimmed(signals, tuple((sum(row), *row) for row in map(_reduced, masses)))
    return _unchecked(StochasticSignaling, oracle_partition=tau.oracle_partition, **fields)


def lift_garbled(
    tau: StochasticSignaling, m: Mapping[str, Mapping[str, object]]
) -> StochasticSignaling:
    """Compose tau with a garbling over its signals: the lifted kernel sends
    (s, t) with probability m[s][t] * tau(s|state). For a fixed s, every (s, t)
    signal induces the posterior that s induces under tau."""
    rows = _garbling_rows(tau, m)
    pairs = [(j, s, t) for j, s in enumerate(tau.signals, 1) for t in rows[s]]
    new_signals = tuple(f"({s},{t})" for _, s, t in pairs)
    if len(set(new_signals)) != len(new_signals):  # "(a,b,c)" from ("a", "b,c") and ("a,b", "c")
        raise InputError("duplicate signal label")
    masses = [[rows[s][t] * key[j] for j, s, t in pairs] for key in tau._keys]
    return _garbled(tau, new_signals, masses)


def merge_garbled(
    tau: StochasticSignaling, m: Mapping[str, Mapping[str, object]]
) -> StochasticSignaling:
    """The garbled signaling itself: only the garbled label t is emitted,
    with kernel t|state = sum over s of m[s][t] * tau(s|state). Unlike
    ``lift_garbled`` this genuinely coarsens the information."""
    rows = _garbling_rows(tau, m)
    targets = tuple(dict.fromkeys(t for s in tau.signals for t in rows[s]))
    columns = [[rows[s].get(t, 0) for s in tau.signals] for t in targets]
    masses = [[sum(a * b for a, b in zip(key[1:], c)) for c in columns] for key in tau._keys]
    return _garbled(tau, targets, masses)


def _separating_scan() -> Iterator[Fraction]:
    """Scan candidates 1/3, 1/5, 1/7, ... and yield the first ones whose
    ratio set passes the pairwise check; only the two values a candidate
    adds, and the ratios they form, are checked against the distinct ones
    kept so far. No candidate repeats a kept value, as 1/(2k+1) <= 1/3 <
    2/3 <= 2j/(2j+1). Each accepted value rules out only finitely many later
    candidates, so the scan never stalls."""
    values: set[Fraction] = set()
    ratios: set[Fraction] = set()
    for k in itertools.count(1):
        new = (Fraction(1, 2 * k + 1), Fraction(2 * k, 2 * k + 1))
        fresh = [new[0] / new[1], new[1] / new[0]]
        fresh += [r for x in new for y in values for r in (x / y, y / x)]
        if len(set(fresh)) == len(fresh) and ratios.isdisjoint(fresh):
            values.update(new)
            ratios.update(fresh)
            yield new[0]


# The scan is greedy, so the probabilities for m blocks are the first m it
# yields: one scan, extended on demand, serves every call.
_SEPARATING_SCAN = _separating_scan()
_SEPARATING_PROBS: list[Fraction] = []


def separating_strategy(
    oracle_partition: Partition, prior: Optional[Prior] = None
) -> StochasticSignaling:
    """Two-signal kernel with one interior probability p_j per oracle block
    such that all ratios of distinct members of {p_j, 1-p_j} are pairwise
    different, so every block leaves a distinct arithmetic fingerprint on the
    posteriors. Block j gets the j-th value of ``_separating_scan``; the
    construction depends only on the number of blocks.
    """
    if prior is not None and prior.space != oracle_partition.space:
        raise DomainError("prior uses a different state space")
    while len(_SEPARATING_PROBS) < len(oracle_partition.blocks):
        _SEPARATING_PROBS.append(next(_SEPARATING_SCAN))
    kernel = []
    for state in oracle_partition.space.states:
        p = _SEPARATING_PROBS[oracle_partition.block_index(state)]
        kernel.append((p, 1 - p))
    return StochasticSignaling(oracle_partition, ("s1", "s2"), tuple(kernel))


def proportional_decompose(
    tau1: StochasticSignaling, tau2: StochasticSignaling
) -> dict[str, Optional[tuple[str, Fraction]]]:
    """For each signal t of tau1, find the first signal s of tau2 and constant c > 0 with
    tau1(t|state) = c * tau2(s|state) for every state, or None for that t when no column is
    proportional. tau2 must be fully supported. Both kernels' rows are read over one denominator
    per state, a positive scale per row, so t and s are proportional exactly when their reduced
    columns are equal, and c is their sums' ratio."""
    if tau1.space != tau2.space:
        raise DomainError("signaling functions use different state spaces")
    if not tau2.fully_supported():
        raise DomainError("the reference signaling must be fully supported")
    rows = [_over_common(pair) for pair in zip(tau1._keys, tau2._keys)]
    one, two = (_column_keys(row[k] for row in rows) for k in (0, 1))
    found = {key: (s, total) for s, (total, key) in reversed([*zip(tau2.signals, two)])}
    return {
        t: (found[key][0], Fraction(total, found[key][1])) if key in found else None
        for t, (total, key) in zip(tau1.signals, one)
    }


# ---------------------------------------------------------------------------
# JSON forms


def _resolve_oracle(structure: InformationStructure, data: Mapping, what: str) -> Partition:
    if "oracle" in data:
        return structure.oracle(data["oracle"])
    if "partition" in data:
        return partition_from_json(structure.space, data["partition"], f"{what} 'partition'")
    raise InputError(f"{what} needs an 'oracle' name or an inline 'partition'")


def signaling_from_json(
    structure: InformationStructure, data: object, what: str = "signaling"
) -> StochasticSignaling:
    """A signaling from its JSON form; ``what`` names it in error messages."""
    data = json_object(data, what)
    oracle = _resolve_oracle(structure, data, what)
    source = "oracle" if "oracle" in data else "partition"
    kind = data.get("type")
    if kind == "stochastic":
        json_record(data, what, "type", source, "signals", "kernel")
        signals = check_labels("signal", data["signals"], f"{what} 'signals'")
        kernel = json_object(data["kernel"], f"{what} 'kernel'")
        return StochasticSignaling.from_rows(oracle, signals, kernel)
    if kind == "deterministic":
        keys = [f"block{i}" for i in range(len(oracle.blocks))]
        json_record(data, what, "type", source, "assignment")
        assignment = json_object(data["assignment"], f"{what} 'assignment'", *keys)
        stray = sorted(set(assignment) - set(keys))
        if stray:
            raise InputError(f"assignment has unknown key '{stray[0]}'")
        return StochasticSignaling.from_assignment(oracle, [assignment[k] for k in keys])
    raise InputError(f"{what} 'type' must be 'stochastic' or 'deterministic'")


def matrix_from_json(data: object) -> StochasticMatrix:
    data = json_record(data, "matrix", "states", "entries", "columns", optional=("blocks",))
    space = StateSpace(tuple(json_list(data["states"], "matrix 'states'")))
    entries = json_object(data["entries"], "matrix 'entries'", *space.states)
    rows = tuple(tuple(json_list(entries[s], f"matrix row for state '{s}'")) for s in space.states)
    if "blocks" not in data:
        columns = tuple(json_list(data["columns"], "matrix 'columns'"))
        return StochasticMatrix(space=space, column_labels=columns, entries=rows)
    pairs = []
    for col in json_list(data["columns"], "matrix 'columns'"):
        if not (isinstance(col, list) and len(col) == 2 and all(isinstance(x, str) for x in col)):
            raise InputError(f"matrix column {col!r} is not a [signal, label] pair")
        pairs.append(tuple(col))
    blocks = json_object(data["blocks"], "matrix 'blocks'")
    return ExperimentMatrix(
        space=space,
        column_labels=tuple(f"{sig}@{lab}" for sig, lab in pairs),
        entries=rows,
        columns=tuple(pairs),
        blocks=tuple(
            (label, tuple(json_list(states, f"matrix block '{label}'")))
            for label, states in blocks.items()
        ),
    )
