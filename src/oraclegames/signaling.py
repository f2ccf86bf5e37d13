"""Signaling functions measurable over an oracle partition, Bayesian
posteriors, joint-posterior atlases, Blackwell experiment matrices, garbling
lifts, a deterministic two-signal separating construction, and
column-proportionality decomposition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import DomainError, InputError
from .types import (
    Distribution,
    InformationStructure,
    Partition,
    Prior,
    StateSpace,
    check_label,
    check_labels,
    format_rational,
    json_list,
    json_object,
    parse_rational,
    partition_from_json,
)


@dataclass(frozen=True)
class StochasticSignaling:
    """Row-stochastic kernel tau(s|state), constant on oracle blocks.

    Signals with zero probability everywhere are trimmed at construction so
    the signal set is canonical (the support of the kernel).
    """

    oracle_partition: Partition
    signals: tuple[str, ...]
    kernel: tuple[tuple[Fraction, ...], ...]  # rows in state order, cols in signal order

    def __post_init__(self):
        space = self.oracle_partition.space
        signals = tuple(check_label("signal", s) for s in self.signals)
        if len(set(signals)) != len(signals):
            raise InputError("duplicate signal label")
        kernel = tuple(tuple(Fraction(v) for v in row) for row in self.kernel)
        if len(kernel) != len(space) or any(len(row) != len(signals) for row in kernel):
            raise InputError("kernel shape does not match states x signals")
        for state, row in zip(space.states, kernel):
            for sig, v in zip(signals, row):
                if v < 0:
                    raise InputError(f"negative probability {v} at ({state}, {sig})")
            if sum(row) != 1:
                raise InputError(f"kernel row for state '{state}' sums to {sum(row)}, not 1")
        for block in self.oracle_partition.blocks:
            ref = kernel[space.index(block[0])]
            for s in block[1:]:
                if kernel[space.index(s)] != ref:
                    raise InputError(
                        f"kernel is not measurable: states '{block[0]}' and '{s}' share an "
                        "oracle block but have different rows"
                    )
        keep = [j for j in range(len(signals)) if any(row[j] > 0 for row in kernel)]
        object.__setattr__(self, "signals", tuple(signals[j] for j in keep))
        object.__setattr__(
            self, "kernel", tuple(tuple(row[j] for j in keep) for row in kernel)
        )

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
            kernel.append(tuple(parse_rational(row.get(sig, 0)) for sig in signals))
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
        if any(v not in (0, 1) for row in self.kernel for v in row):
            raise DomainError("deterministic information is required here")
        states = self.space.states
        return Partition(
            self.space,
            tuple(
                tuple(w for w, row in zip(states, self.kernel) if row[j])
                for j in range(len(self.signals))
            ),
        )


@dataclass(frozen=True)
class JointPosteriorProfile:
    """One exact posterior per player, in player order."""

    per_player: tuple[Distribution, ...]

    def sort_key(self):
        return tuple(d.vector for d in self.per_player)

    def as_json(self) -> list[list[str]]:
        return [d.as_strings() for d in self.per_player]


class PosteriorAtlas:
    """The distribution over joint posterior profiles induced by a signaling
    function: profile -> positive weight, weights summing to 1. The key set
    is the reachable-profile set of the signaling."""

    def __init__(self, entries: Mapping[JointPosteriorProfile, Fraction]):
        self.entries: dict[JointPosteriorProfile, Fraction] = dict(entries)
        if not self.entries:
            raise InputError("an atlas cannot be empty")
        for profile, w in self.entries.items():
            if w <= 0:
                raise InputError(f"atlas weight {w} is not positive")
        if sum(self.entries.values()) != 1:
            raise InputError("atlas weights do not sum to 1")
        self._order = tuple(sorted(self.entries, key=JointPosteriorProfile.sort_key))

    def profiles(self) -> tuple[JointPosteriorProfile, ...]:
        return self._order

    def weight(self, profile: JointPosteriorProfile) -> Fraction:
        try:
            return self.entries[profile]
        except KeyError:
            raise DomainError("profile is not in the atlas") from None

    def __contains__(self, profile: JointPosteriorProfile) -> bool:
        return profile in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other: object) -> bool:
        """Full weighted-map equality (profiles and weights)."""
        return isinstance(other, PosteriorAtlas) and self.entries == other.entries

    def as_json(self) -> list[dict]:
        return [
            {"posteriors": p.as_json(), "weight": format_rational(self.entries[p])}
            for p in self._order
        ]


def posterior_menu(posteriors: Iterable[Distribution]) -> tuple[Distribution, ...]:
    """The distinct posteriors, sorted by vector: a player's declaration menu."""
    return tuple(sorted(set(posteriors), key=lambda d: d.vector))


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
    _check_same_space(structure, tau)
    if tau.prob(omega, signal) == 0:
        raise DomainError(f"signal '{signal}' impossible at state '{omega}'")
    block = structure.players[i].block_of(omega)
    weights = {w: structure.prior.of(w) * tau.prob(w, signal) for w in block}
    total = sum(weights.values())
    zero = Fraction(0)
    vector = tuple(
        weights[s] / total if s in weights else zero for s in structure.space.states
    )
    return Distribution(structure.space, vector)


def _check_same_space(structure: InformationStructure, tau: StochasticSignaling) -> None:
    if tau.space != structure.space:
        raise DomainError("signaling and structure use different state spaces")


def _branch_masses(
    structure: InformationStructure, tau: StochasticSignaling
) -> dict[tuple[str, str], Fraction]:
    """prior(state) * tau(signal|state) for every (state, signal) branch of
    positive mass, in state order and then signal order: the one table that
    every walk over branches reads."""
    _check_same_space(structure, tau)
    masses: dict[tuple[str, str], Fraction] = {}
    rows = zip(structure.space.states, structure.prior.vector, tau.kernel)
    for state, base, row in rows:
        for signal, p in zip(tau.signals, row):
            if p:
                masses[(state, signal)] = base * p
    return masses


def _branch_profiles(
    structure: InformationStructure, tau: StochasticSignaling
) -> dict[tuple[str, str], tuple[Fraction, JointPosteriorProfile]]:
    """Mass and joint posterior profile of every branch in the mass table; a
    player's posterior depends only on (their block, signal)."""
    cache: dict[tuple[int, int, str], Distribution] = {}
    out = {}
    for (state, signal), w in _branch_masses(structure, tau).items():
        posts = []
        for i, partition in enumerate(structure.players):
            key = (i, partition.block_index(state), signal)
            if key not in cache:
                cache[key] = stoch_posterior(structure, i, tau, state, signal)
            posts.append(cache[key])
        out[(state, signal)] = (w, JointPosteriorProfile(tuple(posts)))
    return out


def posterior_atlas(
    structure: InformationStructure, tau: StochasticSignaling
) -> PosteriorAtlas:
    """The joint posterior profiles of all branches with positive mass,
    exact duplicates merged, each weighted by the total prior(state) *
    tau(signal|state) of its branches."""
    entries: dict[JointPosteriorProfile, Fraction] = {}
    for w, profile in _branch_profiles(structure, tau).values():
        entries[profile] = entries.get(profile, Fraction(0)) + w
    return PosteriorAtlas(entries)


def post_included(a: PosteriorAtlas, b: PosteriorAtlas) -> bool:
    """Key-set inclusion: every profile reachable under a is reachable under b."""
    return set(a.entries) <= set(b.entries)


# ---------------------------------------------------------------------------
# Experiment matrices


@dataclass(frozen=True)
class StochasticMatrix:
    """Row-stochastic matrix with rows indexed by states."""

    space: StateSpace
    column_labels: tuple[str, ...]
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        entries = tuple(tuple(Fraction(v) for v in row) for row in self.entries)
        if len(entries) != len(self.space):
            raise InputError("matrix must have one row per state")
        if len(set(self.column_labels)) != len(self.column_labels):
            raise InputError("duplicate column label")
        for state, row in zip(self.space.states, entries):
            if len(row) != len(self.column_labels):
                raise InputError(f"row for state '{state}' has the wrong width")
            if any(v < 0 for v in row):
                raise InputError(f"negative entry in row for state '{state}'")
            if sum(row) != 1:
                raise InputError(f"row for state '{state}' sums to {sum(row)}, not 1")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "column_labels", tuple(self.column_labels))

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
        if len(self.columns) != len(self.column_labels):
            raise InputError("column metadata does not match the matrix width")
        for (sig, label) in self.columns:
            if label not in block_map:
                raise InputError(f"column references unknown block '{label}'")
        for state, row in zip(self.space.states, self.entries):
            for (sig, label), v in zip(self.columns, row):
                if v > 0 and state not in block_map[label]:
                    raise InputError(
                        f"entry for state '{state}' is positive outside block '{label}'"
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
    for state in tau.space.states:
        bidx = partition.block_index(state)
        row = tuple(
            tau.prob(state, sig) if lab == labels[bidx] else Fraction(0)
            for sig, lab in columns
        )
        rows.append(row)
    return ExperimentMatrix(
        space=tau.space,
        column_labels=tuple(f"{sig}@{lab}" for sig, lab in columns),
        entries=tuple(rows),
        columns=columns,
        blocks=tuple((lab, block) for lab, block in zip(labels, partition.blocks)),
    )


def _garbling_rows(
    tau: StochasticSignaling, m: Mapping[str, Mapping[str, object]]
) -> dict[str, dict[str, Fraction]]:
    """One distribution over garbled labels per signal of tau."""
    json_object(m, "a garbling")
    rows: dict[str, dict[str, Fraction]] = {}
    for s in tau.signals:
        if s not in m:
            raise DomainError(f"garbling is missing a row for signal '{s}'")
        given = json_object(m[s], f"garbling row for signal '{s}'")
        row = {t: parse_rational(v) for t, v in given.items()}
        if any(v < 0 for v in row.values()) or sum(row.values()) != 1:
            raise DomainError(f"garbling row for signal '{s}' is not a distribution")
        for t in row:
            check_label("signal", t)
        rows[s] = row
    return rows


def lift_garbled(
    tau: StochasticSignaling, m: Mapping[str, Mapping[str, object]]
) -> StochasticSignaling:
    """Compose tau with a garbling over its signals: the lifted kernel sends
    (s, t) with probability m[s][t] * tau(s|state). For a fixed s, every (s, t)
    signal induces the posterior that s induces under tau."""
    rows = _garbling_rows(tau, m)
    pairs = [(s, t) for s in tau.signals for t in rows[s]]
    kernel = tuple(
        tuple(rows[s][t] * tau.prob(state, s) for s, t in pairs)
        for state in tau.space.states
    )
    new_signals = tuple(f"({s},{t})" for s, t in pairs)
    return StochasticSignaling(tau.oracle_partition, new_signals, kernel)


def merge_garbled(
    tau: StochasticSignaling, m: Mapping[str, Mapping[str, object]]
) -> StochasticSignaling:
    """The garbled signaling itself: only the garbled label t is emitted,
    with kernel t|state = sum over s of m[s][t] * tau(s|state). Unlike
    ``lift_garbled`` this genuinely coarsens the information."""
    rows = _garbling_rows(tau, m)
    targets = tuple(dict.fromkeys(t for s in tau.signals for t in rows[s]))
    kernel = tuple(
        tuple(
            sum((rows[s].get(t, Fraction(0)) * tau.prob(state, s) for s in tau.signals), Fraction(0))
            for t in targets
        )
        for state in tau.space.states
    )
    return StochasticSignaling(tau.oracle_partition, targets, kernel)


def _separating_scan() -> Iterator[Fraction]:
    """Scan candidates 1/3, 1/5, 1/7, ... and yield the first ones whose
    ratio set passes the pairwise check; only the two values a candidate
    adds, and the ratios they form, are checked against the distinct ones
    kept so far. Each accepted value rules out only finitely many later
    candidates, so the scan never stalls."""
    values: set[Fraction] = set()
    ratios: set[Fraction] = set()
    for k in itertools.count(1):
        new = (Fraction(1, 2 * k + 1), Fraction(2 * k, 2 * k + 1))
        if not values.isdisjoint(new):
            continue
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
    """For each signal t of tau1, find the first signal s of tau2 and constant
    c > 0 with tau1(t|state) = c * tau2(s|state) for every state, or None for
    that t when no column is proportional. tau2 must be fully supported."""
    if tau1.space != tau2.space:
        raise DomainError("signaling functions use different state spaces")
    if not tau2.fully_supported():
        raise DomainError("the reference signaling must be fully supported")
    out: dict[str, Optional[tuple[str, Fraction]]] = {}
    states = tau1.space.states
    for t in tau1.signals:
        col1 = [tau1.prob(w, t) for w in states]
        found = None
        for s in tau2.signals:
            col2 = [tau2.prob(w, s) for w in states]
            c = col1[0] / col2[0]
            if c > 0 and all(a == c * b for a, b in zip(col1, col2)):
                found = (s, c)
                break
        out[t] = found
    return out


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
    kind = data.get("type")
    if kind == "stochastic":
        json_object(data, what, "signals", "kernel")
        signals = check_labels("signal", data["signals"], f"{what} 'signals'")
        kernel = json_object(data["kernel"], f"{what} 'kernel'")
        return StochasticSignaling.from_rows(oracle, signals, kernel)
    if kind == "deterministic":
        keys = [f"block{i}" for i in range(len(oracle.blocks))]
        json_object(data, what, "assignment")
        assignment = json_object(data["assignment"], f"{what} 'assignment'", *keys)
        stray = sorted(set(assignment) - set(keys))
        if stray:
            raise InputError(f"assignment has unknown key '{stray[0]}'")
        return StochasticSignaling.from_assignment(oracle, [assignment[k] for k in keys])
    raise InputError(f"{what} 'type' must be 'stochastic' or 'deterministic'")


def matrix_from_json(data: object) -> StochasticMatrix:
    data = json_object(data, "matrix", "states", "entries", "columns")
    space = StateSpace(tuple(json_list(data["states"], "matrix 'states'")))
    entries = json_object(data["entries"], "matrix 'entries'", *space.states)
    rows = tuple(
        tuple(parse_rational(v) for v in json_list(entries[s], f"matrix row for state '{s}'"))
        for s in space.states
    )
    if "blocks" not in data:
        columns = check_labels("column", data["columns"], "matrix 'columns'", "")
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
