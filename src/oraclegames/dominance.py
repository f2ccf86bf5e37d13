"""Decision procedures for ranking public-information oracles: matched
coarsening profiles for deterministic signaling, two-sided equivalence and
refinement dominance on a unique common-knowledge component, garbling
feasibility between experiment matrices, and the player-wise join-refinement
condition that governs shared-payoff decision problems.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from operator import or_
from typing import Callable, Optional, Sequence

from ._lp import feasible_nonneg
from .errors import DomainError, InputError
from .partitions import (
    DEFAULT_COARSENING_CAP,
    _merged_masks,
    _require_within_cap,
    ckc_decompose,
    join,
    refines,
)
from .signaling import StochasticMatrix
from .types import (
    InformationStructure,
    Partition,
    Prior,
    StateSpace,
    format_rational,
)


def induced_profile(
    structure: InformationStructure, oracle: Partition
) -> tuple[Partition, ...]:
    """What each player knows once the oracle partition is announced: the
    join of the player's partition with the oracle's, per player."""
    return tuple(join(p, oracle) for p in structure.players)


def coarsening_profiles(
    structure: InformationStructure,
    oracle: Partition,
    cap: int = DEFAULT_COARSENING_CAP,
) -> dict[tuple[Partition, ...], Partition]:
    """Map each induced profile reachable by coarsening the oracle to the
    first coarsening (in enumeration order) that produces it."""
    merged_masks = _merged_masks(oracle.masks, cap)
    if oracle.space != structure.space:
        raise DomainError("partitions are defined over different state spaces")
    players = [p.masks for p in structure.players]
    first_seen: dict[tuple[frozenset[int], ...], tuple[int, ...]] = {}
    for merged in merged_masks:
        key = tuple(frozenset([x & c for x in xs for c in merged if x & c]) for xs in players)
        first_seen.setdefault(key, merged)
    as_partition = partial(Partition.from_masks, oracle.space)
    pairs = first_seen.items()
    return {tuple(map(as_partition, key)): as_partition(merged) for key, merged in pairs}


@dataclass(frozen=True)
class ImiResult:
    """Outcome of the deterministic-dominance check.

    When it fails, ``witness`` is the first coarsening of the second oracle,
    in ``coarsenings`` order, whose induced profile no coarsening of the
    first oracle can reproduce.
    """

    holds: bool
    witness: Optional[Partition] = None


def _merge(classes: list[int], linked: int) -> list[int]:
    """The classes with every class that meets ``linked`` merged into one."""
    merged, kept = 0, []
    for c in classes:
        if c & linked:
            merged |= c
        else:
            kept.append(c)
    kept.append(merged)
    return kept


def _closure_scan(
    structure: InformationStructure, first: Partition, second: Partition
) -> ImiResult:
    """``is_imi``'s scan, keeping the closure under the blocks placed so far
    as ``_merged_masks``' walk places them. Groups and classes only grow, so a
    violation among the placed blocks holds at every coarsening below, the
    first of which places every block not yet placed into group 0."""
    masks = second.masks
    blocks = [p for player in structure.players for p in player.masks]
    touching = [[p for p in blocks if p & s] for s in masks]
    # Every Q_i block holds its cells P_i-block & second-block, whatever C is.
    classes = list(first.masks)
    for s, ps in zip(masks, touching):
        for p in ps:
            classes = _merge(classes, p & s)
    groups: list[int] = []

    def violated(classes: list[int], s: int, placed: int) -> bool:
        # Only the classes meeting the block just placed have changed.
        for c in classes:
            if c & s:
                for g in groups:
                    inner, outer = c & g, c & placed & ~g
                    if inner and outer and any(p & inner and p & outer for p in blocks):
                        return True
        return False

    def grow(i: int, classes: list[int], placed: int) -> Optional[tuple[int, ...]]:
        if i == len(masks):
            return None
        s = masks[i]
        placed |= s
        for g in range(len(groups) + 1):
            if g == len(groups):
                groups.append(0)
            grown = classes
            for p in touching[i]:
                if p & groups[g]:
                    grown = _merge(grown, p & (groups[g] | s))
            groups[g] |= s
            if violated(grown, s, placed):
                return (reduce(or_, masks[i + 1 :], groups[0]), *groups[1:])
            witness = grow(i + 1, grown, placed)
            if witness is not None:
                return witness
            groups[g] ^= s
        groups.pop()
        return None

    witness = grow(0, classes, 0)
    return ImiResult(witness is None, witness and Partition.from_masks(second.space, witness))


def _imi_check(
    structure: InformationStructure, first: Partition, second: Partition, cap: int
) -> Callable[[], ImiResult]:
    """``is_imi``, ready to run once every cap has been checked."""
    if second.space != structure.space:
        raise DomainError("partitions are defined over different state spaces")
    if refines(first, second):
        return partial(ImiResult, True, None)
    _require_within_cap(len(second.masks), cap)
    return partial(_closure_scan, structure, first, second)


def is_imi(
    structure: InformationStructure,
    first: Partition,
    second: Partition,
    cap: int = DEFAULT_COARSENING_CAP,
) -> ImiResult:
    """Check that every profile inducible by a coarsening of ``second`` is
    also inducible by some coarsening of ``first``.

    This holds at once when ``first`` refines ``second``, whatever the block
    counts. Otherwise only ``second``'s coarsenings C are scanned, in
    ``coarsenings`` order, and only ``second`` is checked against ``cap``:
    the one coarsening of ``first`` that could induce Q_i = P_i ^ C for every
    player is the closure of ``first``'s blocks under every Q_i block, and it
    does exactly when no class holds two states of one P_i block from two
    Q_i blocks. The witness is the first C not matched, the same one that
    enumerating both oracles' coarsenings finds."""
    return _imi_check(structure, first, second, cap)()


def require_unique_ckc(structure: InformationStructure) -> None:
    components = ckc_decompose(structure.players)
    if len(components.blocks) != 1:
        raise DomainError(
            "structure has multiple common knowledge components; "
            "analyze each one via restrict_to_ckc"
        )


@dataclass(frozen=True)
class TwoSidedResult:
    """Both directions of the deterministic-dominance check."""

    forward: ImiResult   # first oracle dominates second
    backward: ImiResult  # second oracle dominates first

    @property
    def equivalent(self) -> bool:
        return self.forward.holds and self.backward.holds


def two_sided_imi_equal(
    structure: InformationStructure,
    first: Partition,
    second: Partition,
    cap: int = DEFAULT_COARSENING_CAP,
) -> TwoSidedResult:
    """Run the deterministic-dominance check in both directions. Requires a
    unique common-knowledge component; on multi-component structures the two
    directions must instead be analyzed per component. Each direction is
    ``is_imi``'s, and every oracle a direction must scan is checked against
    ``cap`` before either direction runs."""
    require_unique_ckc(structure)
    forward = _imi_check(structure, first, second, cap)
    backward = _imi_check(structure, second, first, cap)
    return TwoSidedResult(forward=forward(), backward=backward())


def unique_ckc_dominates(
    structure: InformationStructure, first: Partition, second: Partition
) -> bool:
    """Dominance over all (stochastic) signaling functions when the players
    share a unique common-knowledge component: holds exactly when the first
    oracle partition refines the second."""
    require_unique_ckc(structure)
    return refines(first, second)


def restrict_to_ckc(structure: InformationStructure, state: str) -> InformationStructure:
    """Restriction of the structure to the common-knowledge component
    containing ``state``: states cut down to the component, prior
    renormalized, every player and oracle partition restricted."""
    components = ckc_decompose(structure.players)
    block = components.block_of(state)
    sub = StateSpace(block)
    total = structure.prior.event_mass(block)
    prior = Prior.from_mass(sub, {w: structure.prior.of(w) / total for w in block})
    return InformationStructure(
        space=sub,
        prior=prior,
        player_names=structure.player_names,
        players=tuple(p.restrict(sub) for p in structure.players),
        oracle_names=structure.oracle_names,
        oracles=tuple(o.restrict(sub) for o in structure.oracles),
    )


# ---------------------------------------------------------------------------
# Garbling feasibility


@dataclass(frozen=True)
class GarblingResult:
    """Whether a row-stochastic G with first @ G == second exists, and one
    such G when it does (rows indexed by the first matrix's columns, columns
    by the second's)."""

    exists: bool
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    garbling: Optional[tuple[tuple[Fraction, ...], ...]] = None

    def as_json(self) -> dict:
        data: dict = {"exists": self.exists}
        if self.garbling is not None:
            data["garbling"] = {
                u: {
                    v: format_rational(x)
                    for v, x in zip(self.col_labels, row)
                }
                for u, row in zip(self.row_labels, self.garbling)
            }
        return data


def garbling_exists(first: StochasticMatrix, second: StochasticMatrix) -> GarblingResult:
    """Exact feasibility of first @ G == second over row-stochastic G >= 0,
    decided by a fraction-free phase-1 simplex."""
    if first.space != second.space:
        raise DomainError("matrices are defined over different state spaces")
    nu = len(first.column_labels)
    nv = len(second.column_labels)
    nvars = nu * nv

    def var(u: int, v: int) -> int:
        return u * nv + v

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for w in first.space.states:
        frow = first.row(w)
        srow = second.row(w)
        for v in range(nv):
            coeffs = [Fraction(0)] * nvars
            for u in range(nu):
                coeffs[var(u, v)] = frow[u]
            rows.append(coeffs)
            rhs.append(srow[v])
    for u in range(nu):
        coeffs = [Fraction(0)] * nvars
        for v in range(nv):
            coeffs[var(u, v)] = Fraction(1)
        rows.append(coeffs)
        rhs.append(Fraction(1))

    solution = feasible_nonneg(rows, rhs)
    if solution is None:
        return GarblingResult(False, first.column_labels, second.column_labels)
    garbling = tuple(
        tuple(solution[var(u, v)] for v in range(nv)) for u in range(nu)
    )
    return GarblingResult(True, first.column_labels, second.column_labels, garbling)


def apply_garbling(
    first: StochasticMatrix, garbling: Sequence[Sequence[Fraction]], col_labels: Sequence[str]
) -> StochasticMatrix:
    """Multiply a row-stochastic matrix by a garbling, yielding the garbled
    matrix over the given column labels."""
    nu = len(first.column_labels)
    if len(garbling) != nu:
        raise InputError("garbling must have one row per column of the base matrix")
    entries = []
    for w in first.space.states:
        frow = first.row(w)
        entries.append(
            tuple(
                sum((frow[u] * garbling[u][v] for u in range(nu)), Fraction(0))
                for v in range(len(col_labels))
            )
        )
    return StochasticMatrix(
        space=first.space, column_labels=tuple(col_labels), entries=tuple(entries)
    )


def common_objective_condition(
    structure: InformationStructure, first: Partition, second: Partition
) -> bool:
    """For every player, announcing the first oracle leaves the player at
    least as finely informed as announcing the second."""
    return all(
        refines(join(p, first), join(p, second)) for p in structure.players
    )
