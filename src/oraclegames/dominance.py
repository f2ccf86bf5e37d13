"""Decision procedures for ranking public-information oracles: matched
coarsening profiles for deterministic signaling, two-sided equivalence and
refinement dominance on a unique common-knowledge component, garbling
feasibility between experiment matrices, and the player-wise join-refinement
condition that governs shared-payoff decision problems.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Iterable, Iterator, Optional, Sequence

from ._lp import feasible_nonneg
from .errors import DomainError, InputError
from .partitions import DEFAULT_COARSENING_CAP, _merged_masks, ckc_decompose, join, refines
from .signaling import StochasticMatrix
from .types import (
    InformationStructure,
    Partition,
    Prior,
    StateSpace,
    format_rational,
)

_ProfileKey = tuple[frozenset[int], ...]  # per player, the masks of the joined blocks


def induced_profile(
    structure: InformationStructure, oracle: Partition
) -> tuple[Partition, ...]:
    """What each player knows once the oracle partition is announced: the
    join of the player's partition with the oracle's, per player."""
    return tuple(join(p, oracle) for p in structure.players)


def _profile_keys(
    structure: InformationStructure, oracle: Partition, cap: int
) -> Iterator[tuple[tuple[int, ...], _ProfileKey]]:
    """(merged masks, key) per coarsening of the oracle, in ``coarsenings``
    order; the key is the induced profile as masks, one set per player. The
    cap and the space are checked on the call, before anything is enumerated."""
    merged_masks = _merged_masks(oracle.masks, cap)
    if oracle.space != structure.space:
        raise DomainError("partitions are defined over different state spaces")
    players = [p.masks for p in structure.players]
    return (
        (merged, tuple(frozenset([x & c for x in xs for c in merged if x & c]) for xs in players))
        for merged in merged_masks
    )


def _first_seen(keys: Iterable[tuple[tuple[int, ...], _ProfileKey]]) -> dict:
    """Each profile key, in order of first appearance, with its first coarsening."""
    out: dict[_ProfileKey, tuple[int, ...]] = {}
    for merged, key in keys:
        out.setdefault(key, merged)
    return out


def coarsening_profiles(
    structure: InformationStructure,
    oracle: Partition,
    cap: int = DEFAULT_COARSENING_CAP,
) -> dict[tuple[Partition, ...], Partition]:
    """Map each induced profile reachable by coarsening the oracle to the
    first coarsening (in enumeration order) that produces it."""
    as_partition = partial(Partition.from_masks, oracle.space)
    return {
        tuple(map(as_partition, key)): as_partition(merged)
        for key, merged in _first_seen(_profile_keys(structure, oracle, cap)).items()
    }


@dataclass(frozen=True)
class ImiResult:
    """Outcome of the deterministic-dominance check.

    When it fails, ``witness`` is the first coarsening of the second oracle
    whose induced profile no coarsening of the first oracle can reproduce.
    """

    holds: bool
    witness: Optional[Partition] = None


def _imi(space: StateSpace, reachable: Iterable[_ProfileKey], scan: Iterable) -> ImiResult:
    """Fails at the first scanned (merged masks, key) whose key is not reachable."""
    for merged, key in scan:
        if key not in reachable:
            return ImiResult(False, Partition.from_masks(space, merged))
    return ImiResult(True, None)


def is_imi(
    structure: InformationStructure,
    first: Partition,
    second: Partition,
    cap: int = DEFAULT_COARSENING_CAP,
) -> ImiResult:
    """Check that every profile inducible by a coarsening of ``second`` is
    also inducible by some coarsening of ``first``. Both block counts are
    checked against ``cap`` before anything is enumerated; the scan of
    ``second``'s coarsenings stops at the first profile ``first`` cannot induce."""
    reachable = _profile_keys(structure, first, cap)
    scan = _profile_keys(structure, second, cap)
    return _imi(second.space, {key for _, key in reachable}, scan)


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

    def as_tuple(self) -> tuple[bool, bool, bool]:
        return (self.forward.holds, self.backward.holds, self.equivalent)


def two_sided_imi_equal(
    structure: InformationStructure,
    first: Partition,
    second: Partition,
    cap: int = DEFAULT_COARSENING_CAP,
) -> TwoSidedResult:
    """Run the deterministic-dominance check in both directions. Requires a
    unique common-knowledge component; on multi-component structures the two
    directions must instead be analyzed per component. After the same cap
    check as ``is_imi``, each oracle's coarsenings are enumerated once, and
    both directions and witnesses come from the two key-to-first-coarsening maps."""
    require_unique_ckc(structure)
    keys = [_profile_keys(structure, oracle, cap) for oracle in (first, second)]
    firsts, seconds = map(_first_seen, keys)
    return TwoSidedResult(
        forward=_imi(second.space, firsts, zip(seconds.values(), seconds)),
        backward=_imi(first.space, seconds, zip(firsts.values(), firsts)),
    )


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
