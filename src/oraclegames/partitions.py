"""Lattice operations on finite partitions: join, meet / common-knowledge
components, refinement, coarsening enumeration, and connectivity witnesses.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator, Optional, Sequence

from .errors import DomainError, ResourceLimitError
from .types import Partition

DEFAULT_COARSENING_CAP = 10


def _require_same_space(p: Partition, q: Partition) -> None:
    if p.space != q.space:
        raise DomainError("partitions are defined over different state spaces")


def join(p: Partition, q: Partition) -> Partition:
    """Coarsest common refinement: the nonempty pairwise block intersections.

    This is the information of an agent observing both partitions at once.
    """
    _require_same_space(p, q)
    return Partition.from_masks(p.space, [a & b for a in p.masks for b in q.masks if a & b])


def ckc_decompose(players: Sequence[Partition]) -> Partition:
    """Finest common coarsening (meet) of the given partitions.

    Blocks are the connected components of the relation linking two states
    whenever some partition puts them in one block; each block is a common
    knowledge component (CKC) of the agents holding these partitions.
    """
    if not players:
        raise DomainError("need at least one partition")
    for p in players[1:]:
        _require_same_space(players[0], p)
    components: list[int] = []
    for p in players:
        for mask in p.masks:
            merged = mask
            for c in components:
                if c & mask:
                    merged |= c
            components = [c for c in components if not c & mask]
            components.append(merged)
    return Partition.from_masks(players[0].space, components)


def refines(p: Partition, q: Partition) -> bool:
    """True iff every block of p lies inside some block of q."""
    _require_same_space(p, q)
    return all(any(not a & ~b for b in q.masks) for a in p.masks)


def _require_within_cap(k: int, cap: int) -> None:
    """Refuse to enumerate the coarsenings of a partition of more than `cap`
    blocks."""
    if k > cap:
        raise ResourceLimitError(
            f"partition has {k} blocks; coarsening enumeration is capped at {cap} blocks"
        )


def _merged_masks(masks: Sequence[int], cap: int) -> Iterator[tuple[int, ...]]:
    """Every way of merging the given disjoint masks, as the tuple of merged
    masks, in lexicographic restricted-growth-string order (everything merged
    first, all masks apart last; groups by first member). Refuses more than
    `cap` masks before anything is enumerated."""
    k = len(masks)
    _require_within_cap(k, cap)
    groups: list[int] = []

    def grow(i: int) -> Iterator[tuple[int, ...]]:
        if i == k:
            yield tuple(groups)
            return
        mask = masks[i]
        for g in range(len(groups)):
            groups[g] |= mask
            yield from grow(i + 1)
            groups[g] ^= mask
        groups.append(mask)
        yield from grow(i + 1)
        groups.pop()

    return grow(0)


def coarsenings(p: Partition, cap: int = DEFAULT_COARSENING_CAP) -> tuple[Partition, ...]:
    """Every partition obtainable by merging blocks of p, in the order of
    ``_merged_masks(p.masks, cap)`` (everything merged first, all blocks
    apart last), each checked and built from its merged masks by
    ``Partition.from_masks``. There are Bell(#blocks) of them, so more than
    `cap` blocks are refused before anything is built. The dominance checks
    walk the same order lazily."""
    return tuple(map(partial(Partition.from_masks, p.space), _merged_masks(p.masks, cap)))


def connect_path(
    players: Sequence[Partition], a: str, b: str
) -> Optional[tuple[tuple[str, Optional[int]], ...]]:
    """Shortest chain of states from a to b where each hop stays inside one
    player's block.

    Returns ((state, player index), ...) where the index at position k names
    the partition linking state k to state k+1 (None on the final entry).
    Ties are broken by state order, then player order. Returns None when a
    and b lie in different common knowledge components.
    """
    if not players:
        raise DomainError("need at least one partition")
    space = players[0].space
    for p in players[1:]:
        _require_same_space(players[0], p)
    space.index(a), space.index(b)
    if a == b:
        return ((a, None),)
    parent: dict[str, tuple[str, int]] = {}
    visited = {a}
    frontier = [a]
    while frontier and b not in visited:
        layer = sorted(frontier, key=space.index)
        frontier = []
        for s in layer:
            for pi, part in enumerate(players):
                for t in part.block_of(s):
                    if t not in visited:
                        visited.add(t)
                        parent[t] = (s, pi)
                        frontier.append(t)
    if b not in visited:
        return None
    hops: list[tuple[str, Optional[int]]] = [(b, None)]
    cur = b
    while cur != a:
        prev, pi = parent[cur]
        hops.append((prev, pi))
        cur = prev
    hops.reverse()
    return tuple(hops)
