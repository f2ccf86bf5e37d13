"""Phase-1 simplex over exact rationals: decide ``{ x >= 0 : A x = b }`` and
produce a point when feasible.

The system comes in integers: row i of ``A`` and ``b[i]`` are ``scales[i] > 0``
times the rational row. The tableau is fraction-free and sparse: each row is a
dict of its nonzero integer entries (column -> value, the right-hand side in
the last column), a positive multiple of the rational row ``[A_i | e_i | b_i]``,
negated when ``b_i < 0``, and starts with its scale in its artificial column.
A pivot sets ``row <- p * row - f * pivot_row`` on the rows with a nonzero f
in the entering column only, over their nonzero entries, and divides each by
its gcd. The cost row stays dense: it weighs row i by ``L / scales[i]``, L the
lcm of the scales, so it is L times the rational cost row. A positive factor
changes no sign and no ratio ``b_i / a_ij``, so Bland's rule picks the pivots
the rational tableau would and the same vertex comes back, each basic variable
read as ``rhs / diagonal``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .types import _reduced


def _pivoted(row: dict[int, int], f: int, prow: dict[int, int], pivot: int) -> dict[int, int]:
    """``pivot * row - f * prow`` on their nonzero entries, divided by its gcd."""
    out = {j: pivot * v for j, v in row.items()}
    for j, w in prow.items():
        v = out.get(j, 0) - f * w
        if v:
            out[j] = v
        else:  # f * w != 0, so j was in ``out``
            del out[j]
    values = list(out.values())
    reduced = _reduced(values)
    return out if reduced is values else dict(zip(out, reduced))


def feasible_nonneg(
    A: Sequence[Sequence[int]], b: Sequence[int], scales: Sequence[int]
) -> Optional[list[Fraction]]:
    """Return some x >= 0 with A x = b, or None when the system is infeasible.
    Row i of the integer ``A`` and ``b`` is ``scales[i] > 0`` times the rational row."""
    m = len(A)
    n = len(A[0]) if A else 0
    if len(b) != m:
        raise ValueError(f"{len(b)} right-hand sides for {m} constraint rows")
    if len(scales) != m:
        raise ValueError(f"{len(scales)} row scales for {m} constraint rows")
    for row, scale in zip(A, scales):
        if len(row) != n:
            raise ValueError("ragged constraint matrix")
        if scale <= 0:
            raise ValueError(f"row scale {scale} is not positive")

    # Rows with nonnegative right-hand sides, one artificial variable each.
    width = n + m
    tab: list[dict[int, int]] = []
    for i in range(m):
        sign = -1 if b[i] < 0 else 1
        row = {j: sign * v for j, v in enumerate(A[i]) if v}
        row[n + i] = scales[i]
        if b[i]:
            row[width] = sign * b[i]
        tab.append(row)
    basis = [n + i for i in range(m)]

    # Reduced costs for minimizing the artificial total, times the lcm L of
    # the row scales: structural columns start at -(L-weighted column sum),
    # artificial columns at 0.
    total = lcm(*scales)
    cost = [0] * (width + 1)
    for row, scale in zip(tab, scales):
        k = total // scale
        for j, v in row.items():
            cost[j] -= k * v
    cost[n:width] = [0] * m

    while True:
        enter = next((j for j in range(width) if cost[j] < 0), None)
        if enter is None:
            break
        hits = [i for i in range(m) if enter in tab[i]]
        r = None
        for i in hits:
            coef = tab[i][enter]
            # Smallest rhs / coef, cross-multiplied (every coef here is
            # positive), ties to the smallest basis index.
            if coef > 0 and (
                r is None
                or (tab[i].get(width, 0) * tab[r][enter], basis[i])
                < (tab[r].get(width, 0) * coef, basis[r])
            ):
                r = i
        if r is None:  # pragma: no cover - phase-1 objective is bounded
            raise ArithmeticError("unbounded phase-1 pivot")
        prow = tab[r]
        pivot = prow[enter]
        for i in hits:
            if i != r:
                tab[i] = _pivoted(tab[i], tab[i][enter], prow, pivot)
        f = cost[enter]
        cost = [pivot * v for v in cost]
        for j, w in prow.items():
            cost[j] -= f * w
        cost = _reduced(cost)
        basis[r] = enter

    if any(basis[i] >= n and width in tab[i] for i in range(m)):
        return None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(tab[i].get(width, 0), tab[i][basis[i]])
    return x
