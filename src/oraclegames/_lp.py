"""Phase-1 simplex over exact rationals: decide ``{ x >= 0 : A x = b }`` and
produce a point when feasible.

The tableau is fraction-free: each row is the rational row ``[A_i | e_i |
b_i]`` (negated when ``b_i < 0``) times a positive integer, the lcm of its
denominators at first; a pivot sets ``row <- p * row - f * pivot_row`` and
divides by the row's gcd. A positive factor changes no sign and no ratio
``b_i / a_ij``, so Bland's rule picks the pivots the rational tableau would
and the same vertex comes back, each basic variable read as ``rhs / diagonal``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .types import _over_lcm, _reduced


def feasible_nonneg(
    A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> Optional[list[Fraction]]:
    """Return some x >= 0 with A x = b, or None when the system is infeasible."""
    m = len(A)
    n = len(A[0]) if A else 0
    for row in A:
        if len(row) != n:
            raise ValueError("ragged constraint matrix")

    # Rows with nonnegative right-hand sides, one artificial variable each.
    width = n + m
    tab: list[list[int]] = []
    scales: list[int] = []
    for i in range(m):
        scale, *row = _over_lcm((*A[i], b[i]))
        if row[-1] < 0:
            row = [-v for v in row]
        tab.append(row[:n] + [scale if j == i else 0 for j in range(m)] + row[n:])
        scales.append(scale)
    basis = [n + i for i in range(m)]

    # Reduced costs for minimizing the artificial total, times the lcm L of
    # the row scales: structural columns start at -(L-weighted column sum),
    # artificial columns at 0.
    total = lcm(*scales)
    cost = [0] * (width + 1)
    for row, scale in zip(tab, scales):
        k = total // scale
        cost = [c - k * v for c, v in zip(cost, row)]
    cost[n:width] = [0] * m

    while True:
        enter = next((j for j in range(width) if cost[j] < 0), None)
        if enter is None:
            break
        r = None
        for i in range(m):
            coef = tab[i][enter]
            # Smallest rhs / coef, cross-multiplied (every coef here is
            # positive), ties to the smallest basis index.
            if coef > 0 and (
                r is None
                or (tab[i][width] * tab[r][enter], basis[i])
                < (tab[r][width] * coef, basis[r])
            ):
                r = i
        if r is None:  # pragma: no cover - phase-1 objective is bounded
            raise ArithmeticError("unbounded phase-1 pivot")
        prow = tab[r]
        pivot = prow[enter]
        for i in range(m):
            f = tab[i][enter]
            if i != r and f != 0:
                tab[i] = _reduced([pivot * v - f * w for v, w in zip(tab[i], prow)])
        f = cost[enter]
        cost = _reduced([pivot * v - f * w for v, w in zip(cost, prow)])
        basis[r] = enter

    if any(basis[i] >= n and tab[i][width] != 0 for i in range(m)):
        return None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(tab[i][width], tab[i][basis[i]])
    return x
