"""Phase-1 simplex over exact rationals: decide ``{ x >= 0 : A x = b }`` and
produce a point when feasible.

The rows fall into independent components: two rows are linked when they
share a nonzero column. Each component is solved on its own tableau, in order
of its first row, and the first infeasible one decides; a column with no
nonzero entry is 0. This is the pivot path of one tableau over the whole
system: a pivot changes only the rows with a nonzero in the entering column,
all in one component, and the cost row restricted to a component's columns is
a positive multiple of that component's own cost row. So Bland's rule enters
the same columns in each component, ratio-test ties stay inside it, and the
local indices keep structural columns in order before artificial ones.

The tableau is fraction-free: each row is the rational row ``[A_i | e_i |
b_i]`` (negated when ``b_i < 0``) times a positive integer, the lcm of its
denominators at first; a pivot sets ``row <- p * row - f * pivot_row`` and
divides by the row's gcd. A positive factor changes no sign and no ratio
``b_i / a_ij``, so Bland's rule picks the pivots the rational tableau would
and the same vertex comes back, each basic variable read as ``rhs / diagonal``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Optional, Sequence


def _reduced(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _components(A: Sequence[Sequence[Fraction]]) -> list[tuple[list[int], list[int]]]:
    """The rows of each component with its nonzero columns, both ascending,
    in order of first row."""
    parent = list(range(len(A)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    support = []
    owner: dict[int, int] = {}  # column -> the first row with a nonzero there
    for i, row in enumerate(A):
        cols = list(compress(range(len(row)), row))
        support.append(cols)
        for j in cols:
            parent[root(owner.setdefault(j, i))] = root(i)
    groups: dict[int, list[int]] = {}
    for i in range(len(A)):
        groups.setdefault(root(i), []).append(i)
    return [
        (rows, sorted({j for i in rows for j in support[i]})) for rows in groups.values()
    ]


def feasible_nonneg(
    A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> Optional[list[Fraction]]:
    """Return some x >= 0 with A x = b, or None when the system is infeasible."""
    n = len(A[0]) if A else 0
    for row in A:
        if len(row) != n:
            raise ValueError("ragged constraint matrix")
    x = [Fraction(0)] * n
    for rows, cols in _components(A):
        if not cols:  # a zero row
            if b[rows[0]] != 0:
                return None
            continue
        part = _phase1([[A[i][j] for j in cols] for i in rows], [b[i] for i in rows])
        if part is None:
            return None
        for j, v in zip(cols, part):
            x[j] = v
    return x


def _phase1(A: list[list[Fraction]], b: list[Fraction]) -> Optional[list[Fraction]]:
    """One component's tableau: A has at least one row and one column."""
    m = len(A)
    n = len(A[0])

    # Rows with nonnegative right-hand sides, one artificial variable each.
    width = n + m
    tab: list[list[int]] = []
    scales: list[int] = []
    for i in range(m):
        entries = (*A[i], b[i])
        scale = lcm(*(v.denominator for v in entries))
        row = [v.numerator * (scale // v.denominator) for v in entries]
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
