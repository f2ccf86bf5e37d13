"""Exact phase-1 simplex, cross-checked against the basic-solution
enumeration oracle."""

import random
import time
from fractions import Fraction

import oracles
import pytest
from oraclegames import (
    Partition,
    StateSpace,
    StochasticMatrix,
    StochasticSignaling,
    apply_garbling,
    dominance,
    experiment_matrix,
    garbling_exists,
    harness,
    merge_garbled,
    signaling_from_json,
    structure_from_json,
)
from oraclegames import _lp
from oraclegames._lp import feasible_nonneg
from oraclegames.types import _over_lcm


def _solve(A, b):
    """``feasible_nonneg`` on a rational system: each row and its right-hand
    side as integers over the lcm of their denominators, which is the row's
    scale."""
    keys = [_over_lcm([*map(Fraction, row), Fraction(rhs)]) for row, rhs in zip(A, b)]
    return feasible_nonneg(
        [key[1:-1] for key in keys], [key[-1] for key in keys], [key[0] for key in keys]
    )


def _check_solution(A, b, x):
    assert all(v >= 0 for v in x)
    for row, rhs in zip(A, b):
        assert sum((c * v for c, v in zip(row, x)), Fraction(0)) == rhs


def test_trivial_systems():
    assert _solve([], []) == []
    assert _solve([[]], [Fraction(0)]) == []
    assert _solve([[]], [Fraction(1)]) is None


@pytest.mark.parametrize(
    "A, b, scales",
    [
        pytest.param([[1]], [1, 5], [1], id="extra_rhs"),
        pytest.param([], [1], [], id="rhs_without_rows"),
        pytest.param([[1], [1]], [1], [1, 1], id="short_rhs"),
        pytest.param([[1]], [1], [1, 1], id="extra_scale"),
        pytest.param([[1], [1]], [1, 1], [1], id="short_scales"),
        pytest.param([[1]], [1], [0], id="zero_scale"),
        pytest.param([[1], [2]], [1, 2], [1, -2], id="negative_scale"),
        pytest.param([[1, 2], [1]], [1, 1], [1, 1], id="ragged_row"),
    ],
)
def test_refuses_a_system_whose_lengths_or_scales_do_not_fit(A, b, scales):
    with pytest.raises(ValueError):
        feasible_nonneg(A, b, scales)


def test_cost_row_weighs_each_row_by_the_lcm_over_its_scale():
    # The rational rows (0, 1, 1 | 1) and (-1/2, -1/2, 1/2 | 0), the second
    # handed over as twice itself. Phase 1 enters column 1, whose reduced
    # cost is -1/2; a cost row summing the integer rows unweighted would see
    # 0 there, enter column 2 and stop at (1, 0, 1).
    A, b, scales = [[0, 1, 1], [-1, -1, 1]], [1, 0], [1, 2]
    rational = [[Fraction(v, s) for v in row] for row, s in zip(A, scales)]
    vertex = [Fraction(0), Fraction(1, 2), Fraction(1, 2)]
    assert oracles.fraction_simplex(rational, [Fraction(1), Fraction(0)]) == vertex
    assert feasible_nonneg(A, b, scales) == vertex


def test_simple_feasible_system():
    A = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
    b = [Fraction(2), Fraction(0)]
    x = _solve(A, b)
    assert x == [Fraction(1), Fraction(1)]


def test_simple_infeasible_system():
    # x1 + x2 = -1 has no nonnegative solution.
    A = [[Fraction(1), Fraction(1)]]
    b = [Fraction(-1)]
    assert _solve(A, b) is None


def test_negative_rhs_is_normalized():
    # -x1 = -3 forces x1 = 3.
    A = [[Fraction(-1), Fraction(0)]]
    b = [Fraction(-3)]
    x = _solve(A, b)
    _check_solution(A, b, x)


def test_redundant_rows_are_fine():
    A = [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(2), Fraction(4), Fraction(6)],
    ]
    b = [Fraction(6), Fraction(12)]
    x = _solve(A, b)
    _check_solution(A, b, x)


def test_inconsistent_duplicate_rows():
    A = [
        [Fraction(1), Fraction(2)],
        [Fraction(1), Fraction(2)],
    ]
    b = [Fraction(1), Fraction(2)]
    assert _solve(A, b) is None


def _image(A, x0):
    return [sum((c * v for c, v in zip(row, x0)), Fraction(0)) for row in A]


def _random_systems():
    """120 seeded systems, about half feasible by construction."""
    rng = random.Random(20240814)
    for _ in range(120):
        m = rng.randint(1, 4)
        n = rng.randint(1, 6)
        A = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(m)
        ]
        if rng.random() < 0.5:
            # Force feasibility by picking the right-hand side as A @ x0.
            x0 = [Fraction(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(n)]
            b = _image(A, x0)
        else:
            b = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
        yield A, b


def test_agrees_with_basic_solution_oracle_on_random_systems():
    feasible_seen = infeasible_seen = 0
    for A, b in _random_systems():
        expected = oracles.feasible_nonneg_oracle(A, b)
        actual = _solve(A, b)
        assert (actual is None) == (expected is None)
        if actual is None:
            infeasible_seen += 1
        else:
            feasible_seen += 1
            _check_solution(A, b, actual)
    assert feasible_seen >= 30 and infeasible_seen >= 10


# The integer tableau must pivot exactly as the rational one did: Bland's rule
# and the basis-index tie-break then return the same vertex, not just the
# same verdict, so every garbling witness stays as it was.


def test_same_vertex_as_fraction_simplex_on_random_systems():
    for A, b in _random_systems():
        assert _solve(A, b) == oracles.fraction_simplex(A, b)


def test_same_vertex_as_fraction_simplex_on_degenerate_systems():
    rng = random.Random(31415)
    seen = dict.fromkeys(("duplicate", "zero_row", "zero_col", "negative", "zero_b"), 0)
    feasible_seen = infeasible_seen = 0
    for _ in range(400):
        m = rng.randint(1, 6)
        n = rng.randint(1, 7)
        A = [
            [Fraction(rng.choice((0, 0, 1, -1, 2, -3)), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(m)
        ]
        if rng.random() < 0.2:
            b = [Fraction(0)] * m
        elif rng.random() < 0.5:
            b = _image(A, [Fraction(rng.randint(0, 2), rng.randint(1, 3)) for _ in range(n)])
        else:
            b = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(m)]
        if m > 1 and rng.random() < 0.5:
            i, j = rng.sample(range(m), 2)
            A[j], b[j] = list(A[i]), b[i]
        if rng.random() < 0.3:
            A[rng.randrange(m)] = [Fraction(0)] * n
        if rng.random() < 0.3:
            j = rng.randrange(n)
            for row in A:
                row[j] = Fraction(0)
        seen["duplicate"] += any(A[i] == A[j] for j in range(m) for i in range(j))
        seen["zero_row"] += any(not any(row) for row in A)
        seen["zero_col"] += any(not any(row[j] for row in A) for j in range(n))
        seen["negative"] += any(v < 0 for v in b)
        seen["zero_b"] += not any(b)
        x = _solve(A, b)
        assert x == oracles.fraction_simplex(A, b)
        if x is None:
            infeasible_seen += 1
        else:
            feasible_seen += 1
            _check_solution(A, b, x)
    assert min(seen.values()) >= 40, seen
    assert feasible_seen >= 100 and infeasible_seen >= 40


def test_same_vertex_as_fraction_simplex_when_ratio_ties_are_common():
    # Small nonnegative integer rows over a nonnegative image tie often in the
    # ratio test, so a tie-break other than the smallest basis index shows.
    rng = random.Random(7)
    for _ in range(2000):
        m = rng.randint(2, 5)
        n = rng.randint(3, 9)
        A = [[Fraction(rng.choice((0, 1, 1, 2, 3))) for _ in range(n)] for _ in range(m)]
        b = _image(A, [Fraction(rng.choice((0, 0, 1, 2))) for _ in range(n)])
        assert _solve(A, b) == oracles.fraction_simplex(A, b)


# Block-diagonal systems with zero rows and columns shuffled in: the shape of
# a garbling system, which falls apart into one block per linked column group.


def _block_diagonal(rng, blocks, zero_rows, zero_cols):
    """The (A, b) ``blocks`` on a diagonal, below them ``zero_rows`` (a list
    of right-hand sides) and beside them ``zero_cols`` empty columns, with
    rows and columns shuffled into each other."""
    m = sum(len(A) for A, _ in blocks) + len(zero_rows)
    n = sum(len(A[0]) for A, _ in blocks) + zero_cols
    row_at, col_at = rng.sample(range(m), m), rng.sample(range(n), n)
    big = [[Fraction(0)] * n for _ in range(m)]
    rhs = [Fraction(0)] * m
    r0 = c0 = 0
    for A, b in blocks:
        rows = [row_at[r0 + i] for i in range(len(A))]
        cols = [col_at[c0 + j] for j in range(len(A[0]))]
        for r, a_row, b_i in zip(rows, A, b):
            rhs[r] = b_i
            for c, v in zip(cols, a_row):
                big[r][c] = v
        r0, c0 = r0 + len(A), c0 + len(A[0])
    for i, b_i in enumerate(zero_rows):
        rhs[row_at[r0 + i]] = b_i
    return big, rhs


def _random_block(rng, values, feasible):
    m, n = rng.randint(1, 4), rng.randint(1, 5)
    A = [[Fraction(rng.choice(values), rng.randint(1, 3)) for _ in range(n)] for _ in range(m)]
    if feasible:
        b = _image(A, [Fraction(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(n)])
    else:
        b = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
    return A, b


def test_same_vertex_as_fraction_simplex_on_block_diagonal_systems():
    rng = random.Random(4242)
    feasible_seen = infeasible_seen = 0
    for _ in range(300):
        blocks = [
            _random_block(rng, (0, 0, 1, -1, 2, -3), rng.random() < 0.7)
            for _ in range(rng.randint(2, 4))
        ]
        zero_rows = [Fraction(rng.choice((0, 0, 0, 1))) for _ in range(rng.randint(0, 2))]
        A, b = _block_diagonal(rng, blocks, zero_rows, rng.randint(0, 2))
        x = _solve(A, b)
        assert x == oracles.fraction_simplex(A, b)
        if x is None:
            infeasible_seen += 1
        else:
            feasible_seen += 1
            _check_solution(A, b, x)
    assert feasible_seen >= 60 and infeasible_seen >= 60


def test_same_vertex_as_fraction_simplex_on_sparse_integer_systems():
    # Integer rows, most entries zero, each row scales[i] times its rational
    # row (so rows come unreduced and rational rows with denominators), with
    # zero rows, duplicate rows and negative right-hand sides mixed in. The
    # oracle lists its entering columns: some systems enter an artificial one.
    rng = random.Random(1977)
    seen = dict.fromkeys(("zero_row", "duplicate", "negative", "artificial_entered"), 0)
    zeros = cells = feasible_seen = infeasible_seen = 0
    for _ in range(400):
        m, n = rng.randint(2, 8), rng.randint(2, 10)
        A = [
            [rng.choice((-3, -1, 1, 2, 4)) if rng.random() < 0.3 else 0 for _ in range(n)]
            for _ in range(m)
        ]
        if rng.random() < 0.5:
            x0 = [rng.choice((0, 0, 1, 2)) for _ in range(n)]
            b = [sum(a * v for a, v in zip(row, x0)) for row in A]
        else:
            b = [rng.randint(-4, 4) for _ in range(m)]
        if rng.random() < 0.4:
            i, j = rng.sample(range(m), 2)
            A[j] = list(A[i])
            b[j] = b[i] if rng.random() < 0.7 else b[i] + 1
        if rng.random() < 0.3:
            i = rng.randrange(m)
            A[i], b[i] = [0] * n, rng.choice((0, 0, 1))
        scales = [rng.randint(1, 6) for _ in range(m)]
        seen["zero_row"] += any(not any(row) for row in A)
        seen["duplicate"] += any(A[i] == A[j] for j in range(m) for i in range(j))
        seen["negative"] += any(v < 0 for v in b)
        zeros += sum(v == 0 for row in A for v in row)
        cells += m * n
        rational = [[Fraction(v, k) for v in row] for row, k in zip(A, scales)]
        rhs = [Fraction(v, k) for v, k in zip(b, scales)]
        entered = []
        x = feasible_nonneg(A, b, scales)
        assert x == oracles.fraction_simplex(rational, rhs, entered)
        seen["artificial_entered"] += any(j >= n for j in entered)
        if x is None:
            infeasible_seen += 1
        else:
            feasible_seen += 1
            _check_solution(rational, rhs, x)
    assert zeros >= 0.6 * cells
    assert min(seen.values()) >= 10, seen
    assert feasible_seen >= 100 and infeasible_seen >= 100, (feasible_seen, infeasible_seen)


# garbling_exists solves one system per linked group of the first matrix's
# columns. Each group's witness must be its part of the vertex that one
# Fraction tableau over the whole dense system gives.


def _dense_vertex(first, second):
    """The rows of G at the vertex ``oracles.fraction_simplex`` finds on the
    whole system first @ G == second, or None when it is infeasible."""
    A, b = oracles.dense_garbling_system(first.entries, second.entries)
    x = oracles.fraction_simplex(A, b)
    nv = len(second.column_labels)
    return None if x is None else tuple(tuple(x[i : i + nv]) for i in range(0, len(x), nv))


def _distribution(rng, k, low=1):
    weights = [rng.randint(low, 4) for _ in range(k)]
    if not any(weights):
        weights[rng.randrange(k)] = 1
    return [Fraction(w, sum(weights)) for w in weights]


def _matrix(space, prefix, rows):
    labels = tuple(f"{prefix}{i}" for i in range(len(rows[0])))
    return StochasticMatrix(space, labels, tuple(map(tuple, rows)))


def _garbled(rng, space, first, nv):
    """first @ G for a random row-stochastic G with zero entries allowed."""
    G = [_distribution(rng, nv, 0) for _ in first.column_labels]
    rows = [[sum(r[u] * G[u][v] for u in range(len(G))) for v in range(nv)] for r in first.entries]
    return _matrix(space, "v", rows)


def _plain_pair(rng):
    """A plain first matrix whose states put mass on one of 1-3 column groups,
    now and then on a column of another group too, with some columns empty;
    second is a garbling of it or a random matrix."""
    n, nu, nv = rng.randint(1, 5), rng.randint(1, 6), rng.randint(1, 4)
    space = StateSpace(tuple(f"w{i}" for i in range(n)))
    group = [rng.randrange(3) for _ in range(nu)]
    empty = set(rng.sample(range(nu), rng.randint(0, nu - 1)))
    rows = []
    for _ in range(n):
        g = rng.randrange(3)
        cols = [u for u in range(nu) if u not in empty and (group[u] == g or rng.random() < 0.2)]
        cols = cols or [min(set(range(nu)) - empty)]
        row = [Fraction(0)] * nu
        for u, p in zip(cols, _distribution(rng, len(cols), 0)):
            row[u] = p
        rows.append(row)
    first = _matrix(space, "u", rows)
    if rng.random() < 0.5:
        return first, _garbled(rng, space, first, nv)
    return first, _matrix(space, "v", [_distribution(rng, nv, 0) for _ in range(n)])


def test_garbling_witness_is_the_dense_systems_vertex():
    rng = random.Random(2718)
    seen = dict.fromkeys(("feasible", "infeasible", "empty_column", "cross_linked"), 0)
    pairs = []
    for _ in range(300):
        first, second = _plain_pair(rng)
        columns = list(zip(*first.entries))
        seen["empty_column"] += not all(any(col) for col in columns)
        supports = [{u for u, p in enumerate(row) if p} for row in first.entries]
        seen["cross_linked"] += any(a & b and a != b for a in supports for b in supports)
        pairs.append((first, second))
    for _ in range(12):
        states = rng.randint(5, 8)
        cuts = sorted(rng.sample(range(1, states), rng.randint(1, 2))) + [states]
        first, second = _merged_experiments(rng, states, cuts)
        pairs += [(first, second), (second, first)]
    # Here the ratio test ties a state row with a row-sum row, so solving the
    # row sums first would give another vertex.
    space = StateSpace(("w0", "w1", "w2"))
    tie = [[1, 1, 1, 2], [1, 1, 2, 1], [1, 1, 1, 2]]
    first = _matrix(space, "u", [[Fraction(v, 5) for v in row] for row in tie])
    target = [[Fraction(5, 15), Fraction(10, 15)], [Fraction(8, 15), Fraction(7, 15)]]
    pairs.append((first, _matrix(space, "v", [target[0], target[1], target[0]])))
    for first, second in pairs:
        result = garbling_exists(first, second)
        assert result.garbling == _dense_vertex(first, second)
        assert result.exists == (result.garbling is not None)
        seen["feasible" if result.exists else "infeasible"] += 1
    assert min(seen.values()) >= 40, seen


def _counting_solves(monkeypatch):
    """Record the shape of every system ``garbling_exists`` hands to
    ``feasible_nonneg``."""
    calls = []

    def record(A, b, scales):
        calls.append((len(A), len(A[0])))
        return feasible_nonneg(A, b, scales)

    monkeypatch.setattr(dominance, "feasible_nonneg", record)
    return calls


def _grouped_pair(rng, k, empty, one_column=None):
    """A plain first matrix of ``k`` linked column groups and ``empty``
    columns with mass nowhere, shuffled together; each state puts positive
    mass on every column of its group, and every group has a state (group
    ``one_column`` has one column and at least two states). Returns first, a
    garbling of it, and each group's (states, columns) in order of first
    state, then one ([], [u]) per empty column."""
    sizes = [1 if g == one_column else rng.randint(1, 3) for g in range(k)]
    nu = sum(sizes) + empty
    order = rng.sample(range(nu), nu)
    cuts = [sum(sizes[:g]) for g in range(k + 1)]
    columns = [sorted(order[a:b]) for a, b in zip(cuts, cuts[1:])]
    owner = list(range(k)) + [rng.randrange(k) for _ in range(rng.randint(0, 3))]
    if one_column is not None:
        owner.append(one_column)
    rng.shuffle(owner)
    space = StateSpace(tuple(f"w{i}" for i in range(len(owner))))
    rows = []
    for g in owner:
        row = [Fraction(0)] * nu
        for u, p in zip(columns[g], _distribution(rng, sizes[g])):
            row[u] = p
        rows.append(row)
    first = _matrix(space, "u", rows)
    groups = [([w for w, o in enumerate(owner) if o == g], columns[g]) for g in range(k)]
    groups.sort(key=lambda group: group[0][0])
    groups += [([], [u]) for u in sorted(order[cuts[-1] :])]
    return first, _garbled(rng, space, first, rng.randint(2, 3)), groups


def _group_system(first, second, states, cols):
    """A linked group's rational rows, each with its right-hand side last:
    its states x second's columns, state-major, then its row sums."""
    nv = len(second.column_labels)
    rows = [
        [first.entries[w][u] if j == v else Fraction(0) for u in cols for j in range(nv)]
        + [second.entries[w][v]]
        for w in states
        for v in range(nv)
    ]
    return rows + [[Fraction(int(u == c)) for u in cols for _ in range(nv)] + [1] for c in cols]


def test_garbling_exists_hands_the_solver_integer_rows_over_their_scales(monkeypatch):
    # Every value handed over is an int, and each row and its right-hand
    # side over the row's scale is the group's rational row.
    systems = []

    def record(A, b, scales):
        values = [v for row in A for v in row] + list(b) + list(scales)
        assert {type(v) for v in values} == {int}
        systems.append([[Fraction(v, s) for v in (*row, c)] for row, c, s in zip(A, b, scales)])
        return feasible_nonneg(A, b, scales)

    monkeypatch.setattr(dominance, "feasible_nonneg", record)
    rng = random.Random(1951)
    for _ in range(60):
        first, second, groups = _grouped_pair(rng, rng.randint(1, 4), rng.randint(0, 2))
        systems.clear()
        assert garbling_exists(first, second).exists
        assert systems == [_group_system(first, second, w, u) for w, u in groups]


def test_one_tableau_per_linked_column_group(monkeypatch):
    # Each group's system is its states x second's columns plus its row sums,
    # over its columns x second's columns; a column with mass nowhere is a
    # group of its own.
    calls = _counting_solves(monkeypatch)
    rng = random.Random(99)
    for _ in range(100):
        first, second, groups = _grouped_pair(rng, rng.randint(1, 4), rng.randint(0, 2))
        nv = len(second.column_labels)
        calls.clear()
        result = garbling_exists(first, second)
        assert result.garbling == _dense_vertex(first, second) is not None
        assert calls == [(len(w) * nv + len(u), len(u) * nv) for w, u in groups]


def test_the_first_infeasible_group_decides(monkeypatch):
    # The states of a one-column group all have the same row of first, so
    # giving two of them different rows of second leaves that group without
    # a solution; no group after it is solved.
    calls = _counting_solves(monkeypatch)
    rng = random.Random(5)
    for _ in range(50):
        k = rng.randint(1, 4)
        first, second, groups = _grouped_pair(rng, k, rng.randint(0, 2), rng.randrange(k))
        at = next(i for i, (w, u) in enumerate(groups) if len(u) == 1 and len(w) >= 2)
        rows = [list(row) for row in second.entries]
        a, b = groups[at][0][:2]
        rows[a] = [Fraction(int(v == 0)) for v in range(len(rows[a]))]
        rows[b] = [Fraction(int(v == 1)) for v in range(len(rows[b]))]
        calls.clear()
        assert not garbling_exists(first, _matrix(first.space, "v", rows)).exists
        assert len(calls) == at + 1


def _garbling_witnesses(first, second):
    """Both directions of garbling_exists, forward then backward."""
    return [garbling_exists(first, second).garbling, garbling_exists(second, first).garbling]


def test_same_vertex_on_one_dm_garblings():
    data = harness.load_fixture("one-dm")
    structure = structure_from_json(data["structure"])
    dm = structure.players[0]
    full, tau2 = (
        signaling_from_json(structure, data["signalings"][k]) for k in ("tau1full", "tau2")
    )
    first, second = experiment_matrix(full, dm), experiment_matrix(tau2, dm)
    witnesses = _garbling_witnesses(first, second)
    assert witnesses == [_dense_vertex(first, second), _dense_vertex(second, first)]
    assert [x is None for x in witnesses] == [False, True]


def _merged_experiments(rng, states, player_blocks):
    """A 3-signal, fully supported signaling on the 4-block oracle
    ``states[i::4]``, and its merge to 2 signals, as experiments of a player
    whose blocks are ``player_blocks`` runs of consecutive states."""
    space = StateSpace(tuple(f"w{i}" for i in range(states)))
    cuts = [0, *player_blocks]
    player = Partition(space, tuple(space.states[a:b] for a, b in zip(cuts, cuts[1:])))
    oracle = Partition(space, tuple(space.states[i::4] for i in range(4)))

    def distribution(k):
        weights = [rng.randint(1, 9) for _ in range(k)]
        return [Fraction(w, sum(weights)) for w in weights]

    rows = {tuple(block): distribution(3) for block in oracle.blocks}
    kernel = tuple(tuple(rows[oracle.block_of(state)]) for state in space.states)
    tau = StochasticSignaling(oracle, ("s0", "s1", "s2"), kernel)
    garbling = {s: dict(zip(("t0", "t1"), distribution(2))) for s in tau.signals}
    return experiment_matrix(tau, player), experiment_matrix(merge_garbled(tau, garbling), player)


def test_same_vertex_on_a_benchmark_sized_garbling(monkeypatch):
    # 11 states, a 3-block player, 3 signals on a 4-block oracle, merged to 2:
    # a 75x54 forward and a 105x54 backward system, one group per player block.
    first, second = _merged_experiments(random.Random(11), 11, (4, 7, 11))
    for a, b, shape in ((first, second, (75, 54)), (second, first, (105, 54))):
        A, _ = oracles.dense_garbling_system(a.entries, b.entries)
        assert (len(A), len(A[0])) == shape
    calls = _counting_solves(monkeypatch)
    witnesses = _garbling_witnesses(first, second)
    assert witnesses == [_dense_vertex(first, second), _dense_vertex(second, first)]
    assert witnesses[0] is not None
    # Forward, the three groups of 4, 3 and 4 states; backward, the first
    # group is already infeasible.
    assert calls == [(27, 18), (21, 18), (27, 18), (38, 18)]


def test_a_garbling_with_ten_player_blocks_is_solved_block_by_block():
    # 40 states and a 10-block player: 830 x 600 forward, 1,220 x 600 back.
    # One tableau over each system took about 2.9 s for both; ten 1/10-size
    # tableaux take about 0.1 s (0.08-0.14 s of CPU time).
    first, second = _merged_experiments(random.Random(40), 40, range(4, 41, 4))
    start = time.process_time()
    forward, backward = garbling_exists(first, second), garbling_exists(second, first)
    elapsed = time.process_time() - start
    assert forward.exists and not backward.exists
    assert apply_garbling(first, forward.garbling, forward.col_labels).entries == second.entries
    assert elapsed < 1.0, f"both directions took {elapsed:.2f} s of CPU time"
