"""Exact phase-1 simplex, cross-checked against the basic-solution
enumeration oracle."""

import random
import time
from fractions import Fraction

import oracles
from oraclegames import (
    Partition,
    StateSpace,
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


def _check_solution(A, b, x):
    assert all(v >= 0 for v in x)
    for row, rhs in zip(A, b):
        assert sum((c * v for c, v in zip(row, x)), Fraction(0)) == rhs


def test_trivial_systems():
    assert feasible_nonneg([], []) == []
    assert feasible_nonneg([[]], [Fraction(0)]) == []
    assert feasible_nonneg([[]], [Fraction(1)]) is None


def test_simple_feasible_system():
    A = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
    b = [Fraction(2), Fraction(0)]
    x = feasible_nonneg(A, b)
    assert x == [Fraction(1), Fraction(1)]


def test_simple_infeasible_system():
    # x1 + x2 = -1 has no nonnegative solution.
    A = [[Fraction(1), Fraction(1)]]
    b = [Fraction(-1)]
    assert feasible_nonneg(A, b) is None


def test_negative_rhs_is_normalized():
    # -x1 = -3 forces x1 = 3.
    A = [[Fraction(-1), Fraction(0)]]
    b = [Fraction(-3)]
    x = feasible_nonneg(A, b)
    _check_solution(A, b, x)


def test_redundant_rows_are_fine():
    A = [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(2), Fraction(4), Fraction(6)],
    ]
    b = [Fraction(6), Fraction(12)]
    x = feasible_nonneg(A, b)
    _check_solution(A, b, x)


def test_inconsistent_duplicate_rows():
    A = [
        [Fraction(1), Fraction(2)],
        [Fraction(1), Fraction(2)],
    ]
    b = [Fraction(1), Fraction(2)]
    assert feasible_nonneg(A, b) is None


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
        actual = feasible_nonneg(A, b)
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
        assert feasible_nonneg(A, b) == oracles.fraction_simplex(A, b)


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
        x = feasible_nonneg(A, b)
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
        assert feasible_nonneg(A, b) == oracles.fraction_simplex(A, b)


# A system falls apart into components, rows linked by a shared nonzero
# column; each is solved on its own tableau and must give the vertex that one
# tableau over the whole system gives.


def _block_diagonal(rng, blocks, zero_rows, zero_cols):
    """The (A, b) ``blocks`` on a diagonal, below them ``zero_rows`` (a list
    of right-hand sides) and beside them ``zero_cols`` empty columns, with
    rows and columns shuffled into each other. Also returns each block's
    rows in the shuffled system."""
    m = sum(len(A) for A, _ in blocks) + len(zero_rows)
    n = sum(len(A[0]) for A, _ in blocks) + zero_cols
    row_at, col_at = rng.sample(range(m), m), rng.sample(range(n), n)
    big = [[Fraction(0)] * n for _ in range(m)]
    rhs = [Fraction(0)] * m
    owned = []
    r0 = c0 = 0
    for A, b in blocks:
        rows = [row_at[r0 + i] for i in range(len(A))]
        cols = [col_at[c0 + j] for j in range(len(A[0]))]
        for r, a_row, b_i in zip(rows, A, b):
            rhs[r] = b_i
            for c, v in zip(cols, a_row):
                big[r][c] = v
        owned.append(rows)
        r0, c0 = r0 + len(A), c0 + len(A[0])
    for i, b_i in enumerate(zero_rows):
        rhs[row_at[r0 + i]] = b_i
    return big, rhs, owned


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
        A, b, _ = _block_diagonal(rng, blocks, zero_rows, rng.randint(0, 2))
        x = feasible_nonneg(A, b)
        assert x == oracles.fraction_simplex(A, b)
        if x is None:
            infeasible_seen += 1
        else:
            feasible_seen += 1
            _check_solution(A, b, x)
    assert feasible_seen >= 60 and infeasible_seen >= 60


def _counting_phase1(monkeypatch):
    """Record the shape of every system ``_lp._phase1`` is given."""
    calls, phase1 = [], _lp._phase1

    def record(A, b):
        calls.append((len(A), len(A[0])))
        return phase1(A, b)

    monkeypatch.setattr(_lp, "_phase1", record)
    return calls


def test_one_tableau_per_component(monkeypatch):
    # Dense blocks are one component each; zero rows and columns need none.
    calls = _counting_phase1(monkeypatch)
    rng = random.Random(99)
    for _ in range(100):
        blocks = [_random_block(rng, (1, -1, 2, -3), True) for _ in range(rng.randint(2, 4))]
        A, b, owned = _block_diagonal(rng, blocks, [Fraction(0)] * rng.randint(0, 2), 2)
        calls.clear()
        x = feasible_nonneg(A, b)
        assert x is not None and x == oracles.fraction_simplex(A, b)
        by_first_row = sorted(zip(owned, blocks), key=lambda pair: min(pair[0]))
        assert calls == [(len(B), len(B[0])) for _, (B, _) in by_first_row]


def test_the_first_infeasible_component_decides(monkeypatch):
    # A positive block with a negative right-hand side has no solution x >= 0.
    calls = _counting_phase1(monkeypatch)
    rng = random.Random(5)
    for _ in range(50):
        blocks = [_random_block(rng, (1, 2, 3), True) for _ in range(rng.randint(2, 4))]
        A, b, owned = _block_diagonal(rng, blocks, [], 1)
        first = next(rows for rows in owned if 0 in rows)
        b[first[0]] = -b[first[0]] - 1
        calls.clear()
        assert feasible_nonneg(A, b) is None
        assert len(calls) == 1


def _garbling_lps(monkeypatch, first, second):
    """The two LPs that garbling_exists solves, forward then backward."""
    lps = []

    def record(A, b):
        lps.append((A, b))
        return feasible_nonneg(A, b)

    monkeypatch.setattr(dominance, "feasible_nonneg", record)
    garbling_exists(first, second)
    garbling_exists(second, first)
    return lps


def test_same_vertex_on_one_dm_garblings(monkeypatch):
    data = harness.load_fixture("one-dm")
    structure = structure_from_json(data["structure"])
    dm = structure.players[0]
    full, tau2 = (
        signaling_from_json(structure, data["signalings"][k]) for k in ("tau1full", "tau2")
    )
    lps = _garbling_lps(monkeypatch, experiment_matrix(full, dm), experiment_matrix(tau2, dm))
    vertices = [feasible_nonneg(A, b) for A, b in lps]
    assert vertices == [oracles.fraction_simplex(A, b) for A, b in lps]
    assert [x is None for x in vertices] == [False, True]


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
    # 11 states, a 3-block player, 3 signals on a 4-block oracle, merged to 2.
    first, second = _merged_experiments(random.Random(11), 11, (4, 7, 11))
    lps = _garbling_lps(monkeypatch, first, second)
    assert [(len(A), len(A[0])) for A, b in lps] == [(75, 54), (105, 54)]
    vertices = [feasible_nonneg(A, b) for A, b in lps]
    assert vertices == [oracles.fraction_simplex(A, b) for A, b in lps]
    assert vertices[0] is not None


def test_a_garbling_with_ten_player_blocks_is_solved_block_by_block():
    # 40 states and a 10-block player: 830 x 600 forward, 1,220 x 600 back.
    # One tableau over each system took about 2.9 s for both; ten 1/10-size
    # tableaux take about 0.4 s.
    first, second = _merged_experiments(random.Random(40), 40, range(4, 41, 4))
    start = time.process_time()
    forward, backward = garbling_exists(first, second), garbling_exists(second, first)
    elapsed = time.process_time() - start
    assert forward.exists and not backward.exists
    assert apply_garbling(first, forward.garbling, forward.col_labels).entries == second.entries
    assert elapsed < 1.0, f"both directions took {elapsed:.2f} s of CPU time"
