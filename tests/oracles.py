"""Independent brute-force reference implementations used to cross-check the
package under test.

This module deliberately imports nothing from ``oraclegames``: every function
here recomputes its answer from first principles (naive set arithmetic,
exhaustive enumeration, dense exact linear algebra) so agreement with the
package is meaningful evidence rather than a tautology.
"""

from fractions import Fraction
from itertools import combinations, product


# ---------------------------------------------------------------------------
# Set partitions


def all_partitions(items):
    """Every partition of ``items``, blocks in first-seen order.

    Recursive insertion: each new item either joins an existing block or opens
    a new one, so blocks keep item order and are ordered by least member.
    """
    items = list(items)
    out = []

    def rec(i, blocks):
        if i == len(items):
            out.append(tuple(tuple(b) for b in blocks))
            return
        x = items[i]
        for b in blocks:
            b.append(x)
            rec(i + 1, blocks)
            b.pop()
        blocks.append([x])
        rec(i + 1, blocks)
        blocks.pop()

    rec(0, [])
    return out


def canon(blocks):
    """Order-insensitive canonical form of a partition."""
    return frozenset(frozenset(b) for b in blocks)


def bell(n):
    return len(all_partitions(range(n)))


def naive_join(p, q):
    """Coarsest common refinement: all nonempty pairwise block intersections."""
    out = []
    for bp in p:
        for bq in q:
            inter = [x for x in bp if x in set(bq)]
            if inter:
                out.append(tuple(inter))
    return tuple(out)


def naive_meet(parts, states):
    """Finest common coarsening of several partitions: connected components of
    the "shares a block in some partition" relation, found by closure."""
    states = list(states)
    parent = {s: s for s in states}

    def find(s):
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for p in parts:
        for block in p:
            for s in block[1:]:
                union(block[0], s)
    groups = {}
    for s in states:
        groups.setdefault(find(s), []).append(s)
    return tuple(tuple(g) for g in groups.values())


def naive_refines(p, q):
    """True when every block of p sits inside some block of q."""
    return all(any(set(bp) <= set(bq) for bq in q) for bp in p)


def naive_coarsenings(p):
    """Every partition obtainable by merging whole blocks of p."""
    out = []
    for grouping in all_partitions(range(len(p))):
        merged = tuple(
            tuple(s for bi in group for s in p[bi]) for group in grouping
        )
        out.append(merged)
    return out


def random_blocks(rng, states, most):
    """A seeded partition of ``states`` into at most ``most`` blocks."""
    groups = {}
    for s in states:
        groups.setdefault(rng.randrange(most), []).append(s)
    return tuple(tuple(g) for g in groups.values())


def naive_is_imi(players, first, second):
    """Deterministic dominance of oracle ``first`` over ``second``.

    Every induced profile (each player's partition joined with a
    coarsening) that some coarsening of ``second`` gives must also come from
    some coarsening of ``first``. Returns (holds, witness blocks): the
    witness is the first coarsening of ``second``, in ``naive_coarsenings``
    order, whose profile ``first`` cannot give, or None when it holds.
    """

    def profile(coarsening):
        return tuple(canon(naive_join(p, coarsening)) for p in players)

    reachable = {profile(c) for c in naive_coarsenings(first)}
    for c in naive_coarsenings(second):
        if profile(c) not in reachable:
            return False, c
    return True, None


# ---------------------------------------------------------------------------
# Bayesian posteriors


def naive_posterior(prior, kernel, block, states, signal):
    """Posterior over ``states`` given membership of ``block`` and a signal:
    mass proportional to prior[w] * kernel[w][signal] inside the block."""
    weights = {w: prior[w] * kernel[w][signal] for w in block}
    total = sum(weights.values())
    return tuple(
        weights[s] / total if s in weights else Fraction(0) for s in states
    )


def naive_atlas(prior, kernel, partitions, states):
    """Joint posterior profile -> weight in plain Fractions: each branch
    (w, s) of positive mass prior[w] * kernel[w][s] adds that mass to the
    profile of every partition's naive posterior at (the block of w, s). A
    profile is a tuple of posterior vectors, one per partition."""
    atlas = {}
    for w in states:
        for s, p in kernel[w].items():
            if p == 0:
                continue
            profile = tuple(
                naive_posterior(prior, kernel, next(b for b in blocks if w in b), states, s)
                for blocks in partitions
            )
            atlas[profile] = atlas.get(profile, Fraction(0)) + prior[w] * p
    return atlas


def separating_probabilities(m):
    """The first ``m`` values of 1/3, 1/5, 1/7, ... that keep every value in
    {p, 1 - p} distinct and every ratio of two distinct ones distinct,
    rechecking the whole ratio set for each candidate."""
    chosen, k = [], 1
    while len(chosen) < m:
        candidate = Fraction(1, 2 * k + 1)
        k += 1
        values = [v for p in chosen + [candidate] for v in (p, 1 - p)]
        ratios = [x / y for i, x in enumerate(values) for j, y in enumerate(values) if i != j]
        if len(set(values)) == len(values) and len(set(ratios)) == len(ratios):
            chosen.append(candidate)
    return chosen


# ---------------------------------------------------------------------------
# Exact linear algebra and vertex enumeration


def _solve_unique(columns, b):
    """Solve the system (columns as lists) x = b exactly.

    Returns the unique solution when the columns are independent and the
    system is consistent, else None.
    """
    m = len(b)
    k = len(columns)
    rows = [[columns[j][i] for j in range(k)] + [b[i]] for i in range(m)]
    r = 0
    for c in range(k):
        pivot_row = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pivot_row is None:
            return None  # dependent columns
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [vi - f * vr for vi, vr in zip(rows[i], rows[r])]
        r += 1
    for i in range(r, m):
        if rows[i][k] != 0:
            return None  # inconsistent
    return [rows[c][k] for c in range(k)]


def matrix_rank(A):
    rows = [list(map(Fraction, row)) for row in A]
    m = len(rows)
    n = len(rows[0]) if m else 0
    rank = 0
    for c in range(n):
        pivot_row = next((i for i in range(rank, m) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pv = rows[rank][c]
        rows[rank] = [v / pv for v in rows[rank]]
        for i in range(m):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [vi - f * vr for vi, vr in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def feasible_nonneg_oracle(A, b):
    """Decide {x >= 0 : A x = b} by enumerating basic solutions.

    If the polyhedron is nonempty it has a vertex supported on independent
    columns, so trying every column subset of size up to rank(A) is a
    complete (if slow) decision procedure. Returns a solution or None.
    """
    A = [list(map(Fraction, row)) for row in A]
    b = [Fraction(v) for v in b]
    m = len(A)
    n = len(A[0]) if m else 0
    if all(v == 0 for v in b):
        return [Fraction(0)] * n
    rank = matrix_rank(A)
    cols = [[A[i][j] for i in range(m)] for j in range(n)]
    for size in range(1, rank + 1):
        for subset in combinations(range(n), size):
            sol = _solve_unique([cols[j] for j in subset], b)
            if sol is not None and all(v >= 0 for v in sol):
                x = [Fraction(0)] * n
                for j, v in zip(subset, sol):
                    x[j] = v
                return x
    return None


def fraction_simplex(A, b):
    """Phase-1 simplex on a Fraction tableau: Bland's rule, ratio ties broken
    by basis index. The package's integer tableau must take the same pivots,
    so it must return this same vertex (or None)."""
    m = len(A)
    n = len(A[0]) if m else 0
    for row in A:
        if len(row) != n:
            raise ValueError("ragged constraint matrix")
    if m == 0:
        return []
    if n == 0:
        return [] if all(v == 0 for v in b) else None

    zero, one = Fraction(0), Fraction(1)
    # Rows with nonnegative right-hand sides, one artificial variable each.
    tab = []
    for i in range(m):
        row = [Fraction(v) for v in A[i]]
        rhs = Fraction(b[i])
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
        art = [one if j == i else zero for j in range(m)]
        tab.append(row + art + [rhs])
    basis = [n + i for i in range(m)]
    width = n + m

    # Reduced costs for minimizing the artificial total: structural columns
    # start at -(column sum), artificial columns at 0.
    cost = [zero] * (width + 1)
    for i in range(m):
        for j in range(width + 1):
            cost[j] -= tab[i][j]
    for i in range(m):
        cost[n + i] += one

    while True:
        enter = next((j for j in range(width) if cost[j] < 0), None)
        if enter is None:
            break
        best = None
        for i in range(m):
            coef = tab[i][enter]
            if coef > 0:
                key = (tab[i][width] / coef, basis[i])
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:  # pragma: no cover - phase-1 objective is bounded
            raise ArithmeticError("unbounded phase-1 pivot")
        r = best[1]
        pivot = tab[r][enter]
        tab[r] = [v / pivot for v in tab[r]]
        prow = tab[r]
        for i in range(m):
            if i != r and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [v - f * w for v, w in zip(tab[i], prow)]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [v - f * w for v, w in zip(cost, prow)]
        basis[r] = enter

    if any(basis[i] >= n and tab[i][width] != 0 for i in range(m)):
        return None
    x = [zero] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][width]
    return x


def dense_garbling_system(first, second):
    """The whole system first @ G == second over row-stochastic G >= 0, in
    one piece: one row per (state, column of second), state-major, then one
    row-sum row per column of first; variable u * (columns of second) + v is
    G[u][v]. ``first`` and ``second`` are row lists over the same states."""
    nu, nv = len(first[0]), len(second[0])
    A, b = [], []
    for frow, srow in zip(first, second):
        for v in range(nv):
            row = [Fraction(0)] * (nu * nv)
            for u in range(nu):
                row[u * nv + v] = Fraction(frow[u])
            A.append(row)
            b.append(Fraction(srow[v]))
    for u in range(nu):
        A.append([Fraction(int(j // nv == u)) for j in range(nu * nv)])
        b.append(Fraction(1))
    return A, b


# ---------------------------------------------------------------------------
# Game values


def naive_decision_value(prior, actions, payoff, blocks):
    """Best expected payoff of a single agent who picks one action per block
    of ``blocks``: the sum over blocks of the largest sum of prior[w] *
    payoff[(w, a)] over the block's states."""
    total = Fraction(0)
    for block in blocks:
        best = None
        for a in actions:
            value = sum((prior[w] * payoff[(w, a)] for w in block), Fraction(0))
            if best is None or value > best:
                best = value
        total += best
    return total


def naive_best_common_payoff(states, prior, kernel, partitions, actions, payoff):
    """Best expected common payoff over pure measurable strategy profiles.

    ``kernel[w]`` maps signals to probabilities at state w, ``partitions[i]``
    lists player i's blocks and ``payoff(w, profile)`` is the common payoff.
    Every pure profile over all the (player, block, signal) slots that some
    branch reaches is enumerated at once, with no split into cells; a slot
    no branch reaches never touches the value.
    """
    n = len(partitions)

    def slot(i, w, s):
        return (i, next(tuple(b) for b in partitions[i] if w in b), s)

    branches = [
        (w, prior[w] * p, tuple(slot(i, w, s) for i in range(n)))
        for w in states
        for s, p in kernel[w].items()
        if p > 0
    ]
    slots = sorted({k for _, _, keys in branches for k in keys})
    best = None
    for picks in product(*(actions[i] for i, _, _ in slots)):
        choice = dict(zip(slots, picks))
        value = sum(
            mass * payoff(w, tuple(choice[k] for k in keys))
            for w, mass, keys in branches
        )
        if best is None or value > best:
            best = value
    return best


def naive_pairs(states, prior, kernel, partitions):
    """Per player, the (block, signal) pairs of positive mass: blocks in the
    listed order, then signals in the order of the kernel rows (every row
    ``kernel[w]`` lists every signal)."""
    signals = list(kernel[states[0]])
    return [
        [
            (tuple(b), s)
            for b in blocks
            for s in signals
            if sum(prior[w] * kernel[w][s] for w in b) > 0
        ]
        for blocks in partitions
    ]


def naive_outcome_distribution(states, prior, kernel, partitions, strategy):
    """{(state, action profile): probability} over every outcome of positive
    probability: prior(w) * kernel[w][s] times each player's probability of
    their action at (their block of w, s), summed over the signals s.

    ``strategy[i]`` maps each of player i's reachable (block, signal) pairs
    to {action: probability}.  Every weight is a ``Fraction`` product, built
    factor by factor."""
    n = len(partitions)

    def block(i, w):
        return next(tuple(b) for b in partitions[i] if w in b)

    out = {}
    for w in states:
        for s, p in kernel[w].items():
            if prior[w] * p == 0:
                continue
            mixes = [
                [(a, q) for a, q in strategy[i][(block(i, w), s)].items() if q > 0]
                for i in range(n)
            ]
            for combo in product(*mixes):
                weight = prior[w] * p
                for _, q in combo:
                    weight *= q
                key = (w, tuple(a for a, _ in combo))
                out[key] = out.get(key, Fraction(0)) + weight
    return out


def naive_is_equilibrium(states, prior, kernel, partitions, actions, payoff, strategy):
    """(holds, witness) for a strategy profile, from total expected payoffs.

    ``strategy[i]`` maps each of player i's reachable (block, signal) pairs
    to {action: probability} and ``payoff(w, profile)`` gives one utility
    per player.  A player's total expected payoff sums over every outcome of
    ``naive_outcome_distribution``, with no split into pairs.  It is
    computed for the strategy and again for every copy with one (block,
    signal) entry of that player replaced by a pure action; the witness
    (player index, block, signal, action) is the first copy that pays the
    player more, in player, pair and action order.
    """
    n = len(partitions)

    def total(i, tables):
        outcomes = naive_outcome_distribution(states, prior, kernel, partitions, tables)
        return sum((m * payoff(w, profile)[i] for (w, profile), m in outcomes.items()), Fraction(0))

    pairs = naive_pairs(states, prior, kernel, partitions)
    for i in range(n):
        base = total(i, strategy)
        for pair in pairs[i]:
            for a in actions[i]:
                tables = list(strategy)
                tables[i] = dict(strategy[i])
                tables[i][pair] = {a: Fraction(1)}
                if total(i, tables) > base:
                    return False, (i, pair[0], pair[1], a)
    return True, None


def naive_belief_is_equilibrium(states, declared, beliefs, choices):
    """Whether no player of the belief-report game gains by switching to
    another state of their declared support.  Player i's own score at state
    w for action a is -2 when declared[i][w] = 0, 1 / declared[i][w] when
    a == w and 0 otherwise; an action is valued by its scores summed over
    every state under beliefs[i]."""

    def value(i, a):
        total = Fraction(0)
        for w in states:
            d = declared[i][w]
            score = Fraction(-2) if d == 0 else (1 / d if a == w else Fraction(0))
            total += beliefs[i][w] * score
        return total

    return not any(
        value(i, a) > value(i, choice)
        for i, choice in enumerate(choices)
        for a in states
        if declared[i][a] > 0
    )


def naive_belief_expected_payoffs(states, declared, beliefs, choices):
    """Expected utilities of the belief-report game, every scoring term
    weighted by the acting player's own belief.  Player k's own score at
    state w is -2 when declared[k][w] = 0, 1 / declared[k][w] when
    choices[k] == w and 0 otherwise; player i is paid their own expected
    score less 2/(n-1) of each other player's expected score over the states
    that player's declared posterior gives mass."""
    n = len(declared)
    own = []
    hits = []
    for k in range(n):
        e_own = Fraction(0)
        e_hit = Fraction(0)
        for w in states:
            q = beliefs[k][w]
            if q == 0:
                continue
            d = declared[k][w]
            r = Fraction(-2) if d == 0 else (1 / d if choices[k] == w else Fraction(0))
            e_own += q * r
            if d > 0:
                e_hit += q * r
        own.append(e_own)
        hits.append(e_hit)
    share = Fraction(2, n - 1)
    return tuple(
        own[i] - share * sum((hits[j] for j in range(n) if j != i), Fraction(0))
        for i in range(n)
    )


def pure_profile_scan(slots, actions, holds):
    """Every pure profile over ``slots`` ((player, pair) pairs, in order)
    that ``holds`` accepts, in ``itertools.product`` order of the slots'
    actions, each as per-player {pair: {action: 1}} tables."""
    found = []
    for picks in product(*(actions[i] for i, _ in slots)):
        tables = [{} for _ in actions]
        for (i, pair), a in zip(slots, picks):
            tables[i][pair] = {a: Fraction(1)}
        if holds(tables):
            found.append(tables)
    return found


def naive_max_aggregate(states, prior, game_kernel, eval_kernel, partitions, M):
    """Ceiling of the two-stage declaration game under ``eval_kernel``.

    The game is built from ``game_kernel``: a player's menu holds the
    posteriors of their (block, signal) pairs of positive mass, and a
    (signal, posterior profile) is feasible when some branch of that signal
    induces it.  Every joint declaration (opt-out, or a signal and a menu
    posterior) over all the (player, block, evaluation signal) slots that
    some evaluation branch reaches is scanned at once, with no split into
    cells.  A branch settles when its players all declare one signal and a
    feasible profile; otherwise it costs M per player.  Each slot's action is
    the first in-support state maximizing (settled mass of the slot's
    branches at that state) / (declared probability), and a settled branch
    pays the belief-game utilities at its state, summed over players.
    """
    n = len(partitions)
    signals = list(game_kernel[states[0]])

    def block(i, w):
        return next(tuple(b) for b in partitions[i] if w in b)

    feasible = set()
    for w in states:
        for s in signals:
            if prior[w] * game_kernel[w][s] > 0:
                profile = tuple(
                    naive_posterior(prior, game_kernel, block(i, w), states, s)
                    for i in range(n)
                )
                feasible.add((s, profile))
    menus = [sorted({profile[i] for _, profile in feasible}) for i in range(n)]
    branches = [
        (w, prior[w] * p, tuple((i, block(i, w), t) for i in range(n)))
        for w in states
        for t, p in eval_kernel[w].items()
        if p > 0
    ]
    slots = sorted({k for _, _, keys in branches for k in keys})
    options = [
        [None] + [(s, post) for s in signals for post in menus[i]] for i, _, _ in slots
    ]
    pos = {x: j for j, x in enumerate(states)}

    def utility(i, w, posts, acts):
        def r(j):
            q = posts[j][pos[w]]
            if q == 0:
                return Fraction(-2)
            return 1 / q if acts[j] == w else Fraction(0)

        others = sum(r(j) for j in range(n) if j != i and posts[j][pos[w]] > 0)
        return r(i) - Fraction(2, n - 1) * others

    best = None
    for picks in product(*options):
        choice = dict(zip(slots, picks))
        settled = []
        for w, mass, keys in branches:
            decls = [choice[k] for k in keys]
            ok = None not in decls and len({d[0] for d in decls}) == 1
            if ok and (decls[0][0], tuple(d[1] for d in decls)) in feasible:
                settled.append(tuple(d[1] for d in decls))
            else:
                settled.append(None)
        action = {}
        for k, pick in choice.items():
            if pick is None:
                continue
            post = pick[1]
            hits = {}
            for (w, mass, keys), posts in zip(branches, settled):
                if posts is not None and k in keys:
                    hits[w] = hits.get(w, Fraction(0)) + mass
            support = [x for x in states if post[pos[x]] > 0]
            action[k] = max(support, key=lambda x: (hits.get(x, 0) / post[pos[x]], -pos[x]))
        value = Fraction(0)
        for (w, mass, keys), posts in zip(branches, settled):
            if posts is None:
                value += mass * -M * n
            else:
                acts = [action[k] for k in keys]
                value += mass * sum(utility(i, w, posts, acts) for i in range(n))
        if best is None or value > best:
            best = value
    return best
