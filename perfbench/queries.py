"""Turn generated specs into library objects and timed queries.

Each ``Query`` holds the library objects its call needs, built during
set-up, and three callables: ``run`` makes the timed call into the library,
``answer`` turns the result into canonical JSON (rationals as strings,
partitions as lists of blocks) for the golden files, and ``check`` returns a
list of problems found by checks that do not trust the library.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from oraclegames.dominance import (
    common_objective_condition,
    garbling_exists,
    is_imi,
    two_sided_imi_equal,
    unique_ckc_dominates,
)
from oraclegames.games import (
    BayesianGame,
    LogScore,
    TwoStageGame,
    best_common_payoff,
    build_kld_game,
    enumerate_pure_equilibria,
    expected_payoffs,
    is_equilibrium,
    kld_expected_scores,
    log_score,
    log_score_argmax,
    make_strategy,
    ned_distribution,
    reachable_pairs,
    truthful_kld_strategy,
)
from oraclegames.harness import Fixture, report_lines, run_claim
from oraclegames.signaling import (
    StochasticSignaling,
    experiment_matrix,
    lift_garbled,
    merge_garbled,
    post_included,
    posterior_atlas,
    proportional_decompose,
    separating_strategy,
)
from oraclegames.types import Distribution, Partition, StateSpace, structure_from_json


class Query:
    __slots__ = ("kind", "run", "answer", "check")

    def __init__(
        self,
        kind: str,
        run: Callable[[], object],
        answer: Callable[[object], object],
        check: Callable[[object], list[str]] = lambda result: [],
    ):
        self.kind = kind
        self.run = run
        self.answer = answer
        self.check = check


def canon(value: object) -> object:
    """Canonical JSON form of a library value."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Partition):
        return [list(b) for b in value.blocks]
    if isinstance(value, Distribution):
        return [str(v) for v in value.vector]
    if isinstance(value, LogScore):
        # The product in hex: a product of large powers can pass the
        # 4,300-digit limit on decimal conversion of an int.
        product = f"{value.product.numerator:x}/{value.product.denominator:x}"
        return {"neg_inf": value.neg_inf, "product": product, "denom": value.denom}
    if isinstance(value, (tuple, list)):
        return [canon(v) for v in value]
    if isinstance(value, dict):
        return {str(k): canon(v) for k, v in value.items()}
    raise TypeError(f"no canonical form for {type(value).__name__}")


def _partition(space: StateSpace, blocks: list[list[str]]) -> Partition:
    return Partition(space, tuple(tuple(b) for b in blocks))


# ---------------------------------------------------------------------------
# Checks that use only the benchmark's own arithmetic.


def garbling_problems(first, second, result) -> list[str]:
    """A witness G must be nonnegative and row-stochastic, and first @ G must
    equal second exactly (computed here, not with apply_garbling)."""
    g = result.garbling
    if g is None:
        return ["garbling reported feasible without a witness"]
    out = []
    nu, nv = len(first.column_labels), len(second.column_labels)
    if len(g) != nu or any(len(row) != nv for row in g):
        return ["garbling witness has the wrong shape"]
    if any(x < 0 for row in g for x in row):
        out.append("garbling witness has a negative entry")
    if any(sum(row, Fraction(0)) != 1 for row in g):
        out.append("garbling witness is not row-stochastic")
    for frow, srow in zip(first.entries, second.entries):
        for v in range(nv):
            if sum((frow[u] * g[u][v] for u in range(nu)), Fraction(0)) != srow[v]:
                out.append("garbling witness does not reproduce the target")
                return out
    return out


def _separating_problems(probs: list[Fraction]) -> list[str]:
    values = []
    for p in probs:
        if not 0 < p < 1:
            return [f"separating probability {p} is not interior"]
        values.extend((p, 1 - p))
    if len(set(values)) != len(values):
        return ["separating probabilities repeat"]
    ratios = [x / y for i, x in enumerate(values) for j, y in enumerate(values) if i != j]
    if len(set(ratios)) != len(ratios):
        return ["separating ratios repeat"]
    return []


# ---------------------------------------------------------------------------
# dominance-sweep


def _dominance(spec: dict) -> Query:
    structure = structure_from_json(spec["structure"])
    first = _partition(structure.space, spec["first"])
    second = _partition(structure.space, spec["second"])
    kind, expect = spec["kind"], spec["expect"]

    if kind == "is_imi":
        def check(result):
            return [] if result.holds == expect else [f"is_imi verdict is not {expect}"]

        return Query(
            kind,
            lambda: is_imi(structure, first, second),
            lambda r: {"holds": r.holds, "witness": canon(r.witness)},
            check,
        )
    if kind == "two_sided":
        return Query(
            kind,
            lambda: two_sided_imi_equal(structure, first, second),
            lambda r: {"forward": r.forward.holds, "backward": r.backward.holds},
            lambda r: [] if r.forward.holds else ["refining oracle does not dominate"],
        )
    fn = common_objective_condition if kind == "common_objective" else unique_ckc_dominates
    return Query(
        kind,
        lambda: fn(structure, first, second),
        canon,
        lambda r: [] if r == expect else [f"{kind} verdict is not {expect}"],
    )


# ---------------------------------------------------------------------------
# signal-garble


def _signaling(structure, spec: dict) -> tuple[Partition, StochasticSignaling]:
    oracle = _partition(structure.space, spec["oracle"])
    tau = StochasticSignaling.from_rows(oracle, spec["signals"], spec["kernel"])
    return oracle, tau


def _garble(spec: dict) -> Query:
    structure = structure_from_json(spec["structure"])
    kind = spec["kind"]
    if kind == "separating":
        oracle = _partition(structure.space, spec["oracle"])

        def probs(tau):
            return [tau.prob(block[0], tau.signals[0]) for block in oracle.blocks]

        return Query(
            kind,
            lambda: separating_strategy(oracle, structure.prior),
            lambda tau: canon(probs(tau)),
            lambda tau: _separating_problems(probs(tau)),
        )
    oracle, tau = _signaling(structure, spec)
    garbling = spec["garbling"]
    player = structure.players[spec["player"]]

    if kind == "garbling":
        def run():
            first = experiment_matrix(tau, player)
            second = experiment_matrix(merge_garbled(tau, garbling), player)
            return first, second, garbling_exists(first, second), garbling_exists(second, first)

        def check(r):
            first, second, forward, backward = r
            if not forward.exists:
                return ["merged experiment is not reported as a garbling"]
            out = garbling_problems(first, second, forward)
            if backward.exists:
                out += garbling_problems(second, first, backward)
            return out

        return Query(
            kind,
            run,
            lambda r: {
                "columns": [len(r[0].column_labels), len(r[1].column_labels)],
                "forward": r[2].as_json(),
                "backward": r[3].as_json(),
            },
            check,
        )
    if kind == "atlas_lift":
        def run():
            base = posterior_atlas(structure, tau)
            lifted = posterior_atlas(structure, lift_garbled(tau, garbling))
            return base, lifted, post_included(lifted, base), post_included(base, lifted)

        return Query(
            kind,
            run,
            lambda r: {
                "weights": [str(r[0].weight(p)) for p in r[0].profiles()],
                "lifted_size": len(r[1]),
                "included": [r[2], r[3]],
            },
            lambda r: [] if r[2] and r[3] else ["lifted atlas changed the posteriors"],
        )
    if kind == "experiment":
        others = structure.players
        return Query(
            kind,
            lambda: [experiment_matrix(tau, p, structure.prior) for p in others],
            lambda r: [canon(m.entries) for m in r],
        )
    # proportional: every lifted column is a positive multiple of a base column.
    def run():
        lifted = lift_garbled(tau, garbling)
        return lifted, proportional_decompose(lifted, tau)

    def check(r):
        lifted, found = r
        states = tau.space.states
        for t, hit in found.items():
            if hit is None:
                return [f"lifted signal {t} has no proportional column"]
            s, c = hit
            if c <= 0 or any(lifted.prob(w, t) != c * tau.prob(w, s) for w in states):
                return [f"lifted signal {t} is not {c} times signal {s}"]
        return []

    return Query(kind, run, lambda r: canon(r[1]), check)


# ---------------------------------------------------------------------------
# game-solve


def _game(spec: dict) -> Query:
    kind = spec["kind"]
    if kind in ("log_argmax", "log_sums"):
        space = StateSpace(tuple(spec["states"]))
        q = Distribution(space, tuple(Fraction(v) for v in spec["q"]))
        cands = [Distribution(space, tuple(Fraction(v) for v in c)) for c in spec["candidates"]]
        if kind == "log_argmax":
            # q is among the candidates, so strict propriety makes it the
            # unique maximizer.
            at = len(spec["q"]) % (len(cands) + 1)
            menu = cands[:at] + [q] + cands[at:]
            return Query(
                kind,
                lambda: log_score_argmax(q, menu),
                canon,
                lambda r: [] if r == q else ["log score argmax is not the true belief"],
            )
        r_dist = Distribution(space, tuple(Fraction(v) for v in spec["other"]))
        others = [Distribution(space, tuple(Fraction(v) for v in c)) for c in spec["others"]]

        def run():
            left = LogScore.zero()
            for c in cands:
                left = left + log_score(q, c)
            right = LogScore.zero()
            for c in others:
                right = right + log_score(r_dist, c)
            # Gibbs' inequality: the true belief scores at least as well.
            own = log_score(q, q) + log_score(q, q)
            pair = log_score(q, cands[0]) + log_score(q, cands[1])
            return (left > right) - (left < right), left == left, own >= pair

        return Query(
            kind,
            run,
            canon,
            lambda r: [] if r[1] and r[2] else ["log score sums are inconsistent"],
        )

    structure = structure_from_json(spec["structure"])
    _, tau = _signaling(structure, spec)
    if kind == "two_stage":
        # The ceiling under the game's own signaling is exactly -n.
        return Query(
            kind,
            lambda: TwoStageGame(structure, tau).max_aggregate(tau),
            canon,
            lambda r: [] if r == -structure.n else [f"two-stage ceiling {r} is not -n"],
        )
    if kind == "kld":
        def run():
            game = build_kld_game(structure, tau)
            return kld_expected_scores(game, tau, truthful_kld_strategy(game, tau))

        return Query(kind, run, canon)

    actions = tuple(tuple(a) for a in spec["actions"])
    payoffs = {}
    for state, row in spec["payoffs"].items():
        for key, values in row.items():
            payoffs[(state, tuple(key.split("|")))] = tuple(Fraction(v) for v in values)
    game = BayesianGame(structure, actions, payoffs)
    if kind == "equilibria":
        return Query(
            kind,
            lambda: enumerate_pure_equilibria(game, tau),
            lambda r: [s.as_json(structure.player_names) for s in r],
        )
    if kind == "best_common":
        return Query(kind, lambda: best_common_payoff(game, tau), canon)

    # mixed: one seeded mixture per reachable (block, signal) pair.
    tables = []
    for i, pairs in enumerate(reachable_pairs(structure, tau)):
        blocks = structure.players[i].blocks
        table = {}
        for block, signal in pairs:
            weights = spec["mixtures"][i][f"{blocks.index(block)}|{signal}"]
            table[(block, signal)] = dict(zip(actions[i], (Fraction(w) for w in weights)))
        tables.append(table)
    strategy = make_strategy(game, tau, tables)

    def run():
        return (
            is_equilibrium(game, tau, strategy).holds,
            expected_payoffs(game, tau, strategy),
            ned_distribution(game, tau, strategy),
        )

    def check(r):
        _, values, ned = r
        from_ned = [Fraction(0)] * structure.n
        for (state, profile), mass in ned.mass.items():
            for i, v in enumerate(payoffs[(state, profile)]):
                from_ned[i] += mass * v
        return [] if tuple(from_ned) == values else ["payoffs disagree with the outcome distribution"]

    return Query(
        kind,
        run,
        lambda r: {"equilibrium": r[0], "payoffs": canon(r[1]), "outcomes": r[2].as_json()},
        check,
    )


# ---------------------------------------------------------------------------
# fixture-corpus


class _FixtureRun:
    """One fixture evaluated as ``verify --all`` does: a fresh Fixture, then
    its claims in file order against that one instance."""

    def __init__(self, data: dict):
        self.data = data
        self.fix = None

    def query(self, claim: dict, first: bool) -> Query:
        def run():
            if first:
                self.fix = Fixture(self.data)
            return run_claim(self.fix, claim)

        return Query(
            "claim",
            run,
            lambda row: row,
            lambda row: [] if row["pass"] else [f"claim {row['id']} failed"],
        )


def _fixture_pass(spec: dict, fixtures: dict) -> list[Query]:
    out = []
    for name in spec["order"]:
        runner = _FixtureRun(fixtures[name])
        for k, claim in enumerate(fixtures[name].get("claims", [])):
            out.append(runner.query(claim, k == 0))
    return out


def build_round(workload: str, specs: list[dict], fixtures: dict) -> list[Query]:
    """Library objects and queries for one round of a deck."""
    if workload == "fixture-corpus":
        return [q for spec in specs for q in _fixture_pass(spec, fixtures)]
    make = {"dominance-sweep": _dominance, "signal-garble": _garble, "game-solve": _game}[
        workload
    ]
    return [make(spec) for spec in specs]


def verify_text(specs: list[dict], rows: list[dict], fixtures: dict) -> str:
    """The ``verify --all`` stdout that one fixture pass amounts to: report
    lines in sorted fixture order, then the summary line."""
    reports, k = {}, 0
    for spec in specs:
        for name in spec["order"]:
            n = len(fixtures[name].get("claims", []))
            reports[name] = {"fixture": fixtures[name]["name"], "claims": rows[k : k + n]}
            k += n
    lines = [line for name in sorted(reports) for line in report_lines(reports[name])]
    bad = sum(1 for row in rows if not row["pass"])
    lines.append(f"{len(rows) - bad}/{len(rows)} claims passed across {len(reports)} fixture(s)")
    return "\n".join(lines) + "\n"
