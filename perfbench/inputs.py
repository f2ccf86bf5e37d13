"""Deterministic input generator: a pure function of (workload, seed).

Every input is plain JSON data (lists, strings, and rationals written as
"p/q" strings), so a deck of queries serializes canonically and two decks can
be compared byte for byte. ``queries.py`` turns these specs into library
objects; the library never sees the seed.

A run's inputs are a deck of rounds. Every round of a workload holds the
same strata (query kind and size class) in a seeded order, with fresh seeded
instances, so every deck has the same mix on every seed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

# ---------------------------------------------------------------------------
# Size parameters, each next to the reason it was chosen.

# dominance-sweep: 2-3 players on 8-10 states, oracles of 5-9 blocks
# (Bell(5) = 52 to Bell(9) = 21,147 coarsenings). The 10-block case takes
# 10-20 s for one query and would be most of a run, so it is left out.
# An is_imi stratum is (kind, verdict, construction, first-oracle blocks,
# second-oracle blocks, states, players); the others are (kind, construction,
# first, second, states, players), where "holds" builds a refinement and
# "fails" a visible merge. Each stratum fixes its number of states and
# players, because the cost of a coarsening scan grows with both: a round
# then costs about the same on every seed, and across strata the workload
# still covers 2-3 players on 8-10 states.
# Verdicts are known by construction, so they are checked on every seed:
#   holds: the first oracle refines the second, is the second, or is the
#          singleton partition; a holding verdict scans every coarsening.
#   fails: the first oracle merges two blocks of the second that some player
#          can tell apart; a failing verdict may exit early.
# Half the is_imi verdicts hold and half fail.
# Strata are listed cheapest first in cost groups. Every run measures whole
# rounds, so every run has the same mix; the groups are sized so that the
# median and the 90th percentile of the latencies fall inside one group of
# similar queries rather than on the edge between two. A round of 40 queries
# takes about 2.3 s per pass.
DOMINANCE_STRATA = (
    # near-free verdicts: ranks 0-20 %
    ("common_objective", "holds", 7, 5, 8, 2),
    ("common_objective", "holds", 7, 5, 10, 3),
    ("common_objective", "fails", 7, 8, 9, 2),
    ("common_objective", "fails", 7, 8, 8, 3),
    ("unique_ckc", "holds", 6, 4, 8, 3),
    ("unique_ckc", "holds", 6, 4, 10, 2),
    ("unique_ckc", "fails", 5, 6, 9, 3),
    ("unique_ckc", "fails", 5, 6, 10, 2),
    # 5-6 blocks: ranks 20-35 %
    ("is_imi", "fails", "merge", 5, 6, 8, 2),
    ("is_imi", "fails", "merge", 5, 6, 10, 2),
    ("is_imi", "holds", "refine", 6, 5, 9, 2),
    ("is_imi", "holds", "refine", 6, 5, 10, 3),
    ("two_sided", "refine", 5, 4, 8, 3),
    ("two_sided", "refine", 5, 4, 10, 2),
    # 6-7 blocks, holding the median: ranks 35-65 %
    ("is_imi", "fails", "merge", 6, 7, 8, 3),
    ("is_imi", "fails", "merge", 6, 7, 9, 2),
    ("is_imi", "fails", "merge", 6, 7, 10, 3),
    ("is_imi", "fails", "merge", 6, 7, 10, 2),
    ("is_imi", "holds", "same", 6, 6, 8, 2),
    ("is_imi", "holds", "same", 6, 6, 9, 3),
    ("is_imi", "holds", "same", 6, 6, 9, 2),
    ("is_imi", "holds", "same", 6, 6, 10, 2),
    ("two_sided", "refine", 6, 5, 8, 3),
    ("two_sided", "refine", 6, 5, 9, 2),
    ("two_sided", "refine", 6, 5, 10, 3),
    ("two_sided", "refine", 6, 5, 10, 2),
    # 7-8 blocks: ranks 65-75 %
    ("is_imi", "holds", "refine", 7, 6, 8, 2),
    ("is_imi", "holds", "refine", 7, 6, 10, 3),
    ("is_imi", "fails", "merge", 7, 8, 8, 2),
    ("is_imi", "fails", "merge", 7, 8, 9, 2),
    # 7-8 blocks, holding the 90th percentile: ranks 75-95 %
    ("is_imi", "fails", "merge", 7, 8, 8, 3),
    ("is_imi", "fails", "merge", 7, 8, 9, 3),
    ("is_imi", "fails", "merge", 7, 8, 10, 2),
    ("is_imi", "fails", "merge", 7, 8, 10, 3),
    ("is_imi", "holds", "same", 7, 7, 8, 3),
    ("is_imi", "holds", "same", 7, 7, 9, 2),
    ("is_imi", "holds", "same", 7, 7, 9, 3),
    ("is_imi", "holds", "same", 7, 7, 10, 3),
    # 8 blocks (Bell(8) = 4,140 coarsenings of the singleton first oracle)
    # and 9 blocks (Bell(9) = 21,147 coarsenings of the second): the top
    # 5 %. The singleton first oracle stays on 8 states, because
    # Bell(10) = 115,975 coarsenings alone take seconds.
    ("is_imi", "holds", "singletons", 8, 7, 8, 3),
    ("is_imi", "fails", "merge", 8, 9, 10, 3),
)

# signal-garble: stochastic signalings on 10-32 states. garbling_exists grows
# from ~30 ms at 6x4 experiment columns to seconds at 20x10, and
# separating_strategy from ~0.1 s at 20 blocks to 2.65 s at 60 blocks, so
# the LPs stay at 24-54 variables and the separating oracles at 20-32
# blocks. The sizes keep a round to about 2.5 s per pass and give the
# simplex (lp) and the signaling layer each at least a third of the traced
# self time.
GARBLE_STRATA = (
    # (kind, states, oracle blocks, signals, player blocks, merged signals)
    # ranks 0-20 %
    ("proportional", 20, 8, 4, 4, 3),
    ("proportional", 20, 8, 4, 4, 3),
    ("proportional", 20, 8, 4, 4, 3),
    ("proportional", 20, 8, 4, 4, 3),
    ("proportional", 20, 8, 4, 4, 3),
    ("experiment", 24, 10, 4, 6, 2),
    ("experiment", 24, 10, 4, 6, 2),
    ("experiment", 24, 10, 4, 6, 2),
    # ranks 20-35 %
    ("atlas_lift", 16, 8, 3, 4, 2),
    ("atlas_lift", 16, 8, 3, 4, 2),
    ("atlas_lift", 16, 8, 3, 4, 2),
    ("atlas_lift", 16, 8, 3, 4, 2),
    ("atlas_lift", 16, 8, 3, 4, 2),
    ("atlas_lift", 16, 8, 3, 4, 2),
    # median: ranks 35-65 %
    ("atlas_lift", 24, 10, 3, 6, 2),
    ("atlas_lift", 24, 10, 3, 6, 2),
    ("atlas_lift", 24, 10, 3, 6, 2),
    ("atlas_lift", 24, 10, 3, 6, 2),
    ("atlas_lift", 24, 10, 3, 6, 2),
    ("atlas_lift", 24, 10, 3, 6, 2),
    ("atlas_lift", 24, 10, 3, 6, 2),
    ("atlas_lift", 24, 10, 3, 6, 2),
    ("atlas_lift", 24, 10, 3, 6, 2),
    ("atlas_lift", 24, 10, 3, 6, 2),
    ("atlas_lift", 24, 10, 3, 6, 2),
    ("atlas_lift", 24, 10, 3, 6, 2),
    # ranks 65-75 %
    ("atlas_lift", 32, 12, 3, 8, 2),
    ("atlas_lift", 32, 12, 3, 8, 2),
    ("separating", 20, 20, 2, 4, 2),
    ("separating", 20, 20, 2, 4, 2),
    # 90th percentile: ranks 75-95 %
    ("separating", 24, 24, 2, 4, 2),
    ("separating", 24, 24, 2, 4, 2),
    ("separating", 24, 24, 2, 4, 2),
    ("garbling", 10, 4, 3, 2, 2),
    ("garbling", 10, 4, 3, 2, 2),
    ("garbling", 10, 4, 3, 2, 2),
    ("garbling", 10, 4, 3, 2, 2),
    ("garbling", 10, 4, 3, 2, 2),
    # top 5 %
    ("garbling", 11, 4, 3, 3, 2),
    ("separating", 32, 32, 2, 4, 2),
)

# game-solve: two-player games on 4-6 states. Three-player two-stage games
# and LogScore sums with weight denominators 97, 89 and 83 do not finish in
# a run, so they are left out; LogScore operands stay small (weights with
# denominators of at most 12, sums of two scores) so that a comparison
# finishes in milliseconds.
GAME_STRATA = (
    # (kind, states, player blocks, oracle blocks, signals, actions)
    # ranks 0-35 %
    ("mixed", 5, 2, 2, 2, 3),
    ("mixed", 5, 2, 2, 2, 3),
    ("mixed", 5, 2, 2, 2, 3),
    ("mixed", 6, 3, 3, 3, 2),
    ("kld", 5, 2, 2, 2, 0),
    ("kld", 5, 2, 2, 2, 0),
    ("kld", 5, 2, 2, 2, 0),
    ("log_argmax", 6, 0, 0, 0, 6),
    ("log_argmax", 6, 0, 0, 0, 6),
    ("log_argmax", 6, 0, 0, 0, 6),
    ("log_sums", 4, 0, 0, 0, 2),
    ("log_sums", 4, 0, 0, 0, 2),
    ("best_common", 5, 2, 3, 2, 3),
    ("best_common", 5, 2, 3, 2, 3),
    # median: ranks 35-65 % (256 pure profiles each)
    ("equilibria", 4, 2, 2, 2, 2),
    ("equilibria", 4, 2, 2, 2, 2),
    ("equilibria", 4, 2, 2, 2, 2),
    ("equilibria", 4, 2, 2, 2, 2),
    ("equilibria", 4, 2, 2, 2, 2),
    ("equilibria", 4, 2, 2, 2, 2),
    ("equilibria", 5, 2, 2, 2, 2),
    ("equilibria", 5, 2, 2, 2, 2),
    ("equilibria", 5, 2, 2, 2, 2),
    ("equilibria", 5, 2, 2, 2, 2),
    ("equilibria", 5, 2, 2, 2, 2),
    ("equilibria", 5, 2, 2, 2, 2),
    # ranks 65-87.5 %
    ("equilibria", 5, 2, 3, 2, 2),
    ("equilibria", 5, 2, 3, 2, 2),
    ("equilibria", 5, 2, 3, 2, 2),
    ("equilibria", 5, 2, 3, 2, 2),
    ("equilibria", 5, 2, 3, 2, 2),
    ("equilibria", 5, 2, 3, 2, 2),
    ("best_common", 6, 3, 3, 2, 3),
    ("best_common", 6, 3, 3, 2, 3),
    ("best_common", 6, 3, 3, 2, 3),
    # 90th percentile: ranks 87.5-100 %; up to 4,096 pure profiles. The
    # two-stage games all have 4 states, so the group holding the 90th
    # percentile is of one size.
    ("two_stage", 4, 2, 2, 2, 0),
    ("two_stage", 4, 2, 2, 2, 0),
    ("two_stage", 4, 2, 2, 2, 0),
    ("two_stage", 4, 2, 2, 2, 0),
    ("equilibria", 6, 3, 3, 2, 2),
)

# max_aggregate scans the product of the players' declaration menus, so its
# cost follows the menu sizes (one posterior per player block that lies in
# one oracle block, one per signal for a block that straddles two). Two-stage
# instances are drawn with these menu sizes: about 0.3 s each, where menus of
# three and four posteriors take 0.8-2.4 s.
TWO_STAGE_MENUS = [2, 3]

# fixture-corpus: the packaged fixtures; the seed only permutes the order in
# which fixtures are evaluated within each round.

WORKLOADS = ("dominance-sweep", "signal-garble", "game-solve", "fixture-corpus")

# Small denominators keep the exact arithmetic representative of the
# fixtures: the paper's witnesses use priors and kernels like 1/3 and 2/7.
_WEIGHT_TOP = 6


def _rng(workload: str, seed: int, *tags: object) -> random.Random:
    # String seeds hash through SHA-512, so this is stable across processes
    # and independent of PYTHONHASHSEED.
    return random.Random(":".join(str(t) for t in (workload, seed) + tags))


def _distribution(
    rng: random.Random, n: int, positive: bool = True, top: int = _WEIGHT_TOP
) -> list[str]:
    lo = 1 if positive else 0
    weights = [rng.randint(lo, top) for _ in range(n)]
    if sum(weights) == 0:
        weights[rng.randrange(n)] = 1
    total = sum(weights)
    return [str(Fraction(w, total)) for w in weights]


def _states(n: int) -> list[str]:
    return [f"w{i}" for i in range(n)]


def _random_partition(rng: random.Random, states: list[str], k: int) -> list[list[str]]:
    """A uniformly shuffled partition of ``states`` into exactly k blocks."""
    order = list(states)
    rng.shuffle(order)
    blocks = [[s] for s in order[:k]]
    for s in order[k:]:
        blocks[rng.randrange(k)].append(s)
    return blocks


def _split(rng: random.Random, blocks: list[list[str]], extra: int) -> list[list[str]]:
    """Refine a partition by splitting blocks until it has ``extra`` more."""
    out = [list(b) for b in blocks]
    for _ in range(extra):
        big = [i for i, b in enumerate(out) if len(b) > 1]
        i = rng.choice(big)
        block = out.pop(i)
        rng.shuffle(block)
        cut = rng.randrange(1, len(block))
        out.extend([block[:cut], block[cut:]])
    return out


def _structure(
    rng: random.Random, n_states: int, player_blocks: list[int], connected: bool
) -> dict:
    """Structure JSON with one partition per player; when ``connected`` the
    players share a single common-knowledge component."""
    states = _states(n_states)
    while True:
        players = [_random_partition(rng, states, k) for k in player_blocks]
        if not connected or _single_component(states, players):
            break
    return {
        "states": states,
        "prior": _distribution(rng, n_states),
        "players": [
            {"name": f"p{i}", "partition": blocks} for i, blocks in enumerate(players)
        ],
    }


def _single_component(states: list[str], partitions: list[list[list[str]]]) -> bool:
    parent = {s: s for s in states}

    def find(s: str) -> str:
        while parent[s] != s:
            s = parent[s]
        return s

    for blocks in partitions:
        for b in blocks:
            for s in b[1:]:
                parent[find(s)] = find(b[0])
    return len({find(s) for s in states}) == 1


def _visible_merge(
    rng: random.Random, players: list[list[list[str]]], blocks: list[list[str]]
) -> list[list[str]] | None:
    """Merge two oracle blocks that some player can tell apart after the
    announcement: a player block meets both, so the merge changes that
    player's join and no coarsening of the merged oracle can match."""
    pairs = [(i, j) for i in range(len(blocks)) for j in range(i + 1, len(blocks))]
    rng.shuffle(pairs)
    for i, j in pairs:
        for pblocks in players:
            if any(
                set(pb) & set(blocks[i]) and set(pb) & set(blocks[j]) for pb in pblocks
            ):
                merged = [b for k, b in enumerate(blocks) if k not in (i, j)]
                merged.append(blocks[i] + blocks[j])
                return merged
    return None


# ---------------------------------------------------------------------------
# dominance-sweep


def _dominance_query(rng: random.Random, stratum: tuple) -> dict:
    kind = stratum[0]
    if kind == "is_imi":
        _, verdict, how, k1, k2, n, players_n = stratum
        connected = False
    else:
        _, how, k1, k2, n, players_n = stratum
        connected = kind in ("two_sided", "unique_ckc")
    player_blocks = [rng.randint(2, 4) for _ in range(players_n)]
    while True:
        structure = _structure(rng, n, player_blocks, connected)
        players = [p["partition"] for p in structure["players"]]
        states = structure["states"]
        if how in ("refine", "holds"):
            second = _random_partition(rng, states, k2)
            first = _split(rng, second, k1 - k2)
        elif how == "same":
            second = _random_partition(rng, states, k2)
            first = [list(b) for b in second]
        elif how == "singletons":
            second = _random_partition(rng, states, k2)
            first = [[s] for s in states]
        else:  # a visible merge: first is coarser than second
            second = _random_partition(rng, states, k2)
            first = _visible_merge(rng, players, second)
            if first is None:
                continue
        break
    query = {"kind": kind, "structure": structure, "first": first, "second": second}
    if kind == "is_imi":
        query["expect"] = verdict == "holds"
    elif kind == "two_sided":
        query["expect"] = {"forward": True}
    else:
        query["expect"] = how == "holds"
    return query


# ---------------------------------------------------------------------------
# signal-garble


def _kernel_rows(
    rng: random.Random, oracle: list[list[str]], signals: int, positive: bool
) -> dict:
    """One kernel row per oracle block, copied to each of its states so the
    signaling is measurable."""
    rows = {}
    for block in oracle:
        row = _distribution(rng, signals, positive)
        for s in block:
            rows[s] = {f"s{j}": v for j, v in enumerate(row)}
    return rows


def _garbling(rng: random.Random, signals: int, targets: int) -> dict:
    """A row-stochastic map from signals s0.. to labels t0.., with every
    entry positive."""
    out = {}
    for j in range(signals):
        row = _distribution(rng, targets)
        out[f"s{j}"] = {f"t{t}": v for t, v in enumerate(row)}
    return out


def _garble_query(rng: random.Random, stratum: tuple) -> dict:
    kind, n, k, signals, pblocks, targets = stratum
    structure = _structure(rng, n, [pblocks, pblocks], connected=False)
    oracle = _random_partition(rng, structure["states"], k)
    query = {"kind": kind, "structure": structure, "oracle": oracle}
    if kind == "separating":
        return query
    # Kernels and garblings are fully supported (except for the experiment
    # matrices, whose zero columns are part of what they test), so the
    # number of posteriors, lifted signals and LP variables is fixed by the
    # stratum and a round costs about the same on every seed.
    query["signals"] = [f"s{j}" for j in range(signals)]
    query["kernel"] = _kernel_rows(rng, oracle, signals, kind != "experiment")
    query["garbling"] = _garbling(rng, signals, targets)
    query["player"] = rng.randrange(2)
    return query


# ---------------------------------------------------------------------------
# game-solve


def _menu_sizes(structure: dict, kernel: dict) -> list[int]:
    """Distinct posteriors per player under a fully supported kernel: a
    player block inside one oracle block yields one posterior for every
    signal, a block meeting oracle blocks with different rows one per
    signal."""
    sizes = []
    for player in structure["players"]:
        size = 0
        for block in player["partition"]:
            rows = {tuple(sorted(kernel[s].items())) for s in block}
            size += 1 if len(rows) == 1 else len(kernel[block[0]])
        sizes.append(size)
    return sorted(sizes)


def _game_payoffs(
    rng: random.Random, states: list[str], actions: list[list[str]], common: bool
) -> dict:
    payoffs: dict = {}
    for s in states:
        row = {}
        for a in actions[0]:
            for b in actions[1]:
                if common:
                    v = str(rng.randint(-3, 6))
                    row[f"{a}|{b}"] = [v, v]
                else:
                    row[f"{a}|{b}"] = [str(rng.randint(-3, 6)), str(rng.randint(-3, 6))]
        payoffs[s] = row
    return payoffs


def _game_query(rng: random.Random, stratum: tuple) -> dict:
    kind, n, pblocks, k, signals, n_actions = stratum
    if kind == "log_argmax":
        cands = [_distribution(rng, n) for _ in range(n_actions)]
        return {"kind": kind, "states": _states(n), "q": _distribution(rng, n), "candidates": cands}
    if kind == "log_sums":
        # Two sums of n_actions scores each. The scoring beliefs use weights
        # of at most 3 per state, so a score's denominator stays at most 12.
        return {
            "kind": kind,
            "states": _states(n),
            "q": _distribution(rng, n, top=3),
            "candidates": [_distribution(rng, n) for _ in range(n_actions)],
            "other": _distribution(rng, n, top=3),
            "others": [_distribution(rng, n) for _ in range(n_actions)],
        }
    two_stage = kind == "two_stage"
    while True:
        structure = _structure(rng, n, [pblocks, pblocks], connected=two_stage)
        states = structure["states"]
        oracle = _random_partition(rng, states, k)
        kernel = _kernel_rows(rng, oracle, signals, positive=kind != "best_common")
        if not two_stage or _menu_sizes(structure, kernel) == TWO_STAGE_MENUS:
            break
    query = {
        "kind": kind,
        "structure": structure,
        "oracle": oracle,
        "signals": [f"s{j}" for j in range(signals)],
        "kernel": kernel,
    }
    if n_actions:
        actions = [[f"a{j}" for j in range(n_actions)], [f"b{j}" for j in range(n_actions)]]
        query["actions"] = actions
        query["payoffs"] = _game_payoffs(rng, states, actions, common=kind == "best_common")
    if kind == "mixed":
        # One mixture per (player, block, signal); queries.py keeps only the
        # reachable pairs, so the seed fixes every mixture up front.
        query["mixtures"] = [
            {
                f"{bi}|s{j}": _distribution(rng, n_actions, positive=False)
                for bi in range(pblocks)
                for j in range(signals)
            }
            for _ in range(2)
        ]
    return query


# ---------------------------------------------------------------------------
# fixture-corpus


def _fixture_round(rng: random.Random, names: list[str]) -> dict:
    order = list(names)
    rng.shuffle(order)
    return {"kind": "fixture_pass", "order": order}


# ---------------------------------------------------------------------------


def generate_round(
    workload: str, seed: int, index: int | str, fixture_names: list[str] = ()
) -> list[dict]:
    """Round ``index`` of the deck for ``workload`` and ``seed``: a list of
    query specs. Rounds are independent, so a run makes them one at a time.

    ``fixture_names`` is the packaged fixture list, used only by the
    fixture-corpus workload, whose inputs are the fixtures themselves.
    """
    rng = _rng(workload, seed, index)
    if workload == "fixture-corpus":
        return [_fixture_round(rng, sorted(fixture_names))]
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}")
    strata, make = _MAKERS[workload]
    round_ = [make(rng, s) for s in strata]
    rng.shuffle(round_)
    return round_


_MAKERS = {
    "dominance-sweep": (DOMINANCE_STRATA, _dominance_query),
    "signal-garble": (GARBLE_STRATA, _garble_query),
    "game-solve": (GAME_STRATA, _game_query),
}


def serialize(rounds: list[list[dict]]) -> bytes:
    """Canonical bytes of generated rounds: sorted keys, no whitespace."""
    return json.dumps(rounds, sort_keys=True, separators=(",", ":")).encode()
