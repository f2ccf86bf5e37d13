"""Refusal branches that no other test reaches, and every partition refusal
of the string and mask constructors in its order of precedence: each public
check raises its error class with its exact message, and a missing file
given to the command line exits 2 with one ``error:`` line."""

import pytest

from oraclegames import (
    BayesianGame,
    DomainError,
    Distribution,
    ExperimentMatrix,
    InformationStructure,
    InputError,
    Partition,
    Prior,
    StateSpace,
    StochasticMatrix,
    StochasticSignaling,
    apply_garbling,
    ckc_decompose,
    cli,
    experiment_matrix,
    game_from_json,
    is_imi,
    join,
    log_score,
    make_strategy,
    separating_strategy,
    strategy_from_json,
)

SPACE = StateSpace(("s0", "s1"))
OTHER = StateSpace(("x0", "x1"))
FOUR = StateSpace(("a", "b", "c", "d"))
STRUCTURE = InformationStructure(
    SPACE,
    Prior.uniform(SPACE),
    ("A", "B"),
    (Partition(SPACE, [["s0"], ["s1"]]), Partition(SPACE, [["s0", "s1"]])),
)
GAME = BayesianGame(
    STRUCTURE,
    (("a", "b"), ("c",)),
    {(s, (a, "c")): ("0", "0") for s in SPACE.states for a in "ab"},
)
TAU = StochasticSignaling.from_rows(
    Partition(SPACE, [["s0", "s1"]]), ("t",), {"s0": {"t": "1"}, "s1": {"t": "1"}}
)


def _strategy(first):
    """Player A plays ``first`` at s0 and a at s1; player B plays c."""
    return {"A": {"s0|t": first, "s1|t": "a"}, "B": {"s0,s1|t": "c"}}


REFUSALS = [
    pytest.param(
        lambda: BayesianGame(STRUCTURE, (("a",),), {}),
        InputError,
        "expected action sets for 2 players, got 1",
        id="game-action-set-count",
    ),
    pytest.param(
        lambda: BayesianGame(STRUCTURE, (("a", "a"), ("c",)), {}),
        InputError,
        "duplicate action label 'a'",
        id="game-duplicate-action",
    ),
    pytest.param(
        lambda: game_from_json(
            STRUCTURE, {"actions": {"A": ["a"], "B": ["c"]}, "payoffs": {"zz": {}}}
        ),
        InputError,
        "unknown state 'zz' in payoffs",
        id="game-json-unknown-state",
    ),
    pytest.param(
        lambda: strategy_from_json(GAME, TAU, _strategy({"z": "1"})),
        InputError,
        "unknown action 'z' in strategy",
        id="mixture-unknown-action",
    ),
    pytest.param(
        lambda: strategy_from_json(GAME, TAU, _strategy({"a": "-1", "b": "2"})),
        InputError,
        "negative probability -1 in strategy",
        id="mixture-negative-probability",
    ),
    pytest.param(
        lambda: make_strategy(GAME, TAU, [{}]),
        InputError,
        "expected strategies for 2 players, got 1",
        id="strategy-player-count",
    ),
    pytest.param(
        lambda: strategy_from_json(GAME, TAU, {"A": {"zz|t": "a"}, "B": {}}),
        InputError,
        "unknown state 'zz' in strategy key 'zz|t'",
        id="strategy-key-unknown-state",
    ),
    pytest.param(
        lambda: strategy_from_json(GAME, TAU, {"A": {}, "B": {}, "Z": {}}),
        InputError,
        "strategy JSON names unknown player 'Z'",
        id="strategy-unknown-player",
    ),
    pytest.param(
        lambda: log_score(
            Distribution.from_mass(SPACE, ["1/2", "1/2"]),
            Distribution.from_mass(OTHER, ["1/2", "1/2"]),
        ),
        DomainError,
        "distributions use different state spaces",
        id="log-score-spaces",
    ),
    pytest.param(
        lambda: is_imi(STRUCTURE, STRUCTURE.players[0], Partition(OTHER, [["x0", "x1"]])),
        DomainError,
        "partitions are defined over different state spaces",
        id="imi-spaces",
    ),
    pytest.param(
        lambda: apply_garbling(
            StochasticMatrix(SPACE, ("u", "v"), (("1", "0"), ("0", "1"))), [("1",)], ("w",)
        ),
        InputError,
        "garbling must have one row per column of the base matrix",
        id="garbling-row-count",
    ),
    pytest.param(
        lambda: join(STRUCTURE.players[0], Partition(OTHER, [["x0", "x1"]])),
        DomainError,
        "partitions are defined over different state spaces",
        id="join-spaces",
    ),
    pytest.param(
        lambda: ckc_decompose([]),
        DomainError,
        "need at least one partition",
        id="meet-of-nothing",
    ),
    pytest.param(
        lambda: ExperimentMatrix(
            SPACE, ("t@b0",), (("1",), ("1",)), columns=(), blocks=(("b0", ("s0", "s1")),)
        ),
        InputError,
        "column metadata does not match the matrix width",
        id="experiment-matrix-columns",
    ),
    pytest.param(
        lambda: experiment_matrix(TAU, STRUCTURE.players[0], Prior.uniform(OTHER)),
        DomainError,
        "prior uses a different state space",
        id="experiment-matrix-prior",
    ),
    pytest.param(
        lambda: separating_strategy(STRUCTURE.players[0], Prior.uniform(OTHER)),
        DomainError,
        "prior uses a different state space",
        id="separating-strategy-prior",
    ),
]

# The string constructor checks block by block in input order: an unknown
# state, an empty block, then the lowest state that the block repeats or
# shares with an earlier block; a state no block covers is checked last.
PARTITION_BLOCKS = [
    ((("a", "b"), ("d", "d", "zz"), ("c",)), "unknown state 'zz'", "unknown-beside-a-repeat"),
    ((("a", "b"), ("zz", "a"), ("c", "d")), "unknown state 'zz'", "unknown-before-a-shared"),
    ((("a", "b"), ("b",), ("zz",)), "state 'b' appears in more than one block", "shared-first"),
    ((("a", "b"), (), ("c", "d")), "partition contains an empty block", "empty"),
    ((("a",), (), ("zz",)), "partition contains an empty block", "empty-first"),
    ((("a", "b"), ("c", "c"), ("d",)), "state 'c' appears in more than one block", "repeat"),
    ((("a", "b"), ("d", "d", "b"), ("c",)), "state 'b' appears in more than one block", "shared"),
    ((("a", "d"), ("b", "b", "d"), ("c",)), "state 'b' appears in more than one block", "low-repeat"),
    ((("a", "c"), ("d", "c", "b")), "state 'c' appears in more than one block", "unsorted-block"),
    ((("a", "b", "c"), ("d", "c", "b")), "state 'b' appears in more than one block", "two-shared"),
    ((("a", "b"), ("d",)), "partition blocks do not cover state 'c'", "uncovered"),
    ((("c",), ("a", "zz")), "unknown state 'zz'", "unknown-before-uncovered"),
]
REFUSALS += [
    pytest.param(lambda b=blocks: Partition(FOUR, b), InputError, message, id=f"partition-{name}")
    for blocks, message, name in PARTITION_BLOCKS
]

OUTSIDE = "a partition mask sets a bit outside the 4 states"
PARTITION_MASKS = [
    ([0b0011, 0, 0b1100], "partition contains an empty block", "zero"),
    ([0b0011, 0b0110, 0b1000], "state 'b' appears in more than one block", "shared"),
    ([0b0111, 0b1110], "state 'b' appears in more than one block", "two-shared"),
    ([-1], OUTSIDE, "negative"),
    ([0b0001, -0b1000], OUTSIDE, "negative-after-a-mask"),
    ([0b10000011, 0b1100], OUTSIDE, "outside"),
    ([0b0011, 0b1000], "partition blocks do not cover state 'c'", "uncovered"),
    ([], "partition blocks do not cover state 'a'", "nothing"),
]
REFUSALS += [
    pytest.param(
        lambda m=masks: Partition.from_masks(FOUR, m), InputError, message, id=f"masks-{name}"
    )
    for masks, message, name in PARTITION_MASKS
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_refusal(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_a_missing_file_exits_2_with_one_error_line(tmp_path, capsys):
    path = tmp_path / "absent.json"
    assert cli.main(["ckc", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: no such file: {path}"]
