"""Exact-arithmetic toolkit for incomplete-information games with
public-information oracles.

Everything is computed over ``fractions.Fraction``: partition algebra
(joins, common-knowledge components, coarsening enumeration), signaling
kernels and posterior atlases, informativeness orders between oracles
(profile inclusion, garbling feasibility, common-objective conditions), and
the game constructions that witness those orders.
"""

from types import ModuleType as _ModuleType

from .errors import (
    DomainError,
    InputError,
    OracleGamesError,
    ResourceLimitError,
)
from .types import (
    Distribution,
    InformationStructure,
    Partition,
    Prior,
    StateSpace,
    format_rational,
    load_json,
    load_structure,
    parse_rational,
    partition_from_json,
    structure_from_json,
)
from .partitions import (
    DEFAULT_COARSENING_CAP,
    ckc_decompose,
    coarsenings,
    connect_path,
    join,
    refines,
)
from .signaling import (
    ExperimentMatrix,
    PosteriorAtlas,
    StochasticMatrix,
    StochasticSignaling,
    det_posterior,
    experiment_matrix,
    lift_garbled,
    matrix_from_json,
    merge_garbled,
    posterior_atlas,
    post_included,
    proportional_decompose,
    separating_strategy,
    signaling_from_json,
    stoch_posterior,
)
from .dominance import (
    GarblingResult,
    ImiResult,
    TwoSidedResult,
    apply_garbling,
    coarsening_profiles,
    common_objective_condition,
    garbling_exists,
    induced_profile,
    is_imi,
    restrict_to_ckc,
    two_sided_imi_equal,
    unique_ckc_dominates,
)
from .games import (
    BayesianGame,
    BeliefGame,
    CombinedGame,
    EquilibriumResult,
    LogScore,
    LogScoreGame,
    MixedValue,
    OutcomeDistribution,
    StrategyProfile,
    TwoStageGame,
    belief_aggregate,
    belief_best_response,
    belief_expected_payoffs,
    belief_is_equilibrium,
    best_common_payoff,
    build_kld_game,
    build_permutation_game,
    enumerate_pure_equilibria,
    expected_payoffs,
    game_from_json,
    information_partition,
    is_equilibrium,
    kld_aggregate,
    kld_expected_scores,
    log_score,
    log_score_argmax,
    make_strategy,
    ned_distribution,
    reachable_pairs,
    strategy_from_json,
    truthful_choices,
    truthful_kld_strategy,
)

__version__ = "0.1.0"

# Leave out the submodules, which bind their names here too (``types``).
__all__ = sorted(
    n for n, v in globals().items() if not (n.startswith("_") or isinstance(v, _ModuleType))
)
