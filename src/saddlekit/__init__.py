"""Accelerated solvers for smooth strongly convex-concave saddle problems.

The library minimizes  f(x) = r(x) + max_y { F(x,y) - h(y) }  through nested
accelerated gradient methods driven by inexact first-order information from
certified inner maximizations, meters every oracle call, and ships a seeded
testbed with closed-form solutions plus an extragradient baseline for
complexity comparisons.
"""

from .core import (
    AllSpace,
    BudgetExceededError,
    EuclideanBall,
    HistoryRow,
    InvalidSpecError,
    Metered,
    OracleKind,
    OracleTally,
    SaddleProblem,
    SaddleSpec,
    SolveReport,
    SpectralInfo,
    UnsupportedProblemError,
    effective_smoothness,
)
from .fgm import (
    CompositeObjective,
    next_alpha,
    restart_budget,
    restart_count,
    run_fgm,
    run_restarted_fgm,
    solve_to_gap,
)
from .inner_max import (
    EnvelopeGradOracle,
    InexactGrad,
    envelope_check,
    inexact_grad_from_witness,
    inexact_grad_g,
)
from .mirror_prox import (
    ViOperator,
    assemble_saddle_operator,
    run_mirror_prox,
    run_restarted_mp,
)
from .saddle import (
    ComplexityPrediction,
    Engine,
    GapCertificate,
    dual_view,
    duality_gap,
    predict_complexity,
    solve_saddle,
)
from .sliding import (
    Alg5Params,
    SlidingSpec,
    TwoTermObjective,
    alg5_params,
    apg_inexact_solve,
    catalyst_solve,
    composite_gm_solve,
    sliding_solve,
)
from .testbed import (
    SaddleInstance,
    bilinear_instance,
    gen_bilinear,
    gen_quadratic_saddle,
    gen_smoothed_game,
    lemma1_check,
)

__version__ = "0.1.0"

__all__ = [
    "AllSpace",
    "Alg5Params",
    "BudgetExceededError",
    "ComplexityPrediction",
    "CompositeObjective",
    "Engine",
    "EnvelopeGradOracle",
    "EuclideanBall",
    "GapCertificate",
    "HistoryRow",
    "InexactGrad",
    "InvalidSpecError",
    "Metered",
    "OracleKind",
    "OracleTally",
    "SaddleInstance",
    "SaddleProblem",
    "SaddleSpec",
    "SlidingSpec",
    "SolveReport",
    "SpectralInfo",
    "TwoTermObjective",
    "UnsupportedProblemError",
    "ViOperator",
    "alg5_params",
    "apg_inexact_solve",
    "assemble_saddle_operator",
    "bilinear_instance",
    "catalyst_solve",
    "composite_gm_solve",
    "dual_view",
    "duality_gap",
    "effective_smoothness",
    "envelope_check",
    "gen_bilinear",
    "gen_quadratic_saddle",
    "gen_smoothed_game",
    "inexact_grad_from_witness",
    "inexact_grad_g",
    "lemma1_check",
    "next_alpha",
    "predict_complexity",
    "restart_budget",
    "restart_count",
    "run_fgm",
    "run_mirror_prox",
    "run_restarted_fgm",
    "run_restarted_mp",
    "sliding_solve",
    "solve_saddle",
    "solve_to_gap",
]
