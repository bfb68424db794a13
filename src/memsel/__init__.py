"""memsel: how many steps of memory does a discrete-state process need?

The library fits h-step Markov models to observed trajectories with a
Dirichlet prior per context, evaluates nine closed-form selection
criteria (AIC, DIC1/2, LPD, LPPD, WAIC1/2, LOO, CV2) on the deviance
scale, and picks the depth that predicts new trajectories best. A
simulation layer measures the statistical power of each criterion, and a
Monte-Carlo oracle can audit any closed-form value.
"""

from .chain import (
    START,
    BoundaryMode,
    CountTable,
    StateAlphabet,
    Trajectory,
    TrajectoryCounts,
    count_transitions,
)
from .criteria import (
    CRITERIA,
    K_TERMS,
    CriterionReport,
    DirichletPrior,
    aic,
    argmin,
    evaluate,
    evaluate_depths,
    lpd,
    param_count,
    predictive_log_density,
    select_order,
)
from .oracle import MIN_DRAWS, OracleEstimate, audit, cv2_refit, loo_refit
from .simulate import (
    FreeThrowModel,
    FreeThrowSimConfig,
    PowerStudyResult,
    RandomNetwork,
    SimConfig,
    free_throw_power,
    generate_network,
    run_power_study,
    sample_free_throw_trajectories,
    sample_trajectory,
)
from .tying import TieMap, jagged_free_throw_map, tie_counts, tied_param_count

__version__ = "0.1.0"
