"""Survival-regime analysis for branching random walks in random environment.

The library classifies a nearest-neighbour branching random walk on the
integer line, with i.i.d. random offspring laws per site, into one of
three regimes: strong local survival, global survival with local
extinction, or global extinction.  Closed-form criteria drive the
verdict; Lyapunov-exponent estimation, spectral-radius sweeps and
quenched Monte Carlo provide independent numerical cross-checks.
"""

from .envmodel import (
    ConditionReport,
    EnvironmentLaw,
    EnvironmentWindow,
    MomentTriple,
    OffspringLaw,
    OffspringVector,
    law_from_atoms,
    moments,
    realize_window,
    reflected,
    state_at,
    validate_conditions,
)
from .criteria import (
    ConditionError,
    LambdaInterval,
    RegimeReport,
    classify,
    classify_environment,
    expected_log_drift,
    lambda_feasible_set,
    state_feasible_interval,
)
from .lyapunov import (
    LyapunovEstimate,
    build_A,
    build_A_lambda,
    build_A_tilde,
    conjugacy_residual,
    top_lyapunov,
)
from .spectral import (
    SpectralEstimate,
    TruncatedMomentMatrix,
    rho_sweep,
    spectral_radius,
    truncated_matrix,
)
from .simulator import (
    BatchRun,
    FrozenProfile,
    SurvivalEstimates,
    TrialOutcome,
    frozen_mean_profile,
    run_batch,
    supermartingale_trace,
    survival_probabilities,
)

__version__ = "0.1.0"
