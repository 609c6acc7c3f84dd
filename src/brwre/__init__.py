"""Survival-regime analysis for branching random walks in random environment.

The library classifies a nearest-neighbour branching random walk on the
integer line, with i.i.d. random offspring laws per site, into one of
three regimes: strong local survival, global survival with local
extinction, or global extinction.  Closed-form criteria drive the
verdict; Lyapunov-exponent estimation, spectral-radius sweeps and
quenched Monte Carlo provide independent numerical cross-checks.

Exports load from their modules on first access (PEP 562), so `import brwre` needs no numpy.
"""

import importlib

_EXPORTS = {
    "envmodel": "ConditionReport EnvironmentLaw MomentTriple OffspringLaw OffspringVector "
                "law_from_atoms moments reflected state_at validate_conditions",
    "criteria": "ConditionError LambdaInterval LyapunovEstimate RegimeReport classify "
                "classify_environment expected_log_drift lambda_feasible_set "
                "state_feasible_interval",
    "lyapunov": "build_A build_A_lambda top_lyapunov",
    "spectral": "SpectralEstimate TruncatedMomentMatrix rho_sweep spectral_radius truncated_matrix",
    "simulator": "BatchRun FrozenProfile SurvivalEstimates TrialOutcome frozen_mean_profile "
                 "run_batch survival_probabilities",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
