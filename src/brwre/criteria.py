"""Closed-form survival criteria and the regime classifier.

A state with moment triple (mu-, mu0, mu+) admits the test function
lam -> mu-/lam + mu0 + mu+*lam.  Its sublevel set {lam > 0 : value <= 1}
is a closed interval (possibly empty or a point), computed exactly from
the quadratic mu+ lam^2 - (1 - mu0) lam + mu- <= 0.  Local extinction is
equivalent to the per-state intervals having a common point; the position
of that intersection relative to 1 decides which Lyapunov comparison
settles global survival.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import lyapunov
from .envmodel import EnvironmentLaw, MomentTriple, validate_conditions, ConditionReport
from .lyapunov import LyapunovEstimate, expected_log_drift

STRONG_LOCAL_SURVIVAL = "StrongLocalSurvival"
GLOBAL_SURVIVAL_LOCAL_EXTINCTION = "GlobalSurvivalLocalExtinction"
GLOBAL_EXTINCTION = "GlobalExtinction"
INCONCLUSIVE = "Inconclusive"

# absolute tolerance for "1 belongs to the feasible set", evaluated on the
# defining inequality at lam=1 so the critical double-root case is not lost
# to root rounding
ONE_MEMBERSHIP_TOL = 1e-9


class ConditionError(ValueError):
    """Environment law fails a standing condition; carries the report."""

    def __init__(self, report: ConditionReport):
        self.report = report
        reasons = "; ".join(
            f"[{v.condition}] state {v.state_index}: {v.reason}" for v in report.violations
        )
        super().__init__(f"environment law fails standing conditions: {reasons}")


@dataclass(frozen=True)
class LambdaInterval:
    """Closed sublevel interval [lo, hi] in lambda, or the empty set."""

    lo: float | None
    hi: float | None

    def __post_init__(self):
        if (self.lo is None) != (self.hi is None):
            raise ValueError("lo and hi must both be set or both be None")
        if self.lo is not None and not (0.0 < self.lo <= self.hi):
            raise ValueError(f"need 0 < lo <= hi, got [{self.lo}, {self.hi}]")

    @classmethod
    def empty(cls) -> "LambdaInterval":
        return cls(None, None)

    @property
    def is_empty(self) -> bool:
        return self.lo is None

    def contains(self, lam: float) -> bool:
        return not self.is_empty and self.lo <= lam <= self.hi

    def intersect(self, other: "LambdaInterval") -> "LambdaInterval":
        if self.is_empty or other.is_empty:
            return LambdaInterval.empty()
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return LambdaInterval.empty()
        return LambdaInterval(lo, hi)


def criterion_value(m: MomentTriple, lam: float) -> float:
    """mu-/lam + mu0 + mu+*lam, the quantity tested against 1."""
    if lam <= 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    return m.mu_minus / lam + m.mu_zero + m.mu_plus * lam


def state_feasible_interval(m: MomentTriple) -> LambdaInterval:
    """Sublevel set {lam > 0 : criterion_value <= 1} in closed form."""
    if m.mu_plus <= 0.0 or m.mu_minus <= 0.0:
        raise ValueError(
            f"feasible interval needs mu_minus > 0 and mu_plus > 0, got {m.as_tuple()}"
        )
    b = 1.0 - m.mu_zero
    if b <= 0.0:
        return LambdaInterval.empty()
    disc = b * b - 4.0 * m.mu_minus * m.mu_plus
    if disc < 0.0:
        return LambdaInterval.empty()
    root = math.sqrt(disc)
    lo = (b - root) / (2.0 * m.mu_plus)
    hi = (b + root) / (2.0 * m.mu_plus)
    return LambdaInterval(lo, hi)


def lambda_feasible_set(envlaw: EnvironmentLaw) -> LambdaInterval:
    """Intersection of the per-state intervals; empty iff local survival."""
    out = None
    for m in envlaw.state_moments:
        iv = state_feasible_interval(m)
        out = iv if out is None else out.intersect(iv)
        if out.is_empty:
            return out
    return out


def one_in_feasible_set(envlaw: EnvironmentLaw) -> bool:
    """Test lam=1 membership on the inequality itself, not via roots."""
    return all(criterion_value(m, 1.0) <= 1.0 + ONE_MEMBERSHIP_TOL for m in envlaw.state_moments)


def vanishing_direction(envlaw: EnvironmentLaw) -> str:
    """The classifier's branch from the closed form, with tol = ONE_MEMBERSHIP_TOL:
    "none" (empty feasible set), "both" (1 feasible, or an endpoint within tol
    of 1), "right" (set inside (1 + tol, inf)) or "left" (set inside (0, 1 - tol))."""
    interval = lambda_feasible_set(envlaw)
    if interval.is_empty:
        return "none"
    if one_in_feasible_set(envlaw):
        return "both"
    if interval.lo > 1.0 + ONE_MEMBERSHIP_TOL:
        return "right"
    if interval.hi < 1.0 - ONE_MEMBERSHIP_TOL:
        return "left"
    return "both"


@dataclass(frozen=True)
class RegimeReport:
    """Final verdict plus the evidence it was decided on.

    margin is the criterion gap in units of the exponent's stderr, signed
    so that positive favors global survival; closed-form verdicts carry an
    infinite margin.
    """

    regime: str
    vanishing_direction: str  # "right", "left", "both" or "none"
    lambda_set: LambdaInterval
    drift: float
    gamma1: LyapunovEstimate | None
    margin: float
    conditions: ConditionReport


def _signed_margin(gap: float, stderr: float) -> float:
    if stderr > 0.0:
        return gap / stderr
    if gap > 0.0:
        return math.inf
    if gap < 0.0:
        return -math.inf
    return 0.0


def classify(
    envlaw: EnvironmentLaw,
    gamma: LyapunovEstimate | None = None,
    gamma_tilde: LyapunovEstimate | None = None,
    *,
    sigma_margin: float = 3.0,
) -> RegimeReport:
    """Decide the survival regime from the feasible set and exponents.

    Decision order: empty feasible set -> strong local survival; 1 in the
    set -> global extinction in both directions; set inside (1, inf) ->
    right-vanishing branch decided by gamma (kind A) against the log
    drift; set inside (0, 1) -> mirrored branch decided by gamma_tilde
    against the negated drift.  Statistical branches declare a side only
    when the gap exceeds sigma_margin standard errors.
    """
    report = validate_conditions(envlaw)
    if not report.ok:
        raise ConditionError(report)

    interval = lambda_feasible_set(envlaw)
    drift = expected_log_drift(envlaw)
    direction = vanishing_direction(envlaw)

    if direction in ("none", "both"):
        if direction == "none":
            regime, margin = STRONG_LOCAL_SURVIVAL, math.inf
        elif one_in_feasible_set(envlaw):
            regime, margin = GLOBAL_EXTINCTION, math.inf
        else:  # 1 is infeasible by more than the tolerance, yet an endpoint is within it of 1
            regime, margin = INCONCLUSIVE, 0.0
        return RegimeReport(
            regime=regime, vanishing_direction=direction, lambda_set=interval, drift=drift,
            gamma1=None, margin=margin, conditions=report,
        )
    if direction == "right":
        if gamma is None:
            raise ValueError("right-vanishing branch needs a kind-A exponent estimate")
        margin = _signed_margin(drift - gamma.value, gamma.stderr)
        est = gamma
    else:
        if gamma_tilde is None:
            raise ValueError("left-vanishing branch needs a kind-A_tilde exponent estimate")
        margin = _signed_margin(-drift - gamma_tilde.value, gamma_tilde.stderr)
        est = gamma_tilde

    if margin > sigma_margin:
        regime = GLOBAL_SURVIVAL_LOCAL_EXTINCTION
    elif margin < -sigma_margin:
        regime = GLOBAL_EXTINCTION
    else:
        regime = INCONCLUSIVE
    return RegimeReport(
        regime=regime, vanishing_direction=direction, lambda_set=interval,
        drift=drift, gamma1=est, margin=margin, conditions=report,
    )


def classify_environment(
    envlaw: EnvironmentLaw,
    *,
    seed: int = 0,
    steps: int = 100_000,
    replicas: int = 32,
    sigma_margin: float = 3.0,
) -> RegimeReport:
    """classify(), computing the one exponent estimate the branch needs."""
    report = validate_conditions(envlaw)
    if not report.ok:
        raise ConditionError(report)
    direction = vanishing_direction(envlaw)
    gamma = gamma_tilde = None
    if direction == "right":
        gamma = lyapunov.top_lyapunov(envlaw, "A", steps=steps, replicas=replicas, seed=seed)
    elif direction == "left":
        gamma_tilde = lyapunov.top_lyapunov(
            envlaw, "A_tilde", steps=steps, replicas=replicas, seed=seed
        )
    return classify(envlaw, gamma, gamma_tilde, sigma_margin=sigma_margin)
