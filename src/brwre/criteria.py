"""Closed-form survival criteria and the regime classifier.

A state with moment triple (mu-, mu0, mu+) admits the test function
lam -> mu-/lam + mu0 + mu+*lam, and lam is feasible for it when
`MomentTriple.slack(lam)` (1 minus that value) is at least
-FEASIBILITY_TOL.  Both live in `envmodel`, and lyapunov's A_lambda and
the simulator's supermartingale trace make the same test.  The sublevel
set is a closed interval (possibly empty or a point), computed exactly
from the quadratic mu+ lam^2 - (1 - mu0) lam + mu- <= 0.  Local
extinction is equivalent to the per-state intervals having a common
point; where that intersection lies relative to 1 decides the branch.
`classify` calls its `exponent(kind)` once, on a statistical branch only:
kind A against the log drift on the right, kind A_tilde (kind A of the
reflected law) against the negated drift on the left.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

from . import lyapunov
from .envmodel import (FEASIBILITY_TOL, ConditionReport, EnvironmentLaw, MomentTriple,
                       validate_conditions)
from .lyapunov import LyapunovEstimate, expected_log_drift

STRONG_LOCAL_SURVIVAL = "StrongLocalSurvival"
GLOBAL_SURVIVAL_LOCAL_EXTINCTION = "GlobalSurvivalLocalExtinction"
GLOBAL_EXTINCTION = "GlobalExtinction"
INCONCLUSIVE = "Inconclusive"


class ConditionError(ValueError):
    """Environment law fails a standing condition; carries the report."""

    def __init__(self, report: ConditionReport):
        self.report = report
        reasons = "; ".join(f"[{v.condition}] state {v.state_index}: {v.reason}"
                            for v in report.violations)
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


def state_feasible_interval(m: MomentTriple) -> LambdaInterval:
    """Sublevel set {lam > 0 : m.slack(lam) >= 0} in closed form."""
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
    """Intersection of the per-state intervals, the max of their lower ends
    and the min of their upper ends; empty iff local survival."""
    lo, hi = 0.0, math.inf
    for m in envlaw.state_moments:
        iv = state_feasible_interval(m)
        if iv.is_empty:
            return iv
        lo, hi = max(lo, iv.lo), min(hi, iv.hi)
        if lo > hi:
            return LambdaInterval.empty()
    return LambdaInterval(lo, hi)


def one_in_feasible_set(envlaw: EnvironmentLaw) -> bool:
    """Test lam=1 membership on the slack itself, not via roots, so the
    critical double-root case is not lost to root rounding."""
    return all(m.slack(1.0) >= -FEASIBILITY_TOL for m in envlaw.state_moments)


def _direction(interval: LambdaInterval, one_in: bool) -> str:
    if interval.is_empty:
        return "none"
    if not one_in and interval.lo > 1.0 + FEASIBILITY_TOL:
        return "right"
    if not one_in and interval.hi < 1.0 - FEASIBILITY_TOL:
        return "left"
    return "both"


def vanishing_direction(envlaw: EnvironmentLaw) -> str:
    """The classifier's branch from the closed form, with tol = FEASIBILITY_TOL:
    "none" (empty feasible set), "both" (1 feasible, or an endpoint within tol
    of 1), "right" (set inside (1 + tol, inf)) or "left" (set inside (0, 1 - tol))."""
    return _direction(lambda_feasible_set(envlaw), one_in_feasible_set(envlaw))


@dataclass(frozen=True)
class RegimeReport:
    """Final verdict plus its evidence.  margin is the criterion gap in units of
    the exponent's stderr, signed so that positive favors global survival;
    closed-form verdicts carry an infinite margin."""

    regime: str
    vanishing_direction: str  # "right", "left", "both" or "none"
    lambda_set: LambdaInterval
    drift: float
    gamma1: LyapunovEstimate | None
    margin: float


def _signed_margin(gap: float, stderr: float) -> float:
    if stderr > 0.0:
        return gap / stderr
    return math.inf if gap > 0.0 else -math.inf if gap < 0.0 else 0.0


def classify(envlaw: EnvironmentLaw, exponent: Callable[[str], LyapunovEstimate] | None = None,
             *, sigma_margin: float = 3.0) -> RegimeReport:
    """Decide the survival regime from the feasible set and one exponent.

    Empty feasible set -> strong local survival; 1 in the set -> global
    extinction; set inside (1, inf) -> exponent("A") against the log drift;
    set inside (0, 1) -> exponent("A_tilde") against the negated drift.
    Those two branches declare a side only beyond sigma_margin stderrs.
    """
    report = validate_conditions(envlaw)
    if not report.ok:
        raise ConditionError(report)

    interval = lambda_feasible_set(envlaw)
    drift = expected_log_drift(envlaw)
    one_in = one_in_feasible_set(envlaw)
    direction = _direction(interval, one_in)

    est = None
    if direction == "none":
        regime, margin = STRONG_LOCAL_SURVIVAL, math.inf
    elif direction == "both":
        # not one_in: 1 misses the set by more than tol, yet an endpoint is within tol of 1
        regime, margin = (GLOBAL_EXTINCTION, math.inf) if one_in else (INCONCLUSIVE, 0.0)
    else:
        if exponent is None:
            raise ValueError(f"{direction}-vanishing branch needs an exponent estimate")
        kind, gap = ("A", drift) if direction == "right" else ("A_tilde", -drift)
        est = exponent(kind)
        margin = _signed_margin(gap - est.value, est.stderr)
        regime = (GLOBAL_SURVIVAL_LOCAL_EXTINCTION if margin > sigma_margin
                  else GLOBAL_EXTINCTION if margin < -sigma_margin else INCONCLUSIVE)
    return RegimeReport(
        regime=regime, vanishing_direction=direction, lambda_set=interval,
        drift=drift, gamma1=est, margin=margin,
    )


def classify_environment(envlaw: EnvironmentLaw, *, seed: int = 0, steps: int = 100_000,
                         replicas: int = 32, sigma_margin: float = 3.0) -> RegimeReport:
    """classify(), drawing the one exponent estimate its branch needs with top_lyapunov."""
    exponent = functools.partial(lyapunov.top_lyapunov, envlaw, steps=steps, replicas=replicas,
                                 seed=seed)
    return classify(envlaw, exponent, sigma_margin=sigma_margin)
