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
`classify` calls its `exponent()` once, on a statistical branch only.
With drift = E ln(mu-/mu+) = gamma_1 + gamma_2 of A, the right branch
tests gamma_2 = drift - gamma_1 and the left branch -gamma_1 (the mirror
law's test, -drift - gamma(mirror), since gamma(mirror) = gamma_1 - drift:
see `lyapunov`), so global survival holds iff 0 lies outside
[gamma_2, gamma_1].  The caller supplies the estimate (`classify_environment`
and the CLI's stage table call `top_exponent`), and the margin divides the
gap by its stderr, an error bound.  The same quadratic's roots are the
eigenvalues of a state's matrix A, so a one-state law's exponent is exact
here (`constant_exponent`), and so is a law's at a tight point, where
every A_lambda is lower triangular (`top_exponent`).  Only the exponent
of another law of several states imports `lyapunov` and numpy, where it
is the midpoint of a certified bracket of exact word averages.  The rest
is `math`.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .envmodel import (FEASIBILITY_TOL, ConditionReport, EnvironmentLaw, MomentTriple,
                       validate_conditions)

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


class _LambdaInterval(NamedTuple):
    lo: float | None
    hi: float | None


class LambdaInterval(_LambdaInterval):
    """Closed sublevel interval [lo, hi] in lambda, or the empty set."""

    __slots__ = ()

    def __new__(cls, lo, hi):
        if (lo is None) != (hi is None):
            raise ValueError("lo and hi must both be set or both be None")
        if lo is not None and not (0.0 < lo <= hi):
            raise ValueError(f"need 0 < lo <= hi, got [{lo}, {hi}]")
        return super().__new__(cls, lo, hi)

    @classmethod
    def empty(cls) -> "LambdaInterval":
        return cls(None, None)

    @property
    def is_empty(self) -> bool:
        return self.lo is None

    @property
    def midpoint(self) -> float | None:
        """The geometric midpoint sqrt(lo * hi), or None when empty: the lambda
        of a word-sum bracket on gamma(A) (`lyapunov.top_lyapunov`) and of the
        stage graph's supermartingale trace."""
        return None if self.is_empty else math.sqrt(self.lo * self.hi)


def state_feasible_interval(m: MomentTriple) -> LambdaInterval:
    """Sublevel set {lam > 0 : m.slack(lam) >= 0} in closed form, or the vertex
    b / (2 mu+) alone when only it clears -FEASIBILITY_TOL."""
    if m.mu_plus <= 0.0 or m.mu_minus <= 0.0:
        raise ValueError(
            f"feasible interval needs mu_minus > 0 and mu_plus > 0, got {m.as_tuple()}"
        )
    b = 1.0 - m.mu_zero
    if b <= 0.0:
        return LambdaInterval.empty()
    disc = b * b - 4.0 * m.mu_minus * m.mu_plus
    if disc < 0.0:  # a double root may round to a negative disc: keep the vertex if feasible
        vertex = b / (2.0 * m.mu_plus)
        if m.slack(vertex) >= -FEASIBILITY_TOL:
            return LambdaInterval(vertex, vertex)
        return LambdaInterval.empty()
    root = math.sqrt(disc)
    lo = (b - root) / (2.0 * m.mu_plus)
    hi = (b + root) / (2.0 * m.mu_plus)
    return LambdaInterval(lo, hi)


def lambda_feasible_set(envlaw: EnvironmentLaw) -> LambdaInterval:
    """Intersection of the per-state intervals, the max of their lower ends
    and the min of their upper ends; empty iff local survival.  Crossed ends
    keep the point lo if every slack there clears -FEASIBILITY_TOL (a tie)."""
    lo, hi = 0.0, math.inf
    for m in envlaw.state_moments:
        iv = state_feasible_interval(m)
        if iv.is_empty:
            return iv
        lo, hi = max(lo, iv.lo), min(hi, iv.hi)
    if lo > hi:
        tied = all(m.slack(lo) >= -FEASIBILITY_TOL for m in envlaw.state_moments)
        return LambdaInterval(lo, lo) if tied else LambdaInterval.empty()
    return LambdaInterval(lo, hi)


def one_in_feasible_set(envlaw: EnvironmentLaw) -> bool:
    """Test lam=1 membership on the slack itself, not via roots, so the
    critical double-root case is not lost to root rounding."""
    return all(m.slack(1.0) >= -FEASIBILITY_TOL for m in envlaw.state_moments)


def expected_log_drift(envlaw: EnvironmentLaw) -> float:
    """Mixture mean of ln(mu-/mu+), the sum of A's two exponents."""
    out = 0.0
    for (w, _), m in zip(envlaw.states, envlaw.state_moments):
        if m.mu_plus <= 0.0 or m.mu_minus <= 0.0:
            raise ValueError(f"log drift needs positive mu-, mu+; got {m.as_tuple()}")
        out += w * math.log(m.mu_minus / m.mu_plus)
    return out


class LyapunovEstimate(NamedTuple):
    """A top exponent in nats per step, and how it was computed.

    method is "closed_form" (one state or a tight point: exact, stderr 0)
    or "word_sum" (the midpoint of a bracket of exact word averages: stderr
    is its half-width, a rigorous error bound, see `lyapunov.word_sum`).
    matrix_kind is "A" (the report's mirror exponent says "A_tilde"), and
    steps and replicas echo the caller's arguments; no method reads them.
    """

    value: float
    stderr: float
    steps: int
    replicas: int
    matrix_kind: str
    method: str


def feasible_slack(m: MomentTriple, lam: float) -> float:
    """m.slack(lam), or ValueError when it is below -FEASIBILITY_TOL."""
    slack = m.slack(lam)
    if slack < -FEASIBILITY_TOL:
        raise ValueError(f"lambda={lam} infeasible for state with moments {m.as_tuple()}: "
                         f"slack {slack:.3e} < 0")
    return slack


def constant_exponent(m: MomentTriple) -> float:
    """gamma(A) of the constant environment m: ln of its matrix's spectral radius.

    A power of one matrix grows like rho^n (Gelfand's formula).  A's
    characteristic polynomial is mu+ z^2 - b z + mu- with b = 1 - mu0, the
    quadratic of `state_feasible_interval`, so real roots give
    rho = (|b| + sqrt(disc)) / (2 mu+) and complex ones |z| = sqrt(mu-/mu+).
    Raises ValueError where `lyapunov.build_A` does, and FloatingPointError
    for a nilpotent matrix (rho = 0), as a product that collapsed to zero does.
    """
    if m.mu_plus <= 0.0:
        raise ValueError("matrix kind A needs mu_plus > 0")
    b = 1.0 - m.mu_zero
    disc = b * b - 4.0 * m.mu_minus * m.mu_plus
    if disc >= 0.0:
        rho = (abs(b) + math.sqrt(disc)) / (2.0 * m.mu_plus)
    else:
        rho = math.sqrt(m.mu_minus / m.mu_plus)
    if rho == 0.0:
        raise FloatingPointError("matrix product collapsed to zero")
    return math.log(rho)


def tight_point(envlaw: EnvironmentLaw) -> float | None:
    """The lambda of a tight point, or None.

    A tight point is the one point of a feasible set that is a point, with
    every state's slack there at most 0.  There every A_lambda, whose slack
    `lyapunov.build_A_lambda` clips at 0, is exactly [[a, 0], [a, 1]] with
    a = mu-/(lambda^2 mu+).  A positive slack, however small, is no such
    point: the exponent moves by far more than the slack.  At the point 2
    of three states with one slack 2.5e-10, [[a, 0], [a, 1]] lies 1.3e-9
    below the certified word-sum bracket, and on a set 9e-5 wide whose
    midpoint slack is 1e-9 it would miss the exponent by 4e-5.  Raises
    ValueError where `lambda_feasible_set` does.
    """
    iv = lambda_feasible_set(envlaw)
    if iv.is_empty or iv.lo < iv.hi:
        return None
    if any(m.slack(iv.lo) > 0.0 for m in envlaw.state_moments):
        return None
    return iv.lo


def top_exponent(envlaw: EnvironmentLaw, steps: int = 100_000, replicas: int = 32,
                 seed: int = 0) -> LyapunovEstimate:
    """gamma(A), exact, with nothing drawn: the one entry point for exponents.

    One state: `constant_exponent`.  A tight point lam* of more states
    (`tight_point`): a product of lower-triangular matrices has the
    exponents of its diagonal, so gamma(A_lambda) = max(E ln a, 0), and
    gamma(A) adds ln lam*.  Both have stderr 0 and import nothing.  Any
    other law: `lyapunov.top_lyapunov`, the midpoint of a word-sum bracket
    with its half-width as stderr.  steps, replicas and seed have no effect.
    """
    if envlaw.n_states == 1:
        value = constant_exponent(envlaw.state_moments[0])
    else:
        at = tight_point(envlaw)
        if at is None:
            from . import lyapunov
            return lyapunov.top_lyapunov(envlaw, "A", steps=steps, replicas=replicas, seed=seed)
        value = max(sum(w * math.log(m.mu_minus / (at * at * m.mu_plus))
                        for (w, _), m in zip(envlaw.states, envlaw.state_moments)),
                    0.0) + math.log(at)
    return LyapunovEstimate(value=value, stderr=0.0, steps=steps, replicas=replicas,
                            matrix_kind="A", method="closed_form")


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


class RegimeReport(NamedTuple):
    """Final verdict plus its evidence.  margin is the criterion gap in units of
    the exponent's stderr, signed so that positive favors global survival;
    closed-form verdicts and exact one-state exponents (stderr 0) carry an
    infinite margin."""

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


def classify(envlaw: EnvironmentLaw, exponent: Callable[[], LyapunovEstimate] | None = None,
             *, sigma_margin: float = 3.0) -> RegimeReport:
    """Decide the survival regime from the feasible set and one exponent.

    Empty feasible set -> strong local survival; 1 in the set -> global
    extinction; set inside (1, inf) or (0, 1) -> the gap drift - gamma_1 or
    -gamma_1 of gamma_1 = exponent().value.  Those two branches declare
    a side only beyond sigma_margin stderrs.
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
        est = exponent()
        gap = (drift if direction == "right" else 0.0) - est.value
        margin = _signed_margin(gap, est.stderr)
        regime = (GLOBAL_SURVIVAL_LOCAL_EXTINCTION if margin > sigma_margin
                  else GLOBAL_EXTINCTION if margin < -sigma_margin else INCONCLUSIVE)
    return RegimeReport(
        regime=regime, vanishing_direction=direction, lambda_set=interval,
        drift=drift, gamma1=est, margin=margin,
    )


def classify_environment(envlaw: EnvironmentLaw, *, seed: int = 0, steps: int = 100_000,
                         replicas: int = 32, sigma_margin: float = 3.0) -> RegimeReport:
    """classify(), with the one exponent its branch needs from top_exponent."""
    return classify(envlaw, lambda: top_exponent(envlaw, steps, replicas, seed),
                    sigma_margin=sigma_margin)
