"""End-to-end acceptance checks against closed-form oracles.

Every expected value here is recomputed by an independent oracle in this
file (quadratic roots, eigenvalues, generating-function fixed points,
Toeplitz eigenvalue formulas) before being compared to the estimators.
Each check prints one PASS line; run with `pytest tests/test_acceptance.py -v -s`.
"""
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from brwre import criteria
from brwre.criteria import classify_environment, expected_log_drift, lambda_feasible_set
from brwre.envmodel import MomentTriple
from brwre.lyapunov import build_A, top_lyapunov, word_sum
from brwre.simulator import frozen_mean_profile, survival_probabilities
from brwre.spectral import rho_sweep
from conftest import (
    CRITICAL_PAIR,
    GW_SUPERCRITICAL,
    SUBCRITICAL_BRANCHY,
    TREBLE_OR_DIE,
    conjugacy_residual,
    gw_extinction_probability,
    single_env,
    two_state_env,
)


@dataclass(frozen=True)
class Timed:
    value: object
    seconds: float


def timed(fn) -> Timed:
    t0 = time.perf_counter()
    value = fn()
    return Timed(value, time.perf_counter() - t0)


def say(n: int, message: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {message}")


# -- shared expensive fixtures -------------------------------------------------


@pytest.fixture(scope="module")
def gamma_const():
    """Constant-environment exponent for moments (1.2, 0, 0.05)."""
    return timed(
        lambda: top_lyapunov(single_env(GW_SUPERCRITICAL), "A", steps=100_000, replicas=32, seed=2)
    )


@pytest.fixture(scope="module")
def gamma_sub():
    """Constant-environment exponent for moments (0.6, 0, 0.15)."""
    return timed(
        lambda: top_lyapunov(single_env(SUBCRITICAL_BRANCHY), "A", steps=100_000, replicas=32, seed=2)
    )


@pytest.fixture(scope="module")
def gamma_two_state():
    return timed(
        lambda: top_lyapunov(two_state_env(), "A", steps=100_000, replicas=32, seed=21)
    )


@pytest.fixture(scope="module")
def gw_survival_run():
    return timed(
        lambda: survival_probabilities(
            single_env(GW_SUPERCRITICAL), trials=10_000, horizon=400, cap=10**6,
            env_seed=51, seed=52,
        )
    )


@pytest.fixture(scope="module")
def treble_survival_run():
    return timed(
        lambda: survival_probabilities(
            single_env(TREBLE_OR_DIE), trials=10_000, horizon=400, cap=10**6,
            env_seed=51, seed=52,
        )
    )


@pytest.fixture(scope="module")
def const_profile():
    return timed(
        lambda: frozen_mean_profile(single_env(GW_SUPERCRITICAL), 101, 20, 10_000, seed=31)
    )


@pytest.fixture(scope="module")
def two_state_profile():
    return timed(lambda: frozen_mean_profile(two_state_env(), 101, 20, 10_000, seed=31))


# -- 1: regime table -----------------------------------------------------------


def test_acceptance_1_regime_table():
    def classify_all():
        reports = {}
        reports["treble"] = classify_environment(single_env(TREBLE_OR_DIE), seed=4)
        reports["critical"] = classify_environment(single_env(CRITICAL_PAIR), seed=4)
        reports["subcritical"] = classify_environment(single_env(SUBCRITICAL_BRANCHY), seed=4)
        reports["gw"] = classify_environment(
            single_env(GW_SUPERCRITICAL), seed=4, steps=20_000, replicas=4
        )
        return reports

    out = timed(classify_all)
    r = out.value

    assert r["treble"].regime == criteria.STRONG_LOCAL_SURVIVAL
    assert r["treble"].lambda_set.is_empty

    assert r["critical"].regime == criteria.GLOBAL_EXTINCTION
    assert r["critical"].lambda_set.lo == pytest.approx(1.0, abs=1e-9)
    assert r["critical"].lambda_set.hi == pytest.approx(1.0, abs=1e-9)

    assert r["subcritical"].regime == criteria.GLOBAL_EXTINCTION
    assert r["subcritical"].lambda_set.lo == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert r["subcritical"].lambda_set.hi == pytest.approx(6.0, rel=1e-12)
    assert r["subcritical"].lambda_set.lo <= 1.0 <= r["subcritical"].lambda_set.hi

    assert r["gw"].regime == criteria.GLOBAL_SURVIVAL_LOCAL_EXTINCTION
    assert r["gw"].vanishing_direction == "right"

    assert out.seconds < 1.0
    say(1, f"four regime verdicts exact in {out.seconds:.2f}s")


# -- 2: constant-environment Lyapunov oracle -----------------------------------


def test_acceptance_2_lyapunov_oracle(gamma_const, gamma_sub):
    # eigenvalue oracle for the two constant environments
    oracle_gw = math.log(np.abs(np.linalg.eigvals(build_A(MomentTriple(1.2, 0.0, 0.05)))).max())
    oracle_sub = math.log(np.abs(np.linalg.eigvals(build_A(MomentTriple(0.6, 0.0, 0.15)))).max())
    assert oracle_gw == pytest.approx(math.log(18.717797887081346), rel=1e-12)
    assert oracle_sub == pytest.approx(math.log(6.0), rel=1e-12)

    for est, oracle in ((gamma_const.value, oracle_gw), (gamma_sub.value, oracle_sub)):
        assert est.stderr < 0.01
        # a constant environment's exponent is a closed form whose stderr is a
        # certified half-width: the oracle lies within it, up to the eigvals roundoff
        assert abs(est.value - oracle) <= est.stderr + 1e-14

    elapsed = gamma_const.seconds + gamma_sub.seconds
    assert elapsed < 10.0
    say(2, f"gamma1 within its half-width of ln(top eigenvalue) for both laws in {elapsed:.2f}s")


# -- 3: conjugacy and the exponent shift -----------------------------------------


def test_acceptance_3_conjugacy_and_sum_rule(gamma_two_state):
    rng = np.random.default_rng(33)
    accepted = 0
    while accepted < 100:
        m = MomentTriple(
            float(rng.uniform(0.05, 3.0)),
            float(rng.uniform(0.0, 0.8)),
            float(rng.uniform(0.05, 3.0)),
        )
        iv = criteria.state_feasible_interval(m)
        if iv.is_empty:
            continue
        frac = float(rng.uniform(0.0, 1.0))
        lam = math.exp(math.log(iv.lo) + frac * (math.log(iv.hi) - math.log(iv.lo)))
        scale = 1.0 + float(np.abs(build_A(m)).max())
        assert conjugacy_residual(m, lam) <= 1e-9 * scale
        accepted += 1

    env = two_state_env()
    gamma = gamma_two_state.value
    shifted = {}
    for lam in (2.0, 5.0):
        # the word sum of A_lambda, the certificate of gamma(A), with its half-width
        value, half = word_sum(env, lam)
        shifted[lam] = (value + math.log(lam), half)
        # the two error bounds, and 1e-14 for the rounding of the shift
        assert abs(gamma.value - shifted[lam][0]) <= gamma.stderr + half + 1e-14

    # the shift identity at two lambdas: gamma(A_lambda) + ln lambda does not depend on lambda
    (fa, half_a), (fb, half_b) = shifted[2.0], shifted[5.0]
    assert abs(fa - fb) <= half_a + half_b + 1e-14
    say(3, "conjugacy residuals <= 1e-9 on 100 pairs; exponent shift and "
           "lambda-independence hold within the error bounds")


# -- 4: spectral sweep against the Toeplitz formula ------------------------------


def test_acceptance_4_spectral_sweep():
    def sweep_both():
        treble = rho_sweep(single_env(TREBLE_OR_DIE), 0, list(range(1, 11)))
        critical = rho_sweep(single_env(CRITICAL_PAIR), 0, list(range(1, 11)))
        return treble, critical

    out = timed(sweep_both)
    treble, critical = out.value

    for n, rho in treble:
        oracle = 0.5 + math.cos(math.pi / (2 * n + 2))
        assert abs(rho - oracle) <= 1e-8
    values = [rho for _, rho in treble]
    assert all(a <= b + 1e-10 for a, b in zip(values, values[1:]))
    assert dict(treble)[2] > 1.0
    assert dict(treble)[10] == pytest.approx(1.4898214418809327, abs=1e-8)

    for n, rho in critical:
        assert rho < 1.0
        assert abs(rho - math.cos(math.pi / (2 * n + 2))) <= 1e-8

    assert out.seconds < 1.0
    say(4, f"window roots match the closed form to 1e-8 in {out.seconds:.2f}s")


# -- 5 and 6: Monte Carlo survival vs branching oracles --------------------------


def test_acceptance_5_survival_frequencies(gw_survival_run, treble_survival_run):
    q_gw = gw_extinction_probability(GW_SUPERCRITICAL)
    assert q_gw == pytest.approx(7.0 / 12.0, abs=1e-12)
    est = gw_survival_run.value
    assert abs(est.global_freq - (1.0 - q_gw)) <= 0.02

    q_treble = gw_extinction_probability(TREBLE_OR_DIE)
    assert q_treble == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=1e-12)
    est2 = treble_survival_run.value
    assert abs(est2.global_freq - (1.0 - q_treble)) <= 0.02

    elapsed = gw_survival_run.seconds + treble_survival_run.seconds
    assert elapsed < 60.0
    say(5, f"survival {est.global_freq:.4f} vs 5/12 and {est2.global_freq:.4f} vs "
           f"{1-q_treble:.4f}, both within 0.02, in {elapsed:.1f}s")


def test_acceptance_6_local_extinction_concordance(gw_survival_run):
    est = gw_survival_run.value
    assert est.local_proxy_freq <= 0.01
    assert abs(est.global_freq - 5.0 / 12.0) <= 0.02
    say(6, f"global survival {est.global_freq:.4f} with local proxy "
           f"{est.local_proxy_freq:.4f} <= 0.01")


# -- 7: frozen-mean identity ------------------------------------------------------


def test_acceptance_7_frozen_mean_identity(const_profile, two_state_profile, gamma_const,
                                           gamma_two_state):
    # constant environment: the frozen mean solves mu+ m^2 - m + mu- = 0
    root = float(min(np.roots([0.05, -1.0, 1.2]).real))
    assert root == pytest.approx(1.2822021129186527, rel=1e-12)
    profile = const_profile.value
    assert abs(profile.log_average - math.log(root)) <= 0.01

    gamma = gamma_const.value
    target = expected_log_drift(single_env(GW_SUPERCRITICAL)) - gamma.value
    tol = 3.0 * math.hypot(profile.log_average_stderr, gamma.stderr)
    assert abs(profile.log_average - target) <= max(tol, 2e-3)

    env2 = two_state_env()
    profile2 = two_state_profile.value
    gamma2 = gamma_two_state.value
    target2 = expected_log_drift(env2) - gamma2.value
    tol2 = 3.0 * math.hypot(profile2.log_average_stderr, gamma2.stderr)
    assert abs(profile2.log_average - target2) <= tol2

    verdict = criteria.classify(env2, lambda: gamma2)
    assert verdict.regime == criteria.GLOBAL_SURVIVAL_LOCAL_EXTINCTION
    assert profile2.log_average > 0.0  # positive iff global survival
    say(7, f"log frozen means {profile.log_average:.5f} (const) and "
           f"{profile2.log_average:.5f} (two-state) match drift - gamma1")


# -- 8: supermartingale property ---------------------------------------------------


def test_acceptance_8_supermartingale_property():
    env = single_env(GW_SUPERCRITICAL)
    for lam, seed in ((2.0, 61), (10.0, 62)):
        trace = survival_probabilities(env, trials=10_000, horizon=50, env_seed=101, seed=seed,
                                       lam=lam).trace
        z = np.where(
            trace.diff_stderr > 0,
            trace.diff_mean / trace.diff_stderr,
            np.where(trace.diff_mean > 0, np.inf, 0.0),
        )
        assert float(np.max(z)) <= 3.0, f"lambda={lam}"
    say(8, "weighted-population means nonincreasing at 3 sigma for lambda 2 and 10")


# -- 9: per-level bound -------------------------------------------------------------


def test_acceptance_9_per_level_bound(const_profile, two_state_profile):
    cases = (
        (const_profile.value, lambda_feasible_set(single_env(GW_SUPERCRITICAL)).hi),
        (two_state_profile.value, lambda_feasible_set(two_state_env()).hi),
    )
    for profile, lam_hi in cases:
        assert len(profile.levels) == 20
        rel = profile.level_stderrs / profile.level_means
        bound = lam_hi * (1.0 + 3.0 * rel)
        assert np.all(profile.level_means <= bound)
    say(9, "every frozen level mean respects the top-feasible-lambda bound")


# -- 10: strong local coincidence ----------------------------------------------------


def test_acceptance_10_strong_local_coincidence(treble_survival_run):
    est = treble_survival_run.value
    tol = 3.0 * math.hypot(est.global_stderr, est.local_proxy_stderr)
    assert abs(est.global_freq - est.local_proxy_freq) <= tol
    say(10, f"global {est.global_freq:.4f} and local {est.local_proxy_freq:.4f} "
            f"frequencies coincide within 3 sigma")
