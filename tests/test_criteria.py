import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from brwre import criteria
from brwre.criteria import (
    ConditionError,
    LambdaInterval,
    classify,
    classify_environment,
    expected_log_drift,
    lambda_feasible_set,
    one_in_feasible_set,
    state_feasible_interval,
)
from brwre.envmodel import (FEASIBILITY_TOL, EnvironmentLaw, MomentTriple, law_from_atoms,
                            reflected, validate_conditions)
from brwre.lyapunov import LyapunovEstimate, build_A_lambda
from brwre.simulator import survival_probabilities
from conftest import (
    CRITICAL_PAIR,
    GW_SUPERCRITICAL,
    SUBCRITICAL_BRANCHY,
    TREBLE_OR_DIE,
    single_env,
    two_state_env,
    valid_laws,
)
from test_spectral import rho_inf


# -- independent oracles -----------------------------------------------------


def interval_by_roots(m: MomentTriple) -> tuple[float, float] | None:
    """Companion-matrix roots of mu+ x^2 - (1-mu0) x + mu-: independent of
    the closed-form path under test."""
    r = np.roots([m.mu_plus, -(1.0 - m.mu_zero), m.mu_minus])
    if np.iscomplexobj(r) and np.abs(r.imag).max() > 1e-12:
        return None
    lo, hi = sorted(r.real)
    if hi <= 0.0:
        return None
    return float(lo), float(hi)


def interval_by_scan(m: MomentTriple, n: int = 200_001) -> tuple[float, float] | None:
    """Brute-force sublevel scan on a log grid."""
    lam = np.exp(np.linspace(math.log(1e-4), math.log(1e4), n))
    ok = m.mu_minus / lam + m.mu_zero + m.mu_plus * lam <= 1.0
    if not ok.any():
        return None
    hits = lam[ok]
    return float(hits[0]), float(hits[-1])


# -- per-state intervals -----------------------------------------------------


def test_interval_double_root_at_one():
    iv = state_feasible_interval(MomentTriple(0.5, 0.0, 0.5))
    assert iv.lo == pytest.approx(1.0, abs=1e-12)
    assert iv.hi == pytest.approx(1.0, abs=1e-12)


def test_interval_gw_example_matches_oracles():
    m = MomentTriple(1.2, 0.0, 0.05)
    iv = state_feasible_interval(m)
    lo, hi = interval_by_roots(m)
    assert iv.lo == pytest.approx(lo, rel=1e-12)
    assert iv.hi == pytest.approx(hi, rel=1e-12)
    # frozen values from the quadratic oracle
    assert iv.lo == pytest.approx(1.2822021129186534, rel=1e-12)
    assert iv.hi == pytest.approx(18.717797887081346, rel=1e-12)
    slo, shi = interval_by_scan(m)
    assert iv.lo == pytest.approx(slo, rel=1e-3)
    assert iv.hi == pytest.approx(shi, rel=1e-3)


def test_interval_empty_when_minimum_exceeds_one():
    # minimum value is mu0 + 2 sqrt(mu- mu+) = 1.5
    m = MomentTriple(0.5, 0.5, 0.5)
    assert state_feasible_interval(m).is_empty
    assert interval_by_scan(m) is None


def test_interval_rejects_degenerate_moments():
    with pytest.raises(ValueError):
        state_feasible_interval(MomentTriple(0.0, 0.0, 0.5))
    with pytest.raises(ValueError):
        state_feasible_interval(MomentTriple(0.5, 0.0, 0.0))
    # no child sent right: condition E fails, and the drift's log has no argument
    with pytest.raises(ValueError, match="log drift needs positive mu-, mu\\+"):
        expected_log_drift(single_env([(0.5, (2, 0, 0)), (0.5, (0, 0, 0))]))


# -- mixture intersection ----------------------------------------------------


def test_feasible_set_two_state_intersection():
    iv = lambda_feasible_set(two_state_env())
    # intersection of [1.51472, 18.48528] and [0.97624, 11.52376]
    a = interval_by_roots(MomentTriple(1.4, 0.0, 0.05))
    b = interval_by_roots(MomentTriple(0.9, 0.0, 0.08))
    assert iv.lo == pytest.approx(max(a[0], b[0]), rel=1e-12)
    assert iv.hi == pytest.approx(min(a[1], b[1]), rel=1e-12)
    assert iv.lo == pytest.approx(1.5147186257614305, rel=1e-12)
    assert iv.hi == pytest.approx(11.5237557774322, rel=1e-12)


def test_feasible_set_single_state():
    iv = lambda_feasible_set(single_env(SUBCRITICAL_BRANCHY))
    assert iv.lo == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert iv.hi == pytest.approx(6.0, rel=1e-12)


def test_feasible_set_empty_dominates_intersection():
    env = EnvironmentLaw(
        [
            (0.5, law_from_atoms(TREBLE_OR_DIE)),  # empty interval
            (0.5, law_from_atoms(GW_SUPERCRITICAL)),
        ]
    )
    assert lambda_feasible_set(env).is_empty


# -- drift -------------------------------------------------------------------


def test_drift_gw_example():
    assert expected_log_drift(single_env(GW_SUPERCRITICAL)) == pytest.approx(
        math.log(24.0), rel=1e-14
    )


def test_drift_symmetric_is_zero():
    assert expected_log_drift(single_env(CRITICAL_PAIR)) == pytest.approx(0.0, abs=1e-15)


def test_drift_two_state_mixture():
    expected = 0.5 * math.log(28.0) + 0.5 * math.log(11.25)
    assert expected_log_drift(two_state_env()) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(2.8762863194128165, rel=1e-12)


# -- classifier --------------------------------------------------------------


def _exact_estimate(value):
    return LyapunovEstimate(value=value, stderr=0.0, steps=10**6, replicas=2, matrix_kind="A",
                            method="closed_form")


def test_classify_strong_local_survival():
    rep = classify(single_env(TREBLE_OR_DIE))
    assert rep.regime == criteria.STRONG_LOCAL_SURVIVAL
    assert rep.vanishing_direction == "none"
    assert rep.lambda_set.is_empty
    assert rep.margin == math.inf


def test_classify_global_extinction_at_critical_point():
    rep = classify(single_env(CRITICAL_PAIR))
    assert rep.regime == criteria.GLOBAL_EXTINCTION
    assert rep.vanishing_direction == "both"
    assert rep.lambda_set.lo <= 1.0 <= rep.lambda_set.hi


def test_classify_global_extinction_interval_straddles_one():
    rep = classify(single_env(SUBCRITICAL_BRANCHY))
    assert rep.regime == criteria.GLOBAL_EXTINCTION
    assert rep.vanishing_direction == "both"


def test_classify_survival_with_local_extinction():
    # constant environment: top exponent is ln of the top eigenvalue
    gamma = _exact_estimate(math.log(18.717797887081346))
    rep = classify(single_env(GW_SUPERCRITICAL), lambda: gamma)
    assert rep.regime == criteria.GLOBAL_SURVIVAL_LOCAL_EXTINCTION
    assert rep.vanishing_direction == "right"
    assert rep.margin == math.inf


def test_classify_extinction_when_exponent_dominates():
    gamma = _exact_estimate(math.log(24.0) + 0.5)
    rep = classify(single_env(GW_SUPERCRITICAL), lambda: gamma)
    assert rep.regime == criteria.GLOBAL_EXTINCTION
    assert rep.vanishing_direction == "right"


def test_classify_inconclusive_inside_margin():
    gamma = LyapunovEstimate(
        value=math.log(24.0) - 0.001, stderr=0.01, steps=10**4, replicas=4, matrix_kind="A",
        method="word_sum",
    )
    rep = classify(single_env(GW_SUPERCRITICAL), lambda: gamma)
    assert rep.regime == criteria.INCONCLUSIVE
    assert abs(rep.margin) < 3.0


def test_classify_requires_estimate_on_statistical_branch():
    with pytest.raises(ValueError, match="needs"):
        classify(single_env(GW_SUPERCRITICAL))


def test_classify_rejects_failing_conditions():
    env = single_env([(0.6, (1, 0, 0)), (0.4, (0, 0, 0))])  # mu+ = 0
    with pytest.raises(ConditionError) as err:
        classify(env)
    assert not err.value.report.cond_e


def test_remark_precedence_when_one_is_an_endpoint():
    # roots {1, 4}: the set extends above 1 but contains it, so the
    # mean-offspring remark wins over the right-vanishing branch
    env = single_env([(0.4, (2, 0, 0)), (0.2, (0, 0, 1)), (0.4, (0, 0, 0))])
    iv = lambda_feasible_set(env)
    assert iv.lo == pytest.approx(1.0, abs=1e-12)
    assert iv.hi == pytest.approx(4.0, rel=1e-12)
    assert one_in_feasible_set(env)
    rep = classify(env, lambda: _exact_estimate(0.0))
    assert rep.regime == criteria.GLOBAL_EXTINCTION
    assert rep.vanishing_direction == "both"


# (0.7 + 5e-10, 0, 0.3): lam = 1 fails the inequality by 5e-10, inside the
# membership tolerance, while the lower root 1 + 1.25e-9 clears 1 + tol
NEAR_CRITICAL_RIGHT = [(0.35 + 2.5e-10, (2, 0, 0)), (0.3, (0, 0, 1)), (0.35 - 2.5e-10, (0, 0, 0))]


@pytest.mark.parametrize("env, direction", [
    (single_env(TREBLE_OR_DIE), "none"),
    (single_env(CRITICAL_PAIR), "both"),
    (single_env(GW_SUPERCRITICAL), "right"),
    (reflected(single_env(GW_SUPERCRITICAL)), "left"),
    (single_env(NEAR_CRITICAL_RIGHT), "both"),
], ids=["none", "both", "right", "left", "near-critical"])
def test_vanishing_direction_is_the_classifier_branch(env, direction):
    assert criteria.vanishing_direction(env) == direction
    rep = classify(env, lambda: _exact_estimate(0.0))
    assert rep.vanishing_direction == direction


def test_classify_environment_computes_needed_estimate():
    rep = classify_environment(single_env(GW_SUPERCRITICAL), seed=5, steps=10_000, replicas=4)
    assert rep.regime == criteria.GLOBAL_SURVIVAL_LOCAL_EXTINCTION
    assert rep.gamma1 is not None and rep.gamma1.matrix_kind == "A"


def test_classify_environment_left_branch_uses_mirror_family():
    env = reflected(single_env(GW_SUPERCRITICAL))
    rep = classify_environment(env, seed=5, steps=10_000, replicas=4)
    assert rep.regime == criteria.GLOBAL_SURVIVAL_LOCAL_EXTINCTION
    assert rep.vanishing_direction == "left"
    assert rep.gamma1 is not None and rep.gamma1.matrix_kind == "A"


# -- interval properties -----------------------------------------------------

_feasible_moments = st.tuples(
    st.floats(0.05, 3.0), st.floats(0.0, 0.8), st.floats(0.05, 3.0)
).map(lambda t: MomentTriple(t[0], t[1], t[2]))


@given(_feasible_moments, st.floats(0.0, 1.0))
def test_interval_is_sublevel_set(m, frac):
    iv = state_feasible_interval(m)
    assume(not iv.is_empty)
    lam = iv.lo + frac * (iv.hi - iv.lo)
    assert 1.0 - m.slack(lam) <= 1.0 + 1e-9


@given(_feasible_moments)
def test_outside_interval_fails_inequality(m):
    iv = state_feasible_interval(m)
    assume(not iv.is_empty)
    for lam in (iv.lo * (1.0 - 2e-6), iv.hi * (1.0 + 2e-6)):
        assert 1.0 - m.slack(lam) > 1.0


@given(_feasible_moments)
def test_vieta_endpoint_product(m):
    iv = state_feasible_interval(m)
    assume(not iv.is_empty)
    assert iv.lo * iv.hi == pytest.approx(m.mu_minus / m.mu_plus, rel=1e-9)


@given(_feasible_moments)
def test_mirror_maps_interval_to_reciprocal(m):
    iv = state_feasible_interval(m)
    mirrored = state_feasible_interval(MomentTriple(m.mu_plus, m.mu_zero, m.mu_minus))
    if iv.is_empty:
        assert mirrored.is_empty
    else:
        assert mirrored.lo == pytest.approx(1.0 / iv.hi, rel=1e-9)
        assert mirrored.hi == pytest.approx(1.0 / iv.lo, rel=1e-9)


def test_mirror_negates_drift_and_swaps_direction():
    env = single_env(GW_SUPERCRITICAL)
    menv = reflected(env)
    assert expected_log_drift(menv) == pytest.approx(-expected_log_drift(env), rel=1e-14)
    # the exact exponents: ln hi of the law's interval, and ln(1/lo) for the
    # mirror's [1/hi, 1/lo]; both gaps are ln lo
    iv = state_feasible_interval(env.state_moments[0])
    gamma, gamma_m = _exact_estimate(math.log(iv.hi)), _exact_estimate(-math.log(iv.lo))
    right = classify(env, lambda: gamma)
    left = classify(menv, lambda: gamma_m)
    assert right.regime == left.regime == criteria.GLOBAL_SURVIVAL_LOCAL_EXTINCTION
    assert (right.vanishing_direction, left.vanishing_direction) == ("right", "left")


def test_interval_intersection_algebra():
    # overlapping per-state intervals [0.5, 2] and [1, 4] meet in [1, 2]: the
    # max of the lower ends and the min of the upper ends
    wide = [(0.2, (2, 0, 0)), (0.4, (0, 0, 1)), (0.4, (0, 0, 0))]  # mu = (0.4, 0, 0.4)
    narrow = [(0.4, (2, 0, 0)), (0.2, (0, 0, 1)), (0.4, (0, 0, 0))]  # mu = (0.8, 0, 0.2)
    iv = lambda_feasible_set(EnvironmentLaw(
        [(0.5, law_from_atoms(wide)), (0.5, law_from_atoms(narrow))]))
    assert (iv.lo, iv.hi) == (state_feasible_interval(MomentTriple(0.8, 0.0, 0.2)).lo,
                              state_feasible_interval(MomentTriple(0.4, 0.0, 0.4)).hi)
    assert iv.lo == pytest.approx(1.0, abs=1e-12) and iv.hi == pytest.approx(2.0, rel=1e-12)
    # [0.25, 1] and GW_SUPERCRITICAL's [1.28, 18.7] are disjoint, neither empty
    low = [(0.2, (1, 0, 0)), (0.4, (0, 0, 2)), (0.4, (0, 0, 0))]  # mu = (0.2, 0, 0.8)
    disjoint = EnvironmentLaw([(0.5, law_from_atoms(low)), (0.5, law_from_atoms(GW_SUPERCRITICAL))])
    assert not any(state_feasible_interval(m).is_empty for m in disjoint.state_moments)
    assert lambda_feasible_set(disjoint).is_empty


# -- the mirror and the one feasibility decision -----------------------------


def _distance_to_decision_boundary(env: EnvironmentLaw, margin: float) -> float:
    """Least distance of a closed-form decision quantity, or of |margin|, from
    the threshold it is compared with."""
    gaps = [abs(abs(margin) - 3.0)] if math.isfinite(margin) else []
    ivs = []
    for m in env.state_moments:
        b = 1.0 - m.mu_zero
        gaps += [abs(b), abs(b * b - 4.0 * m.mu_minus * m.mu_plus),
                 abs(m.slack(1.0) + FEASIBILITY_TOL)]
        ivs.append(state_feasible_interval(m))
    if not any(iv.is_empty for iv in ivs):
        lo, hi = max(iv.lo for iv in ivs), min(iv.hi for iv in ivs)
        gaps += [abs(hi - lo), abs(lo - 1.0 - FEASIBILITY_TOL), abs(hi - 1.0 + FEASIBILITY_TOL)]
    return min(gaps)


_MIRRORED = {"right": "left", "left": "right", "both": "both", "none": "none"}


def _gap(rep) -> float:
    """The classifier's gap, margin x stderr: drift - gamma_1 on the right, -gamma_1 on the left."""
    return (rep.drift if rep.vanishing_direction == "right" else 0.0) - rep.gamma1.value


# 8 to 16 replicas: with 2 to 4 the replica stderr is too rough for the gap
# comparison on multi-state laws (2 failures in 1,213 statistical draws)
@settings(max_examples=40, deadline=None)
@given(valid_laws(), st.integers(8, 16), st.integers(0, 2**32))
# two states with one A matrix: the replica stderr reads 0 here and 1.6e-16 on the mirror
@example(EnvironmentLaw([
    (2 / 3, law_from_atoms([(0.003125, (2, 0, 0)), (0.046875, (0, 0, 2)), (0.95, (0, 1, 0))])),
    (1 / 3, law_from_atoms([(0.03125, (2, 0, 0)), (0.46875, (0, 0, 2)), (0.5, (0, 1, 0))]))]),
    2, 1)
def test_mirror_law_gives_the_mirrored_classification(env, replicas, seed):
    assume(any(sum(v) >= 2 for law in env.laws for _, v in law.atoms))
    menv = reflected(env)
    kw = dict(steps=1000, replicas=replicas, seed=seed)
    rep, mrep = classify_environment(env, **kw), classify_environment(menv, **kw)
    assume(_distance_to_decision_boundary(env, rep.margin) > 1e-9)
    assert mrep.vanishing_direction == _MIRRORED[rep.vanishing_direction]
    iv, miv = rep.lambda_set, mrep.lambda_set
    assert miv.is_empty == iv.is_empty
    if not iv.is_empty:
        assert math.isclose(miv.lo, 1.0 / iv.hi, rel_tol=1e-9)
        assert math.isclose(miv.hi, 1.0 / iv.lo, rel_tol=1e-9)
    assert math.isclose(mrep.drift, -rep.drift, rel_tol=1e-12, abs_tol=1e-15)
    if rep.gamma1 is None or env.n_states == 1:
        # closed-form verdicts, and one-state exponents, which are exact
        assert mrep.regime == rep.regime
        assert math.isclose(mrep.margin, rep.margin, rel_tol=1e-9)
    else:
        # the mirror's A draw is a draw of the law's mirror exponent gamma(A) - drift,
        # not of gamma(A), so the two gaps agree in distribution only
        tol = 3.0 * math.hypot(rep.gamma1.stderr, mrep.gamma1.stderr) + 20.0 / kw["steps"]
        assert abs(_gap(mrep) - _gap(rep)) <= tol


_REGIME_RANK = {criteria.GLOBAL_EXTINCTION: 0, criteria.GLOBAL_SURVIVAL_LOCAL_EXTINCTION: 1,
                criteria.STRONG_LOCAL_SURVIVAL: 2}


# domination: one more child on one atom raises that state's means, so every
# slack falls pointwise, the feasible set can only shrink and the regime can
# only rise
@settings(max_examples=300, deadline=None)
@given(valid_laws(), st.data())
def test_an_extra_child_never_enlarges_the_feasible_set(env, data):
    s = data.draw(st.integers(0, env.n_states - 1), label="state")
    weight, law = env.states[s]
    a = data.draw(st.integers(0, len(law.atoms) - 1), label="atom")
    grown = list(law.atoms[a][1])
    grown[data.draw(st.integers(0, 2), label="component")] += 1
    assume(all(tuple(v) != tuple(grown) for _, v in law.atoms))
    atoms = [(p, tuple(grown) if i == a else tuple(v)) for i, (p, v) in enumerate(law.atoms)]
    more = EnvironmentLaw([(weight, law_from_atoms(atoms)) if i == s else state
                           for i, state in enumerate(env.states)])
    # within 1e-6 of the window limit 1 the tolerance decides, as in
    # test_spectral's test of the feasible set against that limit
    assume(abs(rho_inf(env) - 1.0) > 1e-6 and abs(rho_inf(more) - 1.0) > 1e-6)
    before, after = lambda_feasible_set(env), lambda_feasible_set(more)
    if before.is_empty:
        assert after.is_empty
    elif not after.is_empty:
        assert before.lo <= after.lo <= after.hi <= before.hi
    if criteria.vanishing_direction(env) == "none":
        assert criteria.vanishing_direction(more) == "none"
    # one more child keeps condition B, but env may fail it where more does not
    if validate_conditions(env).ok:
        regime, more_regime = classify_environment(env).regime, classify_environment(more).regime
        if criteria.INCONCLUSIVE not in (regime, more_regime):
            assert _REGIME_RANK[more_regime] >= _REGIME_RANK[regime]


def test_one_feasibility_decision_at_the_tolerance():
    # NEAR_CRITICAL_RIGHT (tests/test_cli.py's NEAR_CRITICAL_ENV) misses lam = 1
    # by a slack of -5e-10, inside the tolerance; moving 7.5e-10 more mass onto
    # its first atom makes that slack -2e-9, outside it
    inside = single_env(NEAR_CRITICAL_RIGHT)
    outside = single_env([(0.35 + 1e-9, (2, 0, 0)), (0.3, (0, 0, 1)), (0.35 - 1e-9, (0, 0, 0))])
    assert inside.state_moments[0].slack(1.0) == pytest.approx(-5e-10, rel=1e-6)
    assert outside.state_moments[0].slack(1.0) == pytest.approx(-2e-9, rel=1e-6)

    assert one_in_feasible_set(inside)
    assert build_A_lambda(inside.state_moments[0], 1.0).min() >= 0.0
    assert survival_probabilities(inside, trials=100, horizon=5, seed=1, lam=1.0).trace.lam == 1.0

    assert not one_in_feasible_set(outside)
    with pytest.raises(ValueError, match="infeasible"):
        build_A_lambda(outside.state_moments[0], 1.0)
    with pytest.raises(ValueError, match="infeasible"):
        survival_probabilities(outside, trials=100, horizon=5, seed=1, lam=1.0)
