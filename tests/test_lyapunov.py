import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from brwre.criteria import lambda_feasible_set, state_feasible_interval
from brwre.envmodel import EnvironmentLaw, MomentTriple, law_from_atoms, reflected
from brwre.lyapunov import (
    _log_norm_of_product,
    _ProductReduction,
    build_A,
    build_A_lambda,
    build_A_tilde,
    conjugacy_matrix,
    conjugacy_residual,
    second_exponent_via_det,
    state_matrices,
    top_lyapunov,
)
from conftest import GW_SUPERCRITICAL, SUBCRITICAL_BRANCHY, single_env, two_state_env


def log_spectral_radius(mat: np.ndarray) -> float:
    """Eigenvalue oracle for constant environments."""
    return math.log(np.abs(np.linalg.eigvals(mat)).max())


# -- matrix builders ---------------------------------------------------------


def test_build_A_gw_example():
    a = build_A(MomentTriple(1.2, 0.0, 0.05))
    np.testing.assert_allclose(a, [[20.0, -24.0], [1.0, 0.0]], rtol=1e-14)


def test_build_A_symmetric_example():
    a = build_A(MomentTriple(0.5, 0.0, 0.5))
    np.testing.assert_allclose(a, [[2.0, -1.0], [1.0, 0.0]], rtol=1e-15)


def test_build_A_rejects_zero_right_mean():
    with pytest.raises(ValueError):
        build_A(MomentTriple(1.0, 0.0, 0.0))


def test_build_A_tilde_gw_example():
    a = build_A_tilde(MomentTriple(1.2, 0.0, 0.05))
    np.testing.assert_allclose(a, [[1.0 / 1.2, -0.05 / 1.2], [1.0, 0.0]], rtol=1e-14)


def test_build_A_tilde_equals_A_for_symmetric_law():
    m = MomentTriple(0.7, 0.1, 0.7)
    np.testing.assert_array_equal(build_A(m), build_A_tilde(m))


def test_build_A_lambda_critical_point_is_unipotent():
    a = build_A_lambda(MomentTriple(0.5, 0.0, 0.5), 1.0)
    np.testing.assert_array_equal(a, [[1.0, 0.0], [1.0, 1.0]])


def test_build_A_lambda_gw_example():
    a = build_A_lambda(MomentTriple(1.2, 0.0, 0.05), 2.0)
    np.testing.assert_allclose(a, [[6.0, 3.0], [6.0, 4.0]], rtol=1e-13)


def test_build_A_lambda_rejects_infeasible():
    with pytest.raises(ValueError, match="infeasible"):
        build_A_lambda(MomentTriple(1.2, 0.0, 0.05), 100.0)
    with pytest.raises(ValueError, match="positive"):
        build_A_lambda(MomentTriple(1.2, 0.0, 0.05), -1.0)


_moments = st.tuples(
    st.floats(0.05, 3.0), st.floats(0.0, 0.8), st.floats(0.05, 3.0)
).map(lambda t: MomentTriple(*t))


@given(_moments)
def test_determinants_of_raw_families(m):
    assert np.linalg.det(build_A(m)) == pytest.approx(m.mu_minus / m.mu_plus, rel=1e-10)
    assert np.linalg.det(build_A_tilde(m)) == pytest.approx(m.mu_plus / m.mu_minus, rel=1e-10)


@st.composite
def feasible_pairs(draw):
    m = draw(_moments)
    iv = state_feasible_interval(m)
    assume(not iv.is_empty)
    frac = draw(st.floats(0.0, 1.0))
    lam = math.exp(math.log(iv.lo) + frac * (math.log(iv.hi) - math.log(iv.lo)))
    return m, lam


@given(feasible_pairs())
def test_det_A_lambda(pair):
    m, lam = pair
    expected = m.mu_minus / (lam * lam * m.mu_plus)
    assert np.linalg.det(build_A_lambda(m, lam)) == pytest.approx(expected, rel=1e-9)


@given(feasible_pairs())
@settings(max_examples=100)
def test_conjugacy_residual_sweep(pair):
    m, lam = pair
    scale = 1.0 + np.abs(build_A(m)).max()
    assert conjugacy_residual(m, lam) <= 1e-9 * scale


def test_conjugacy_residual_worked_examples():
    assert conjugacy_residual(MomentTriple(0.5, 0.0, 0.5), 1.0) <= 1e-12
    assert conjugacy_residual(MomentTriple(1.2, 0.0, 0.05), 2.0) <= 1e-12


def test_conjugacy_matrix_shape():
    b = conjugacy_matrix(2.0)
    np.testing.assert_array_equal(b, [[1.0, -2.0], [1.0, 0.0]])


# -- exponent estimation -----------------------------------------------------


def test_top_lyapunov_constant_env_matches_eigenvalue():
    env = single_env(GW_SUPERCRITICAL)
    est = top_lyapunov(env, "A", steps=20_000, replicas=4, seed=3)
    oracle = log_spectral_radius(build_A(MomentTriple(1.2, 0.0, 0.05)))
    assert oracle == pytest.approx(math.log(18.717797887081346), rel=1e-12)
    assert est.value == pytest.approx(oracle, abs=1e-3)
    assert est.stderr == 0.0  # identical replicas in a constant environment


def test_top_lyapunov_subcritical_constant_env():
    env = single_env(SUBCRITICAL_BRANCHY)
    est = top_lyapunov(env, "A", steps=20_000, replicas=4, seed=3)
    assert est.value == pytest.approx(math.log(6.0), abs=1e-3)


def test_top_lyapunov_unipotent_grows_polynomially():
    # the critical-point matrix powers grow linearly, so log/steps -> 0
    env = single_env([(0.5, (1, 0, 1)), (0.5, (0, 0, 0))])
    est = top_lyapunov(env, "A_lambda", steps=10_000, replicas=4, seed=3, lam=1.0)
    assert 0.0 <= est.value <= 2.0 * math.log(10_000) / 10_000


def test_top_lyapunov_enforces_preconditions():
    env = single_env(GW_SUPERCRITICAL)
    with pytest.raises(ValueError):
        top_lyapunov(env, "A", steps=100, replicas=4)
    with pytest.raises(ValueError):
        top_lyapunov(env, "A", steps=10_000, replicas=1)
    with pytest.raises(ValueError):
        top_lyapunov(env, "A_lambda", steps=10_000, replicas=4, lam=100.0)
    with pytest.raises(ValueError):
        top_lyapunov(env, "bogus", steps=10_000, replicas=4)


def test_top_lyapunov_deterministic():
    env = two_state_env()
    a = top_lyapunov(env, "A", steps=5_000, replicas=4, seed=9)
    b = top_lyapunov(env, "A", steps=5_000, replicas=4, seed=9)
    assert a == b


def test_top_lyapunov_workers_do_not_change_result():
    env = two_state_env()
    a = top_lyapunov(env, "A", steps=5_000, replicas=4, seed=9)
    b = top_lyapunov(env, "A", steps=5_000, replicas=4, seed=9, n_workers=4)
    assert a == b


@st.composite
def walk_laws(draw):
    """1 to 4 states, each stepping left w.p. pl and right w.p. pr, else dying."""
    n_states = draw(st.integers(1, 4))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=n_states, max_size=n_states))
    states = []
    for w in raw:
        pl, pr = draw(st.floats(0.05, 0.45)), draw(st.floats(0.05, 0.45))
        law = law_from_atoms([(pl, (1, 0, 0)), (pr, (0, 0, 1)), (1.0 - pl - pr, (0, 0, 0))])
        states.append((w / sum(raw), law))
    return EnvironmentLaw(states)


def _unequal_three_states() -> EnvironmentLaw:
    laws = [law_from_atoms([(pl, (1, 0, 0)), (0.3, (0, 0, 1)), (0.7 - pl, (0, 0, 0))])
            for pl in (0.1, 0.2, 0.3)]
    return EnvironmentLaw(list(zip((0.1, 0.2, 0.7), laws)))


@given(env=walk_laws(), kind=st.sampled_from(["A", "A_tilde", "A_lambda"]),
       steps=st.integers(1_000, 5_000), seed=st.integers(0, 2**32 - 1))
@example(env=_unequal_three_states(), kind="A", steps=1_001, seed=7)
def test_pair_table_reduction_matches_matmul_oracle(env, kind, steps, seed):
    lam = None
    if kind == "A_lambda":
        interval = lambda_feasible_set(env)
        assume(not interval.is_empty)
        lam = math.sqrt(interval.lo * interval.hi)
    table = state_matrices(env, kind, lam)
    reduce = _ProductReduction(table, env.weights, steps)
    values = []
    for r in range(2):
        idx = reduce.draw(np.random.default_rng([seed, r]))
        expected = np.random.default_rng([seed, r]).choice(env.n_states, size=steps, p=env.weights)
        np.testing.assert_array_equal(idx, expected)
        oracle = _log_norm_of_product(table[idx]) / steps
        values.append(reduce(idx) / steps)
        assert values[-1] == pytest.approx(oracle, rel=1e-12, abs=0.0)
    if env.n_states > 1:
        est = top_lyapunov(env, kind, steps=steps, replicas=2, seed=seed, lam=lam)
        assert est.value == float(np.mean(values))


@pytest.mark.parametrize("steps", [20_000, 20_001])
def test_constant_env_reduces_one_replica(steps):
    env = single_env(GW_SUPERCRITICAL)
    # seven copies of this value have a mean and deviation off by roundoff
    est = top_lyapunov(env, "A", steps=steps, replicas=7, seed=3)
    table = state_matrices(env, "A")
    oracle = _log_norm_of_product(table[np.zeros(steps, dtype=np.intp)]) / steps
    assert est.stderr == 0.0
    assert est.value == pytest.approx(oracle, rel=1e-12, abs=0.0)


def test_collapsed_product_raises():
    # mu- = 0 and mu0 = 1 make A = [[0, 0], [1, 0]], whose square is zero
    env = single_env([(0.5, (0, 1, 1)), (0.5, (0, 1, 0))])
    with pytest.raises(FloatingPointError):
        _log_norm_of_product(state_matrices(env, "A")[np.zeros(1_000, dtype=np.intp)])
    with pytest.raises(FloatingPointError):
        top_lyapunov(env, "A", steps=1_000, replicas=2)


def test_exponent_shift_identity_two_state():
    # gamma1 = gamma1(lambda) + ln(lambda) for any feasible lambda
    env = two_state_env()
    gamma = top_lyapunov(env, "A", steps=40_000, replicas=16, seed=1)
    for lam, sub_seed in ((2.0, 2), (5.0, 3)):
        shifted = top_lyapunov(env, "A_lambda", steps=40_000, replicas=16, seed=sub_seed, lam=lam)
        tol = 3.0 * math.hypot(gamma.stderr, shifted.stderr)
        assert abs(gamma.value - (shifted.value + math.log(lam))) <= tol


def test_mirror_exponent_identity():
    env = two_state_env()
    tilde = top_lyapunov(env, "A_tilde", steps=30_000, replicas=8, seed=4)
    mirrored = top_lyapunov(reflected(env), "A", steps=30_000, replicas=8, seed=5)
    tol = 3.0 * math.hypot(tilde.stderr, mirrored.stderr)
    assert abs(tilde.value - mirrored.value) <= tol


# -- second exponent via the determinant sum rule ----------------------------


def test_second_exponent_critical_case():
    env = single_env([(0.5, (1, 0, 1)), (0.5, (0, 0, 0))])
    assert second_exponent_via_det(env, 1.0, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_second_exponent_gw_example():
    # with the conjugacy value gamma1(2) = gamma1 - ln 2, the sum rule gives
    # gamma2(2) = ln 6 - ln(18.7178/2) = ln 0.64110...
    env = single_env(GW_SUPERCRITICAL)
    gamma1 = math.log(18.717797887081346)
    g2 = second_exponent_via_det(env, 2.0, gamma1 - math.log(2.0))
    assert g2 == pytest.approx(math.log(6.0) - gamma1 + math.log(2.0), rel=1e-12)
    assert g2 == pytest.approx(math.log(12.0 / 18.717797887081346), rel=1e-9)


@given(st.floats(0.5, 10.0), st.floats(-1.0, 1.0))
def test_sum_rule_is_algebraic_identity(lam, g1):
    # gamma1 + gamma2 must reproduce the mean log determinant exactly
    env = two_state_env()
    mean_log_det = sum(
        w * math.log(m.mu_minus / (lam * lam * m.mu_plus))
        for w, m in zip(env.weights, env.state_moments)
    )
    assert g1 + second_exponent_via_det(env, lam, g1) == pytest.approx(
        mean_log_det, rel=1e-12, abs=1e-12
    )


def test_state_matrices_tables():
    env = two_state_env()
    table = state_matrices(env, "A")
    assert table.shape == (2, 2, 2)
    np.testing.assert_allclose(table[0], build_A(env.state_moments[0]))
    np.testing.assert_allclose(table[1], build_A(env.state_moments[1]))
