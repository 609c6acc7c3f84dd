import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from brwre import lyapunov, spectral
from brwre.criteria import (GLOBAL_EXTINCTION, INCONCLUSIVE, classify_environment,
                            constant_exponent, expected_log_drift, lambda_feasible_set,
                            state_feasible_interval, tight_point, top_exponent,
                            vanishing_direction)
from brwre.envmodel import (FEASIBILITY_TOL, EnvironmentLaw, MomentTriple, law_from_atoms,
                            moments, reflected, validate_conditions)
from brwre.lyapunov import (WORD_BUDGET, WORD_CAP, WORD_SUM_MAX_BOUND, build_A, build_A_lambda,
                            state_matrices, top_lyapunov)
from conftest import (
    GW_SUPERCRITICAL,
    SUBCRITICAL_BRANCHY,
    conjugacy_residual,
    overlapping_laws,
    single_env,
    touching_laws,
    two_state_env,
    valid_laws,
)
from laws import law


def log_spectral_radius(mat: np.ndarray) -> float:
    """Eigenvalue oracle for constant environments."""
    return math.log(np.abs(np.linalg.eigvals(mat)).max())


def _log_norm_of_product(mats: np.ndarray) -> float:
    """ln of the max-abs norm of mats[-1] @ ... @ mats[0].

    Pairwise reduction with per-level rescaling: exact for the norm of the
    full product while keeping every intermediate entry in safe float range.
    """
    acc = 0.0
    cur = mats
    while cur.shape[0] > 1:
        n = cur.shape[0]
        h = n // 2
        prod = cur[1 : 2 * h : 2] @ cur[0 : 2 * h : 2]
        scale = np.abs(prod).max(axis=(1, 2))
        if not np.all(scale > 0.0):
            raise FloatingPointError("matrix product collapsed to zero")
        prod /= scale[:, None, None]
        acc += float(np.log(scale).sum())
        if n % 2:
            cur = np.concatenate([prod, cur[2 * h :]], axis=0)
        else:
            cur = prod
    return acc + float(np.log(np.abs(cur[0]).max()))


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
    with pytest.raises(ValueError, match="needs mu_plus > 0"):
        build_A_lambda(MomentTriple(1.2, 0.0, 0.0), 1.0)


_moments = st.tuples(
    st.floats(0.05, 3.0), st.floats(0.0, 0.8), st.floats(0.05, 3.0)
).map(lambda t: MomentTriple(*t))


@given(_moments)
def test_determinants_of_raw_families(m):
    assert np.linalg.det(build_A(m)) == pytest.approx(m.mu_minus / m.mu_plus, rel=1e-10)
    mirror = MomentTriple(m.mu_plus, m.mu_zero, m.mu_minus)
    assert np.linalg.det(build_A(mirror)) == pytest.approx(m.mu_plus / m.mu_minus, rel=1e-10)


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


# -- exponent estimation -----------------------------------------------------


def test_top_lyapunov_constant_env_matches_eigenvalue():
    env = single_env(GW_SUPERCRITICAL)
    oracle = log_spectral_radius(build_A(MomentTriple(1.2, 0.0, 0.05)))
    assert oracle == pytest.approx(math.log(18.717797887081346), rel=1e-12)
    # the entry point's closed form is exact in a constant environment
    exact = top_exponent(env, steps=20_000, replicas=4, seed=3)
    assert (exact.value, exact.stderr) == (pytest.approx(oracle, rel=1e-12), 0.0)
    # the word sum brackets it: one state's word is a power of its matrix
    est = top_lyapunov(env, "A", steps=20_000, replicas=4, seed=3)
    assert est.method == "word_sum"
    assert abs(est.value - oracle) <= est.stderr < 1e-12


def test_top_lyapunov_subcritical_constant_env():
    env = single_env(SUBCRITICAL_BRANCHY)
    est = top_lyapunov(env, "A", steps=20_000, replicas=4, seed=3)
    assert est.value == pytest.approx(math.log(6.0), abs=1e-3)


def test_top_lyapunov_unipotent_grows_polynomially():
    # the critical-point matrix A_lambda at 1 is unipotent: its powers grow only
    # linearly, and its spectral radius is 1, so the exponent is 0
    env = single_env([(0.5, (1, 0, 1)), (0.5, (0, 0, 0))])
    assert abs(top_exponent(env).value) <= 1e-15
    # its word is [[1, 0], [L, 1]], which contracts no cone: a bracket 1/(L + 1) wide
    value, half = lyapunov.word_sum(env, 1.0)
    assert abs(value) <= half < 0.03


def test_top_lyapunov_enforces_preconditions():
    for env in (single_env(GW_SUPERCRITICAL), two_state_env()):
        with pytest.raises(ValueError, match="infeasible"):
            lyapunov.word_sum(env, 100.0)
        # only A has an exponent; A_lambda only certifies it
        for kind in ("bogus", "A_lambda"):
            with pytest.raises(ValueError, match="unknown matrix kind"):
                top_lyapunov(env, kind, steps=10_000, replicas=4)


def test_top_lyapunov_deterministic():
    env = two_state_env()
    a = top_lyapunov(env, "A", steps=5_000, replicas=4, seed=9)
    b = top_lyapunov(env, "A", steps=5_000, replicas=4, seed=9)
    assert a == b
    # nothing is drawn: the budget and the seed are only echoed
    c = top_lyapunov(env, "A", steps=1, replicas=1, seed=10)
    assert c == a._replace(steps=1, replicas=1)


def test_top_lyapunov_workers_do_not_change_result():
    env = two_state_env()
    a = top_lyapunov(env, "A", steps=5_000, replicas=4, seed=9)
    b = top_lyapunov(env, "A", steps=5_000, replicas=4, seed=9, n_workers=4)
    assert a == b


def _walk_law(weights, pls) -> EnvironmentLaw:
    laws = [law_from_atoms([(pl, (1, 0, 0)), (0.3, (0, 0, 1)), (0.7 - pl, (0, 0, 0))])
            for pl in pls]
    return EnvironmentLaw(list(zip(weights, laws)))


def _unequal_three_states() -> EnvironmentLaw:
    return _walk_law((0.1, 0.2, 0.7), (0.1, 0.2, 0.3))


# word lengths: 12 for two states, 7 for three, 6 for four
_TWO_STATES = _walk_law((0.3, 0.7), (0.1, 0.3))
_FOUR_STATES = _walk_law((0.4, 0.3, 0.2, 0.1), (0.05, 0.15, 0.25, 0.35))
_LAWS = pytest.mark.parametrize("env", [_TWO_STATES, _unequal_three_states(), _FOUR_STATES],
                                ids=["2", "3", "4"])


def _digits(codes: np.ndarray, n_states: int, length: int) -> np.ndarray:
    """(len(codes), length) states of each word, first-applied first."""
    return codes[:, None] // n_states ** np.arange(length) % n_states


def _table(env, lam=None):
    """The word table (words, word_p) of the budget's length L, and L."""
    entries = state_matrices(env, lam).reshape(-1, 4).T
    length = lyapunov.word_length(env.n_states)
    return *lyapunov._word_table(entries, env.weights / env.weights.sum(), length), length


@_LAWS
def test_word_length_is_the_longest_within_budget(env):
    length = {2: 12, 3: 7, 4: 6}[env.n_states]
    assert env.n_states**length <= WORD_BUDGET < env.n_states ** (length + 1)
    assert lyapunov.word_length(env.n_states) == length
    words, word_p, _ = _table(env)
    assert words.shape == (4, env.n_states**length)
    assert word_p.sum() == pytest.approx(1.0, rel=1e-12)
    # the capped table: 17, 10 and 8 states deep
    cap = {2: 17, 3: 10, 4: 8}[env.n_states]
    assert env.n_states**cap <= WORD_CAP < env.n_states ** (cap + 1)
    assert lyapunov.word_length(env.n_states, WORD_CAP) == cap


def test_one_state_words_are_matrix_powers():
    # one state has one word of each length, a power of its matrix, so it gets
    # the lengths of two states: 12 within the budget and 17 within the cap
    assert [lyapunov.word_length(1, words) for words in (WORD_BUDGET, WORD_CAP)] == [12, 17]
    env = single_env(GW_SUPERCRITICAL)
    iv = lambda_feasible_set(env)
    lam = math.sqrt(iv.lo * iv.midpoint)
    words, word_p, length = _table(env, lam)
    assert (words.shape, word_p.tolist(), length) == ((4, 1), [1.0], 12)
    power = np.linalg.matrix_power(build_A_lambda(env.state_moments[0], lam), 12)
    np.testing.assert_allclose(words[:, 0], (power / np.abs(power).max()).ravel(), rtol=1e-12)
    # the power contracts the cone: the README law's bracket at the exponent_shift
    # row's lambda is 1.4e-13 wide at length 12, against 4.6e-3 at length 1
    entries = state_matrices(env, lam).reshape(-1, 4).T
    assert lyapunov._bracket(entries, word_p, 12)[1] < 1e-12
    assert 4e-3 < lyapunov._bracket(entries, word_p, 1)[1] < 5e-3


@_LAWS
def test_word_table_column_is_its_state_word(env):
    table = state_matrices(env)
    table_words, _, length = _table(env)
    n_states = env.n_states
    size = n_states**length
    assert table_words.shape == (4, size)
    # every word at once, one matmul per position: the first-applied matrix is
    # the lowest base-n_states digit, and the product is rescaled after each step
    words = _digits(np.arange(size), n_states, length)
    product = np.broadcast_to(np.eye(2), (size, 2, 2))
    for t in range(length):
        product = table[words[:, t]] @ product
        product /= np.abs(product).max(axis=(1, 2))[:, None, None]
    np.testing.assert_allclose(table_words.T.reshape(size, 2, 2), product, rtol=0.0, atol=1e-12)


# mu- = 1, mu0 = 0.5, mu+ = 0.2: A's characteristic roots are complex
COMPLEX_ROOTS = [(0.5, (2, 1, 0)), (0.2, (0, 0, 1)), (0.3, (0, 0, 0))]


# the roots of A's characteristic polynomial mu+ z^2 - (1 - mu0) z + mu- are the
# ends lo <= hi of the state's feasible interval, and the mirror law's are 1/hi
# and 1/lo, so its exponent is gamma(A) - drift = ln hi - ln(lo hi)
@pytest.mark.parametrize("atoms, mirror, kind, exponent", [
    pytest.param(GW_SUPERCRITICAL, False, "A", lambda iv, lam, m: math.log(iv.hi), id="A"),
    pytest.param(GW_SUPERCRITICAL, True, "A", lambda iv, lam, m: -math.log(iv.lo), id="A_tilde"),
    pytest.param(GW_SUPERCRITICAL, False, "A_lambda", lambda iv, lam, m: math.log(iv.hi / lam),
                 id="A_lambda"),
    # a conjugate pair: |z|^2 = det A = mu- / mu+
    pytest.param(COMPLEX_ROOTS, False, "A",
                 lambda iv, lam, m: 0.5 * math.log(m.mu_minus / m.mu_plus), id="complex-roots"),
])
def test_constant_env_exponent_is_log_spectral_radius(atoms, mirror, kind, exponent, monkeypatch):
    env = single_env(atoms)
    m = env.state_moments[0]
    iv = state_feasible_interval(m)
    lam = None if iv.is_empty else math.sqrt(iv.lo * iv.hi)
    # the power of one matrix needs no random generator
    monkeypatch.setattr(np.random, "default_rng", None)
    if kind == "A_lambda":
        # A_lambda only certifies gamma(A): its word sum, over one power, brackets it
        value, half = lyapunov.word_sum(env, lam)
        assert abs(value - exponent(iv, lam, m)) <= half < 1e-12
        return
    # and the closed form of gamma(A) needs no word table
    monkeypatch.setattr(lyapunov, "_word_table", None)
    est = top_exponent(reflected(env) if mirror else env, steps=20_000, replicas=7, seed=3)
    assert est.stderr == 0.0
    assert est.value == pytest.approx(exponent(iv, lam, m), rel=1e-12, abs=0.0)


@st.composite
def one_state_laws(draw):
    """One state with atoms (l, 0, 0), (0, k, 0), (0, 0, r) and (0, 0, 0): A's
    roots are real (positive, or negative when mu0 > 1) or complex."""
    l, k, r = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    p_l, p_k, p_r = draw(st.floats(0.02, 0.3)), draw(st.floats(0.0, 0.3)), draw(st.floats(0.02, 0.3))
    atoms = [(p_l, (l, 0, 0)), (p_r, (0, 0, r)), (1.0 - p_l - p_r - p_k, (0, 0, 0))]
    return single_env(atoms + [(p_k, (0, k, 0))] if p_k > 0.0 else atoms)


@given(one_state_laws())
@example(single_env(GW_SUPERCRITICAL))
@example(single_env(COMPLEX_ROOTS))
@example(single_env([(0.3, (1, 0, 0)), (0.3, (0, 4, 0)), (0.3, (0, 0, 1)), (0.1, (0, 0, 0))]))
# mu0 = 1.2: real roots -9.9 and -0.1, so the spectral radius is |b| + sqrt(disc) over 2 mu+
@example(single_env([(0.02, (1, 0, 0)), (0.3, (0, 4, 0)), (0.02, (0, 0, 1)), (0.66, (0, 0, 0))]))
@settings(max_examples=200, deadline=None)
def test_closed_form_matches_the_eigenvalue_oracle(env):
    m = env.state_moments[0]
    b = 1.0 - m.mu_zero
    # near a double root the eigenvalues move by sqrt(eps) under roundoff, in either solver
    assume(abs(b * b - 4.0 * m.mu_minus * m.mu_plus) > 1e-6 * (b * b + 4.0 * m.mu_minus * m.mu_plus))
    value = constant_exponent(m)
    assert math.exp(value) == pytest.approx(math.exp(log_spectral_radius(build_A(m))), rel=1e-12)
    # the numpy-free entry point returns it, exactly
    est = top_exponent(env, steps=1_000, replicas=2)
    assert (est.value, est.stderr, est.method) == (value, 0.0, "closed_form")
    iv = state_feasible_interval(m)
    if not iv.is_empty:
        # A_lambda is similar to A / lambda, and the word sum brackets gamma(A)
        lam = math.sqrt(iv.lo * iv.hi)
        assert math.exp(value) / lam == pytest.approx(
            math.exp(log_spectral_radius(build_A_lambda(m, lam))), rel=1e-12)
        words = top_lyapunov(env, "A", steps=1_000, replicas=2)
        assert abs(words.value - value) <= words.stderr


def test_closed_form_double_root():
    # mu- = 5/7, mu0 = 0, mu+ = 0.35: b^2 = 4 mu- mu+, so both roots are 1/0.7
    env = law("double-root")
    assert constant_exponent(env.state_moments[0]) == pytest.approx(
        math.log(1.0 / 0.7), rel=0.0, abs=1e-15)


def test_closed_form_keeps_the_matrix_checks():
    # mu+ = 0: no matrix A, and no closed form
    m = MomentTriple(1.2, 0.0, 0.0)
    with pytest.raises(ValueError, match="needs mu_plus > 0") as closed:
        constant_exponent(m)
    with pytest.raises(ValueError, match="needs mu_plus > 0") as matrix:
        build_A(m)
    assert str(closed.value) == str(matrix.value)
    # GW_SUPERCRITICAL's interval is [1.282, 18.72]: lambda = 1 is infeasible,
    # so it has no A_lambda there, and no word sum
    env = single_env(GW_SUPERCRITICAL)
    with pytest.raises(ValueError, match="infeasible") as words:
        lyapunov.word_sum(env, 1.0)
    with pytest.raises(ValueError, match="infeasible") as matrix:
        build_A_lambda(env.state_moments[0], 1.0)
    assert str(words.value) == str(matrix.value)


def test_one_state_entry_point_skips_the_estimator(monkeypatch):
    env = single_env(GW_SUPERCRITICAL)
    monkeypatch.setattr(lyapunov, "top_lyapunov", None)
    assert top_exponent(env).value == pytest.approx(
        math.log(state_feasible_interval(env.state_moments[0]).hi), rel=1e-15, abs=0.0)


# A = [[0, 0], [1, 0]] (mu- = 0, mu0 = 1), whose square is zero
NILPOTENT = [(0.5, (0, 1, 1)), (0.5, (0, 1, 0))]


def test_collapsed_product_raises():
    env = single_env(NILPOTENT)
    with pytest.raises(FloatingPointError):
        _log_norm_of_product(state_matrices(env)[np.zeros(1_000, dtype=np.intp)])
    with pytest.raises(FloatingPointError):
        top_exponent(env, steps=1_000, replicas=2)

    # mu- = 0 leaves no feasible lambda, so no nonnegative family and no word
    # sum, on one state as with a second, invertible one
    for env in (env, EnvironmentLaw([(0.5, law_from_atoms(NILPOTENT)),
                                     (0.5, law_from_atoms(GW_SUPERCRITICAL))])):
        with pytest.raises(ValueError, match="mu_minus > 0"):
            top_lyapunov(env, "A", steps=1_000, replicas=2)


def test_exponent_shift_identity_two_state():
    # gamma1 = gamma1(lambda) + ln(lambda) for any feasible lambda
    env = two_state_env()
    gamma = top_lyapunov(env, "A")
    assert gamma.method == "word_sum"
    for lam in (2.0, 5.0):
        value, half = lyapunov.word_sum(env, lam)
        # the two error bounds, and 1e-14 for the rounding of the shift
        assert abs(gamma.value - (value + math.log(lam))) <= gamma.stderr + half + 1e-14


@pytest.mark.parametrize("env", [two_state_env(), _unequal_three_states()], ids=["2", "3"])
@pytest.mark.parametrize("length", [1, 7, 1_000])
def test_mirror_product_is_the_reversed_product_over_its_determinant(env, length):
    # J A^-1 J is the mirror's matrix, so its product over a sequence is J P^-1 J
    # with P the A product of the reversed sequence, and ||P^-1|| = ||P|| / |det P|
    table = state_matrices(env)
    mirror = np.stack([build_A(MomentTriple(m.mu_plus, m.mu_zero, m.mu_minus))
                       for m in env.state_moments])
    np.testing.assert_array_equal(mirror, state_matrices(reflected(env)))
    rng = np.random.default_rng(length)
    seq = rng.choice(env.n_states, size=length, p=np.asarray(env.weights) / sum(env.weights))
    log_det = sum(math.log(env.state_moments[s].mu_minus / env.state_moments[s].mu_plus)
                  for s in seq)
    got = _log_norm_of_product(mirror[seq])
    want = _log_norm_of_product(table[seq[::-1]]) - log_det
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * length)


def test_mirror_exponent_identity():
    # the mirror law's top exponent is gamma(A) - drift, on every number of states
    for env in (two_state_env(), _unequal_three_states(), single_env(GW_SUPERCRITICAL),
                single_env(SUBCRITICAL_BRANCHY), single_env(COMPLEX_ROOTS)):
        kw = dict(steps=30_000, replicas=8)
        gamma = top_exponent(env, seed=4, **kw)
        mirrored = top_exponent(reflected(env), seed=5, **kw)
        expected = gamma.value - expected_log_drift(env)
        if env.n_states == 1:
            assert mirrored.stderr == gamma.stderr == 0.0
            assert mirrored.value == pytest.approx(expected, rel=1e-12, abs=0.0)
        else:
            # the two error bounds, and 1e-14 for the rounding of the drift
            assert abs(mirrored.value - expected) <= gamma.stderr + mirrored.stderr + 1e-14


# -- exact word sums ---------------------------------------------------------


_INTERIOR_LAWS = pytest.mark.parametrize("env", [law("two-state"), law("two-state-left"),
                                                 law("both")], ids=["right", "left", "both"])


@given(one_state_laws(), st.sampled_from(["A", "A_lambda"]))
@example(single_env(GW_SUPERCRITICAL), "A")
@example(single_env(GW_SUPERCRITICAL), "A_lambda")
@settings(max_examples=100, deadline=None)
def test_split_state_word_sum_is_the_closed_form(env, kind):
    # two identical states of half weight: every word is a power of one matrix
    iv = lambda_feasible_set(env)
    assume(not iv.is_empty and iv.lo < iv.hi)
    (_, law), = env.states
    split = EnvironmentLaw([(0.5, law), (0.5, law)])
    exact = constant_exponent(env.state_moments[0])
    if kind == "A":
        est = top_exponent(split, steps=1_000, replicas=2)
        assert est.method == "word_sum"
        assert abs(est.value - exact) <= est.stderr
    else:
        # gamma(A_lambda) = gamma(A) - ln lambda, up to the rounding of the shift
        lam = math.sqrt(iv.lo * iv.hi)
        value, half = lyapunov.word_sum(split, lam)
        shifted = exact - math.log(lam)
        assert abs(value - shifted) <= half + 4.0 * sys.float_info.epsilon * (
            abs(exact) + abs(math.log(lam)))


@given(valid_laws(), st.data())
@settings(max_examples=300, deadline=None)
def test_splitting_a_state_keeps_the_feasible_set_and_the_word_sum(env, data):
    # two copies of one state at half its weight: the same per-state moments and
    # the same i.i.d. matrix law, so the same closed form, the same exponent and
    # the same regime
    s = data.draw(st.integers(0, env.n_states - 1), label="state")
    weight, law = env.states[s]
    split = EnvironmentLaw([*env.states[:s], (weight / 2, law), (weight / 2, law),
                            *env.states[s + 1:]])
    iv = lambda_feasible_set(env)
    assert lambda_feasible_set(split) == iv
    assert vanishing_direction(split) == vanishing_direction(env)
    if validate_conditions(env).ok:
        regime, split_regime = classify_environment(env).regime, classify_environment(split).regime
        if INCONCLUSIVE not in (regime, split_regime):
            assert split_regime == regime
    if iv.is_empty or not iv.lo < iv.hi:
        return
    (value, bound), (split_value, split_bound) = (lyapunov.word_sum(e, iv.midpoint)
                                                  for e in (env, split))
    assume(max(bound, split_bound) <= WORD_SUM_MAX_BOUND)
    assert abs(split_value - value) <= bound + split_bound


def _moment_twin(law):
    """A law with law's moment triple on other atoms: two children left at mu-/2,
    two right at mu+/2, one in place at mu0, and the rest on no child."""
    m = moments(law)
    atoms = [(m.mu_minus / 2, (2, 0, 0)), (m.mu_plus / 2, (0, 0, 2)), (m.mu_zero, (0, 1, 0))]
    atoms.append((1.0 - sum(p for p, _ in atoms), (0, 0, 0)))
    return law_from_atoms([(p, v) for p, v in atoms if p > 0.0])


@given(valid_laws(), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_moment_equivalent_laws_get_the_same_verdict(env, seed):
    # every closed form, the exponent and the spectral windows read a state's
    # law through its moment triple alone; only survival probabilities may move.
    # Condition B reads the atoms: the twin always has two children, so both
    # laws must meet it
    assume(validate_conditions(env).ok)
    twin = EnvironmentLaw([(w, _moment_twin(law)) for w, law in env.states])
    assume(twin.state_moments == env.state_moments)
    assume(np.array_equal(twin.weights, env.weights))
    rep, twin_rep = classify_environment(env), classify_environment(twin)
    assert lambda_feasible_set(twin) == lambda_feasible_set(env) == rep.lambda_set
    assert (twin_rep.vanishing_direction, twin_rep.regime) == (rep.vanishing_direction,
                                                               rep.regime)
    assert twin_rep.drift == rep.drift
    if not rep.lambda_set.is_empty:
        est, twin_est = top_exponent(env), top_exponent(twin)
        assert (twin_est.value, twin_est.stderr) == (est.value, est.stderr)
    n_values = [0, 1, 2, 4, 8]
    assert spectral.rho_sweep(twin, seed, n_values) == spectral.rho_sweep(env, seed, n_values)


@_INTERIOR_LAWS
def test_word_sum_agrees_with_the_replicas(env):
    # the replicas are plain matmul products over i.i.d. state sequences: an
    # oracle independent of the word table, with an O(1/n) bias besides its stderr
    exact = top_exponent(env)
    assert exact.method == "word_sum"
    assert exact.stderr < 1e-6
    table = state_matrices(env)
    rng = np.random.default_rng(1)
    n, p = 100_000, np.asarray(env.weights) / sum(env.weights)
    drawn = [_log_norm_of_product(table[rng.choice(env.n_states, size=n, p=p)]) / n
             for _ in range(16)]
    stderr = float(np.std(drawn, ddof=1)) / 4.0
    assert abs(exact.value - float(np.mean(drawn))) <= 3.0 * stderr + exact.stderr + 20.0 / n


@_INTERIOR_LAWS
def test_word_sums_at_two_lambdas_agree_within_their_bounds(env):
    # gamma(A_lambda) + ln lambda is gamma(A) at every feasible lambda
    iv = lambda_feasible_set(env)
    shifted = []
    for lam in (math.sqrt(iv.lo * iv.hi), iv.lo ** 0.75 * iv.hi ** 0.25):
        value, half = lyapunov.word_sum(env, lam)
        shifted.append((value + math.log(lam), half))
    (a, bound_a), (b, bound_b) = shifted
    # 1e-14 for the rounding of the two logs and sums
    assert abs(a - b) <= bound_a + bound_b + 1e-14


def test_exponents_off_the_budget_table():
    # an empty feasible set on several states: no nonnegative family, no exponent
    empty = law("empty-two-state")
    assert lambda_feasible_set(empty).is_empty
    for entry in (lambda: top_lyapunov(empty, "A"), lambda: top_exponent(empty)):
        with pytest.raises(ValueError, match="no feasible lambda"):
            entry()
    # 65 states: words of length 1 within the budget, whose bracket is 0.01 wide,
    # and of length 2 within the cap, 7.2e-4 wide, around the one-state closed form
    many = EnvironmentLaw([(1.0 / 65, law_from_atoms(GW_SUPERCRITICAL))] * 65)
    assert lyapunov.word_length(65) == 1 and lyapunov.word_length(65, WORD_CAP) == 2
    est = top_exponent(many)
    assert est.method == "word_sum"
    assert 5e-4 < est.stderr < 1e-3
    assert abs(est.value - constant_exponent(many.state_moments[0])) <= est.stderr
    # an interior set too thin for the budget: at the midpoint of [1.065, 1.374]
    # the budget's bracket is 1.5e-3 wide and the cap's 1.6e-4
    thin = law("thin")
    iv = lambda_feasible_set(thin)
    assert iv.lo < iv.hi
    est = top_exponent(thin)
    assert est.method == "word_sum"
    assert 1e-4 < est.stderr <= WORD_SUM_MAX_BOUND


def _cap_bracket(env, lam):
    """word_sum's (midpoint, half-width) over the budget's and the cap's tables."""
    entries = state_matrices(env, lam).reshape(-1, 4).T
    state_p = env.weights / env.weights.sum()
    return [lyapunov._bracket(entries, state_p, lyapunov.word_length(env.n_states, words))
            for words in (WORD_BUDGET, WORD_CAP)]


@given(overlapping_laws())
@settings(max_examples=40, deadline=None)
def test_budget_and_cap_brackets_intersect(env):
    # both certify gamma(A_lambda) at the feasible set's midpoint, so they share it
    iv = lambda_feasible_set(env)
    assert env.n_states > 1 and not iv.is_empty
    (a, half_a), (b, half_b) = _cap_bracket(env, iv.midpoint)
    assert abs(a - b) <= half_a + half_b


def test_word_sum_at_an_end_of_an_interior_set():
    # the tight state's A_lambda has a roundoff-sized entry b and contracts
    # little, yet the bracket still closes: the exact path, and the midpoint's
    # value up to the two half-widths
    two = two_state_env()
    iv = lambda_feasible_set(two)
    value, half = lyapunov.word_sum(two, iv.lo)
    assert half < 1e-12
    mid = top_lyapunov(two, "A")
    assert abs((value + math.log(iv.lo)) - mid.value) <= half + mid.stderr + 1e-14
    # (0.5, 0.375, 0.125) has the interval [1, 4] and slack exactly 0 at 1, where
    # its A_lambda is [[4, 0], [4, 1]]; the exponent is ln 4
    law = law_from_atoms([(0.25, (2, 0, 0)), (0.375, (0, 1, 0)), (0.125, (0, 0, 1)),
                          (0.25, (0, 0, 0))])
    doubled = EnvironmentLaw([(0.5, law), (0.5, law)])
    assert doubled.state_moments[0].slack(1.0) == 0.0
    assert (lambda_feasible_set(doubled).lo, lambda_feasible_set(doubled).hi) == (1.0, 4.0)
    value, half = lyapunov.word_sum(doubled, 1.0)
    assert abs(value - math.log(4.0)) <= half < 1e-8


LN_2_LAW = law("ln-2")


def test_tight_point_closed_form_is_ln_2():
    # the intervals [1.2, 2] at weight 0.8 and [2, 5] at weight 0.2 meet at 2, where
    # a = 0.6 and 2.5: E ln a < 0, so gamma(A_lambda) = 0 and gamma(A) = ln 2
    iv = lambda_feasible_set(LN_2_LAW)
    assert iv.lo == pytest.approx(2.0, rel=1e-15) and iv.hi == pytest.approx(2.0, rel=1e-15)
    est = top_exponent(LN_2_LAW)
    assert est.method == "closed_form" and est.stderr == 0.0
    assert abs(est.value - math.log(2.0)) <= 4.0 * math.ulp(math.log(2.0))
    # the word-sum path brackets it, from the cap's table
    words = top_lyapunov(LN_2_LAW, "A")
    assert words.method == "word_sum"
    assert abs(words.value - est.value) <= words.stderr


def test_a_thin_interval_is_no_tight_point():
    # (0.5, 0, 0.5 - 1e-9) has the interval [0.99996, 1.00004], and at its midpoint
    # a slack of 1e-9, within the tolerance: the triangular closed form there, 1e-9,
    # would miss the exponent ln hi = 4.5e-5 with a stderr of 0
    law = law_from_atoms([(0.5, (1, 0, 0)), (0.5 - 1e-9, (0, 0, 1)), (1e-9, (0, 0, 0))])
    split = EnvironmentLaw([(0.5, law), (0.5, law)])
    iv = lambda_feasible_set(split)
    assert iv.lo < iv.hi and split.state_moments[0].slack(iv.midpoint) <= FEASIBILITY_TOL
    assert tight_point(split) is None
    est = top_exponent(split)
    assert est.method == "word_sum"
    assert abs(est.value - constant_exponent(split.state_moments[0])) <= est.stderr


@given(touching_laws())
@example((LN_2_LAW, 2.0))
@settings(max_examples=40, deadline=None)
def test_touching_intervals_keep_their_point_and_its_bracket(drawn):
    env, point = drawn
    # rounding may cross the ends that meet at the point: the tie is kept. Or
    # it may overlap them by a few ulps: an interval, and no tight point
    iv = lambda_feasible_set(env)
    assert not iv.is_empty
    assert iv.lo == pytest.approx(point, rel=1e-12) and iv.hi == pytest.approx(point, rel=1e-12)
    # gamma(A), the closed form at a tight point, lies in the word sum's bracket
    # there, its lower end, up to the roundoff allowance and the shift's ulps
    est = top_exponent(env)
    assert est.method == ("closed_form" if tight_point(env) == iv.lo else "word_sum")
    value, half = lyapunov.word_sum(env, iv.lo)
    shifted = value + math.log(iv.lo)
    assert abs(est.value - shifted) <= est.stderr + half + 8.0 * sys.float_info.epsilon * (
        1.0 + abs(est.value) + abs(value) + abs(math.log(iv.lo)))


def test_a_positive_slack_at_a_point_is_no_tight_point():
    # LN_2_LAW's intervals meet at 2, and a third state's [2 - 4.5e-5, 2 + 4.5e-5]
    # holds 2 with slack 2.5e-10, within FEASIBILITY_TOL.  Its A_lambda there has
    # b = 5e-10, and the product's exponent moves by more than that: the
    # triangular closed form lies 1.3e-9 below the certified bracket
    third = law_from_atoms([(0.5 - 2.5e-10, (2, 0, 0)), (0.25, (0, 0, 1)),
                            (0.25 + 2.5e-10, (0, 0, 0))])
    (_, first), (_, second) = LN_2_LAW.states
    env = EnvironmentLaw([(0.4, first), (0.4, second), (0.2, third)])
    iv = lambda_feasible_set(env)
    assert iv.lo == iv.hi == pytest.approx(2.0, rel=1e-15)
    slacks = [m.slack(iv.lo) for m in env.state_moments]
    assert max(slacks[:2]) <= 0.0 < slacks[2] <= FEASIBILITY_TOL
    assert tight_point(env) is None
    est = top_exponent(env)
    assert est.method == "word_sum"
    closed = math.log(iv.lo) + max(0.0, sum(
        w * math.log(m.mu_minus / (iv.lo**2 * m.mu_plus))
        for (w, _), m in zip(env.states, env.state_moments)))
    assert est.value - est.stderr > closed + 1e-9


def test_bracket_contains_ln_2_at_a_point_feasible_set():
    # the budget's bracket on gamma(A) is [0.4677, 0.7181]: wider than
    # WORD_SUM_MAX_BOUND, so word_sum returns the cap's, [0.4677, 0.7055]
    (_, half), _ = _cap_bracket(LN_2_LAW, 2.0)
    assert half > WORD_SUM_MAX_BOUND
    value, half = lyapunov.word_sum(LN_2_LAW, 2.0)
    lo, hi = value - half + math.log(2.0), value + half + math.log(2.0)
    assert lo <= math.log(2.0) <= hi
    assert (lo, hi) == (pytest.approx(0.4677, abs=1e-4), pytest.approx(0.7055, abs=1e-4))


def test_tie_closed_form_lies_in_its_cap_bracket():
    tie = law("tie")
    lam = lambda_feasible_set(tie).midpoint
    est = top_exponent(tie)
    assert est.method == "closed_form"
    assert est.value == pytest.approx(0.7817948, abs=1e-7)
    value, half = lyapunov.word_sum(tie, lam)
    assert half > WORD_SUM_MAX_BOUND  # the cap's bracket, 0.019 wide
    # the closed form is the bracket's lower end: it lies inside by the roundoff
    # allowance alone, 1e-13, past the few ulps of the shift
    assert abs(est.value - (value + math.log(lam))) <= half + 8.0 * sys.float_info.epsilon * (
        1.0 + abs(est.value) + abs(value) + abs(math.log(lam)))


def test_counterexample_is_decided_by_the_cap_table():
    # a left-branch law whose budget bracket on gamma(A) straddles 0 at word
    # length 12, [-0.00065, 0.01087]; the cap's, 17 deep, excludes it by 3.49
    # half-widths: GlobalExtinction
    env = law("counterexample")
    iv = lambda_feasible_set(env)
    assert vanishing_direction(env) == "left" and iv.lo < iv.hi
    (budget, half), _ = _cap_bracket(env, iv.midpoint)
    assert abs(budget + math.log(iv.midpoint)) < half
    report = classify_environment(env)
    assert report.gamma1.method == "word_sum"
    assert report.regime == GLOBAL_EXTINCTION
    assert report.margin == pytest.approx(-3.49, abs=0.01)


@given(valid_laws())
@settings(max_examples=200, deadline=None)
def test_brackets_at_two_lambdas_overlap(env):
    # gamma(A_lambda) + ln lambda is gamma(A) at every feasible lambda, so the two
    # brackets on gamma(A) share it, up to the rounding of the shifts
    iv = lambda_feasible_set(env)
    assume(not iv.is_empty and iv.lo < iv.hi)
    brackets = []
    for lam in (iv.midpoint, math.sqrt(iv.lo * iv.midpoint)):
        value, half = lyapunov.word_sum(env, lam)
        brackets.append((value + math.log(lam), half, abs(value) + abs(math.log(lam))))
    (a, half_a, size_a), (b, half_b, size_b) = brackets
    assert abs(a - b) <= half_a + half_b + 8.0 * sys.float_info.epsilon * (1.0 + size_a + size_b)


def test_state_matrices_tables():
    env = two_state_env()
    table = state_matrices(env)
    assert table.shape == (2, 2, 2)
    np.testing.assert_allclose(table[0], build_A(env.state_moments[0]))
    np.testing.assert_allclose(table[1], build_A(env.state_moments[1]))
    conjugate = state_matrices(env, 2.0)
    for m, mat in zip(env.state_moments, conjugate):
        np.testing.assert_array_equal(mat, build_A_lambda(m, 2.0))
