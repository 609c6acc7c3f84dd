import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from brwre import spectral
from brwre.criteria import lambda_feasible_set
from brwre.envmodel import EnvironmentLaw, derive_seed, law_from_atoms, state_at
from brwre.spectral import TruncatedMomentMatrix, rho_sweep, spectral_radius, truncated_matrix
from conftest import (
    CRITICAL_PAIR,
    GW_SUPERCRITICAL,
    MIRROR_LEFT,
    SUBCRITICAL_BRANCHY,
    SUBCRITICAL_WALK,
    TREBLE_OR_DIE,
    TWO_STATE_A,
    TWO_STATE_B,
    single_env,
    two_state_env,
    valid_laws,
)


def toeplitz_top_root(mu_minus, mu_zero, mu_plus, size):
    """Closed form for constant environments: the independent oracle."""
    return mu_zero + 2.0 * math.sqrt(mu_minus * mu_plus) * math.cos(math.pi / (size + 1))


def eig_oracle(tm) -> float:
    """Top eigenvalue of the symmetrized window by eigvalsh: same spectrum,
    without the nonsymmetric solver's error on badly scaled windows."""
    off = np.sqrt(tm.sup[:-1] * tm.sub[1:])
    return float(np.linalg.eigvalsh(np.diag(tm.diag) + np.diag(off, 1) + np.diag(off, -1))[-1])


def to_dense(tm) -> np.ndarray:
    """The window's tridiagonal matrix as a dense array."""
    m = np.diag(tm.diag)
    if tm.size > 1:
        m += np.diag(tm.sub[1:], k=-1)
        m += np.diag(tm.sup[:-1], k=1)
    return m


def max_row_sum(tm) -> float:
    return float((tm.sub + tm.diag + tm.sup).max())


def multisection_oracle(tm) -> spectral.SpectralEstimate:
    """`spectral_radius` without the early exit: the multisection of one shift
    per round, that is bisection, where each pass runs the LDL^T recurrence
    over every row of the window and the shift is reached when any pivot is
    nonnegative.  A zero pivot makes the next one -inf, the IEEE limit of the
    recurrence at a shift just below."""
    offdiag_sq = np.maximum(tm.sup[:-1] * tm.sub[1:], np.finfo(float).tiny)
    lo = float(tm.diag.max())
    hi = float((tm.sub + tm.diag + tm.sup).max())
    resolution = 4.0 * np.spacing(hi)
    passes = 0
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        pivot = tm.diag[0] - mid
        reached = pivot >= 0.0
        with np.errstate(divide="ignore", over="ignore"):
            for d, e2 in zip(tm.diag[1:], offdiag_sq):
                pivot = (d - mid) - e2 / pivot
                reached |= pivot >= 0.0
        lo, hi = (mid, hi) if reached else (lo, mid)
        passes += 1
    return spectral.SpectralEstimate(rho=0.5 * (lo + hi), iterations=passes, residual=hi - lo)


# -- matrix assembly ---------------------------------------------------------


def test_truncated_matrix_constant_env():
    env = single_env(TREBLE_OR_DIE)
    tm = truncated_matrix(env, 0, -1, 1)
    expected = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.5], [0.0, 0.5, 0.5]])
    np.testing.assert_allclose(to_dense(tm), expected, rtol=1e-15)


def test_truncated_matrix_length_one():
    env = single_env(TREBLE_OR_DIE)
    tm = truncated_matrix(env, 0, 4, 4)
    assert to_dense(tm).shape == (1, 1)
    assert to_dense(tm)[0, 0] == pytest.approx(0.5)


def test_truncated_matrix_two_state_rows_follow_realization():
    env = two_state_env()
    tm = truncated_matrix(env, 21, -6, 6)
    for offset, site in enumerate(range(-6, 7)):
        m = env.state_moments[state_at(env, 21, site)]
        assert tm.sub[offset] == m.mu_minus
        assert tm.diag[offset] == m.mu_zero
        assert tm.sup[offset] == m.mu_plus


def test_truncated_matrix_singleton():
    env = single_env(GW_SUPERCRITICAL)
    tm = truncated_matrix(env, 3, 0, 0)
    assert tm.size == 1
    assert (tm.sub[0], tm.diag[0], tm.sup[0]) == tuple(env.state_moments[0])


def test_truncated_matrix_restriction_compatible():
    env = two_state_env()
    small = truncated_matrix(env, 11, -5, 5)
    large = truncated_matrix(env, 11, -10, 10)
    for name in ("sub", "diag", "sup"):
        np.testing.assert_array_equal(getattr(small, name), getattr(large, name)[5:16])


def test_truncated_matrix_rejects_reversed_bounds():
    with pytest.raises(ValueError, match="out of order"):
        truncated_matrix(single_env(GW_SUPERCRITICAL), 0, 3, 2)


def test_symmetrized_oracle_matches_dense_root():
    # the nonsymmetric solver errs by up to ~6e-7 on these badly scaled windows
    env = two_state_env()
    for seed in (1, 3):
        tm = truncated_matrix(env, seed, -12, 12)
        dense_root = float(np.abs(np.linalg.eigvals(to_dense(tm))).max())
        assert eig_oracle(tm) == pytest.approx(dense_root, abs=1e-6)


# -- Sturm-count bisection ---------------------------------------------------


def test_spectral_radius_toeplitz_window():
    env = single_env(TREBLE_OR_DIE)
    tm = truncated_matrix(env, 0, -10, 10)
    est = spectral_radius(tm)
    oracle = toeplitz_top_root(0.5, 0.5, 0.5, 21)
    assert oracle == pytest.approx(1.4898214418809327, rel=1e-12)
    assert est.rho == pytest.approx(oracle, abs=1e-14)
    assert est.rho == pytest.approx(eig_oracle(tm), abs=1e-14)
    assert est.residual <= 4.0 * np.spacing(est.rho)


def test_spectral_radius_scalar_window():
    env = single_env(TREBLE_OR_DIE)
    tm = truncated_matrix(env, 0, 0, 0)
    assert spectral_radius(tm).rho == pytest.approx(0.5, abs=1e-12)


def test_spectral_radius_zero_diagonal_window():
    # two-periodic truncation: the spectrum is symmetric about 0, and the
    # Perron root is the top eigenvalue, not the bottom one
    env = single_env(GW_SUPERCRITICAL)
    tm = truncated_matrix(env, 0, -4, 4)
    est = spectral_radius(tm)
    assert est.rho == pytest.approx(eig_oracle(tm), abs=1e-12 * max_row_sum(tm))
    assert est.rho == pytest.approx(toeplitz_top_root(1.2, 0.0, 0.05, 9), abs=1e-14)


def test_spectral_radius_random_two_state_windows():
    # quenched windows are badly scaled (mu- / mu+ up to 28), which the
    # symmetrized oracle and the Sturm counts both handle to roundoff
    env = two_state_env()
    for seed in (1, 2, 3):
        tm = truncated_matrix(env, seed, -12, 12)
        est = spectral_radius(tm)
        assert est.rho == pytest.approx(eig_oracle(tm), abs=1e-12 * max_row_sum(tm))


def test_zero_pivot_counts_as_nonnegative():
    # the bracket is [0, 1], so the first bisection shift is 0.5, an eigenvalue
    # of the leading 2x2 block, and the second pivot is exactly zero
    env = single_env(CRITICAL_PAIR)
    tm = truncated_matrix(env, 0, -1, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = spectral_radius(tm)
    assert est.rho == pytest.approx(math.cos(math.pi / 4), abs=1e-15)
    assert est.iterations > 40  # bisection: one bit per pass


def test_one_sided_window_root_is_its_top_diagonal():
    # mu- = 0 zeroes every off-diagonal product: the window is triangular
    env = EnvironmentLaw([
        (0.5, law_from_atoms([(0.5, (0, 1, 1)), (0.5, (0, 0, 0))])),
        (0.5, law_from_atoms([(0.2, (0, 1, 1)), (0.8, (0, 0, 0))])),
    ])
    tm = truncated_matrix(env, 4, -6, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = spectral_radius(tm)
    assert est.rho == pytest.approx(tm.diag.max(), abs=1e-15)


def test_zero_operator_has_root_zero():
    env = single_env([(1.0, (0, 0, 0))])
    est = spectral_radius(truncated_matrix(env, 0, -3, 3))
    assert (est.rho, est.iterations, est.residual) == (0.0, 0, 0.0)


_ATOM_SETS = [GW_SUPERCRITICAL, TREBLE_OR_DIE, CRITICAL_PAIR, SUBCRITICAL_WALK,
              SUBCRITICAL_BRANCHY, TWO_STATE_A, TWO_STATE_B, MIRROR_LEFT]


@st.composite
def window_matrices(draw):
    """A window of up to 301 sites of a 1-4 state law over the suite's atom sets."""
    n_states = draw(st.integers(1, 4))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=n_states, max_size=n_states))
    atoms = draw(st.lists(st.sampled_from(_ATOM_SETS), min_size=n_states, max_size=n_states))
    env = EnvironmentLaw([(w / sum(raw), law_from_atoms(a)) for w, a in zip(raw, atoms)])
    n = draw(st.integers(0, 150))
    return truncated_matrix(env, draw(st.integers(0, 2**32 - 1)), -n, n)


@given(window_matrices())
def test_spectral_radius_matches_eigvalsh(tm):
    est = spectral_radius(tm)
    assert abs(est.rho - eig_oracle(tm)) <= 1e-12 * max_row_sum(tm)
    # a bracket of at most the max row sum, halved down to 4 of its ulp
    assert est.iterations <= 51


def _window(sub, diag, sup) -> TruncatedMomentMatrix:
    return TruncatedMomentMatrix(sub=np.array(sub, dtype=float), diag=np.array(diag, dtype=float),
                                 sup=np.array(sup, dtype=float))


@st.composite
def edge_case_windows(draw):
    """Windows the atom sets do not give: off-diagonal products from 0.3 down to
    subnormal and 0, dyadic entries whose Sturm passes meet exact zero pivots
    at the dyadic bisection shifts, and one-sided windows (mu- or mu+ zero at
    every site)."""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["tiny", "dyadic", "one-sided"]))

    def row(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    if kind == "dyadic":
        dyadic = st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0])
        return _window(row(dyadic), row(dyadic), row(dyadic))
    entries = st.floats(0.0, 1.0)
    if kind == "tiny":
        off = st.sampled_from([0.0, 5e-324, 1e-300, 1e-160, 1e-8, 0.3])
        return _window(row(off), row(entries), row(off))
    sides = [row(entries), [0.0] * n]
    if draw(st.booleans()):
        sides.reverse()
    return _window(sides[0], row(entries), sides[1])


@settings(max_examples=300, deadline=None)
@given(st.one_of(window_matrices(), edge_case_windows()))
# CRITICAL_PAIR's [-1, 1] window: the first shift, 0.5, is an eigenvalue of the
# leading 2x2 block, so the second pivot is exactly zero
@example(truncated_matrix(single_env(CRITICAL_PAIR), 0, -1, 1))
def test_binary_search_matches_the_full_multisection(tm):
    # equality with the recurrence over every row checks that stopping at the first
    # nonnegative pivot, a zero one included, changes no count
    assert spectral_radius(tm) == multisection_oracle(tm)


# -- window sweep ------------------------------------------------------------


def test_sweep_mirror_pair_monotone_below_closed_form_limit():
    # each state's own window roots tend to 0.6, but min over lam of
    # max_s (mu-_s/lam + mu0_s + mu+_s*lam) = 0.75 (at lam = 1) is the
    # sweep's limit, approached from below
    env = EnvironmentLaw(
        [(0.5, law_from_atoms(SUBCRITICAL_BRANCHY)), (0.5, law_from_atoms(MIRROR_LEFT))]
    )
    values = [rho for _, rho in rho_sweep(env, derive_seed(3, 1), [2**k for k in range(10)])]
    assert all(a <= b for a, b in zip(values, values[1:])), values
    assert values[-1] <= 0.75 + 1e-12
    assert values[-1] == pytest.approx(0.75, abs=1e-9)


def test_sweep_supercritical_exceeds_one_by_two():
    rhos = dict(rho_sweep(single_env(TREBLE_OR_DIE), 0, [1, 2, 4, 8]))
    assert rhos[1] < 1.5 and rhos[2] > 1.0
    for n, rho in rhos.items():
        assert rho == pytest.approx(toeplitz_top_root(0.5, 0.5, 0.5, 2 * n + 1), abs=1e-8)


def test_sweep_critical_stays_below_one():
    series = rho_sweep(single_env(CRITICAL_PAIR), 0, [1, 2, 4, 8, 16])
    for n, rho in series:
        assert rho < 1.0
        assert rho == pytest.approx(math.cos(math.pi / (2 * n + 2)), abs=1e-8)


def test_sweep_monotone_nondecreasing():
    for env, seed in ((two_state_env(), 5), (single_env(GW_SUPERCRITICAL), 9)):
        series = rho_sweep(env, seed, [1, 2, 4, 8, 16, 24])
        values = [rho for _, rho in series]
        for a, b in zip(values, values[1:]):
            assert a <= b + 1e-9


def test_sweep_rejects_bad_n_values():
    env = single_env(TREBLE_OR_DIE)
    with pytest.raises(ValueError):
        rho_sweep(env, 0, [4, 2])
    with pytest.raises(ValueError):
        rho_sweep(env, 0, [-1, 2])


def test_sweep_criterion_concordance():
    # empty feasible set -> some window exceeds 1; nonempty -> none does
    series = rho_sweep(single_env(TREBLE_OR_DIE), 3, [1, 2, 4, 8, 16])
    assert max(r for _, r in series) > 1.0 + 1e-8
    for atoms in (CRITICAL_PAIR, SUBCRITICAL_BRANCHY, GW_SUPERCRITICAL):
        series = rho_sweep(single_env(atoms), 3, [1, 2, 4, 8, 16])
        assert max(r for _, r in series) <= 1.0 + 1e-8
    series = rho_sweep(two_state_env(), 3, [1, 2, 4, 8, 16])
    assert max(r for _, r in series) <= 1.0 + 1e-8


def test_constant_environment_limit():
    # windows approach mu0 + 2 sqrt(mu- mu+) from below
    env = single_env(GW_SUPERCRITICAL)
    limit = 2.0 * math.sqrt(1.2 * 0.05)
    series = rho_sweep(env, 0, [8, 16, 32, 64])
    assert series[-1][1] < limit
    assert series[-1][1] == pytest.approx(limit, abs=5e-3)


# -- local survival: the feasible set against the windows' limit -------------


def rho_inf(env) -> float:
    """min over lam of max_s (mu-_s/lam + mu0_s + mu+_s*lam), by ternary search
    on ln lam (a maximum of functions convex in ln lam is convex): the limit of
    the window roots, found without the closed-form feasible set."""

    def worst_row_sum(u):
        lam = math.exp(u)
        return max(m.mu_minus / lam + m.mu_zero + m.mu_plus * lam for m in env.state_moments)

    lo, hi = -30.0, 30.0
    for _ in range(100):
        a, b = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        if worst_row_sum(a) < worst_row_sum(b):
            hi = b
        else:
            lo = a
    return worst_row_sum(0.5 * (lo + hi))


@settings(max_examples=400, deadline=None)
@given(valid_laws(), st.integers(0, 2**32))
def test_feasible_set_is_empty_exactly_when_the_window_limit_exceeds_one(env, seed):
    # the paper's local-survival characterization: no feasible lambda iff rho > 1
    limit = rho_inf(env)
    if abs(limit - 1.0) > 1e-6:
        assert lambda_feasible_set(env).is_empty == (limit > 1.0)
    # lam^x conjugates a window into one whose row sums are at most the limit's
    bound = limit + spectral.root_error_bound(env)
    assert all(rho <= bound for _, rho in rho_sweep(env, seed, [1, 2, 4, 8, 16]))
