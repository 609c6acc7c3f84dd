import math

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from brwre.envmodel import EnvironmentLaw, MomentTriple, law_from_atoms
from brwre.lyapunov import build_A, build_A_lambda
from laws import LAWS, law

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


# Atom sets used across the suite, named by what their branching does; those
# of a named law are read from tests/laws.py.  Moment triples are stated
# alongside; the classifier needs at least one atom with two or more children
# (condition B), so some triples appear in two variants.
(_, GW_SUPERCRITICAL), = LAWS["readme"]  # (1.2, 0, 0.05)
(_, TREBLE_OR_DIE), = LAWS["strong-local"]  # (0.5, 0.5, 0.5)
CRITICAL_PAIR = [(0.5, (1, 0, 1)), (0.5, (0, 0, 0))]  # (0.5, 0, 0.5)
SUBCRITICAL_WALK = [(0.6, (1, 0, 0)), (0.15, (0, 0, 1)), (0.25, (0, 0, 0))]  # (0.6, 0, 0.15), no branching atom
# (1.4, 0, 0.05) and (0.9, 0, 0.08)
(_, TWO_STATE_A), (_, TWO_STATE_B) = LAWS["two-state"]
# (0.6, 0, 0.15), and (0.15, 0, 0.6): SUBCRITICAL_BRANCHY reflected
(_, SUBCRITICAL_BRANCHY), (_, MIRROR_LEFT) = LAWS["both"]


def single_env(atoms) -> EnvironmentLaw:
    return EnvironmentLaw.single(law_from_atoms(atoms))


def two_state_env() -> EnvironmentLaw:
    return law("two-state")


@st.composite
def valid_laws(draw):
    """1 to 3 states, each with atoms (l, 0, 0), (0, 0, r) and (0, k, 0).  The
    left share of the mass on the first two atoms is drawn once per law, so
    the states lean the same way and every branch of the classifier comes up."""
    split, states = draw(st.floats(0.02, 0.98)), []
    for _ in range(draw(st.integers(1, 3))):
        left, right = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        stay, moving = draw(st.integers(0, 1)), draw(st.floats(0.05, 0.95))
        atoms = [(moving * split, (left, 0, 0)), (moving * (1.0 - split), (0, 0, right)),
                 (1.0 - moving, (0, stay, 0))]
        states.append((draw(st.floats(0.1, 1.0)), law_from_atoms(atoms)))
    total = sum(w for w, _ in states)
    return EnvironmentLaw([(w / total, law) for w, law in states])


def law_with_interval(lo: float, hi: float, f: float):
    """An offspring law whose feasible interval is [lo, hi] up to rounding.

    Its quadratic is mu+ (lam - lo)(lam - hi), so mu+ = f / (lo + hi),
    mu- = mu+ lo hi and mu0 = 1 - f.  Each mean mu sits on an atom of k >= 2
    children at mass mu / k, with k = ceil(4 mu) so that each mass is at most
    1/4, and the rest of the mass on (0, 0, 0)."""
    mu_plus = f / (lo + hi)
    atoms = []
    for mu, unit in ((mu_plus * lo * hi, (1, 0, 0)), (1.0 - f, (0, 1, 0)), (mu_plus, (0, 0, 1))):
        if mu > 0.0:
            k = max(2, math.ceil(4.0 * mu))
            atoms.append((mu / k, tuple(k * u for u in unit)))
    return law_from_atoms(atoms + [(1.0 - sum(p for p, _ in atoms), (0, 0, 0))])


@st.composite
def touching_laws(draw):
    """(law, point): 2 or 3 states whose intervals touch at one chosen point t,
    built from their ends: each is [u t, t] or [t, t / u], at least one of each."""
    t = draw(st.floats(0.2, 5.0))
    upper = [True, False] + draw(st.lists(st.booleans(), max_size=1))
    states = []
    for ends_at_t in upper:
        u = draw(st.floats(0.05, 0.95))
        lo, hi = (u * t, t) if ends_at_t else (t, t / u)
        states.append((draw(st.floats(0.1, 1.0)), law_with_interval(lo, hi, draw(st.floats(0.05, 1.0)))))
    total = sum(w for w, _ in states)
    return EnvironmentLaw([(w / total, law) for w, law in states]), t


@st.composite
def overlapping_laws(draw):
    """2 or 3 states whose intervals [u t, t / v] all hold one drawn point t, so
    the law's feasible set is nonempty: every such law, by its states' moments."""
    t, states = draw(st.floats(0.2, 5.0)), []
    for _ in range(draw(st.integers(2, 3))):
        lo, hi = t * draw(st.floats(0.05, 0.95)), t / draw(st.floats(0.05, 0.95))
        states.append((draw(st.floats(0.1, 1.0)), law_with_interval(lo, hi, draw(st.floats(0.05, 1.0)))))
    total = sum(w for w, _ in states)
    return EnvironmentLaw([(w / total, law) for w, law in states])


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


def gw_extinction_probability(atoms, iterations: int = 500) -> float:
    """Minimal fixed point of the offspring-total generating function,
    by direct iteration from 0: the brute-force extinction oracle."""
    totals = {}
    for p, v in atoms:
        totals[sum(v)] = totals.get(sum(v), 0.0) + p
    q = 0.0
    for _ in range(iterations):
        q = sum(p * q**k for k, p in totals.items())
    return q


def conjugacy_residual(m: MomentTriple, lam: float) -> float:
    """Max-abs entry of A - lam * B^-1 A_lambda B, B = [[1, -lam], [1, 0]]: 0 up to roundoff."""
    b = np.array([[1.0, -lam], [1.0, 0.0]])
    return float(np.abs(build_A(m) - lam * np.linalg.solve(b, build_A_lambda(m, lam) @ b)).max())


@pytest.fixture
def rng():
    return np.random.default_rng(20250809)
