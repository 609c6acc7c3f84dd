import numpy as np
import pytest
from hypothesis import settings, strategies as st

from brwre.envmodel import EnvironmentLaw, MomentTriple, law_from_atoms
from brwre.lyapunov import build_A, build_A_lambda

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


# Atom sets used across the suite, named by what their branching does.
# Moment triples are stated alongside; the classifier needs at least one
# atom with two or more children (condition B), so some triples appear in
# two variants.
GW_SUPERCRITICAL = [(0.6, (2, 0, 0)), (0.05, (0, 0, 1)), (0.35, (0, 0, 0))]  # (1.2, 0, 0.05)
TREBLE_OR_DIE = [(0.5, (1, 1, 1)), (0.5, (0, 0, 0))]  # (0.5, 0.5, 0.5)
CRITICAL_PAIR = [(0.5, (1, 0, 1)), (0.5, (0, 0, 0))]  # (0.5, 0, 0.5)
SUBCRITICAL_WALK = [(0.6, (1, 0, 0)), (0.15, (0, 0, 1)), (0.25, (0, 0, 0))]  # (0.6, 0, 0.15), no branching atom
SUBCRITICAL_BRANCHY = [(0.3, (2, 0, 0)), (0.15, (0, 0, 1)), (0.55, (0, 0, 0))]  # (0.6, 0, 0.15)
TWO_STATE_A = [(0.7, (2, 0, 0)), (0.05, (0, 0, 1)), (0.25, (0, 0, 0))]  # (1.4, 0, 0.05)
TWO_STATE_B = [(0.45, (2, 0, 0)), (0.08, (0, 0, 1)), (0.47, (0, 0, 0))]  # (0.9, 0, 0.08)
MIRROR_LEFT = [(0.15, (1, 0, 0)), (0.3, (0, 0, 2)), (0.55, (0, 0, 0))]  # (0.15, 0, 0.6), SUBCRITICAL_BRANCHY reflected


def single_env(atoms) -> EnvironmentLaw:
    return EnvironmentLaw.single(law_from_atoms(atoms))


def two_state_env() -> EnvironmentLaw:
    return EnvironmentLaw(
        [(0.5, law_from_atoms(TWO_STATE_A)), (0.5, law_from_atoms(TWO_STATE_B))]
    )


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
