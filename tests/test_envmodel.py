import importlib.util
import json
import pathlib
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from brwre.envmodel import (
    EnvironmentLaw,
    OffspringLaw,
    OffspringVector,
    derive_seed,
    law_from_atoms,
    moments,
    reflected,
    state_at,
    state_indices,
    validate_conditions,
)
import conftest
from conftest import GW_SUPERCRITICAL, single_env

ROOT = pathlib.Path(__file__).resolve().parents[1]


# -- construction -----------------------------------------------------------


def test_offspring_vector_rejects_negative():
    with pytest.raises(ValueError):
        OffspringVector(-1, 0, 0)


def test_offspring_vector_rejects_booleans():
    with pytest.raises(ValueError, match="v_minus must be a nonnegative integer, got True"):
        OffspringVector(True, False, 2)
    with pytest.raises(ValueError, match="v_minus"):
        law_from_atoms([(0.5, (True, 0, True)), (0.5, (0, 0, 0))])
    assert OffspringVector(np.int64(1), 0, np.uint8(2)).total == 3  # numpy integers still count


def test_law_rejects_bad_probability_sum():
    with pytest.raises(ValueError, match="sum"):
        law_from_atoms([(0.6, (1, 0, 0)), (0.3, (0, 0, 1))])


def test_law_renormalizes_within_tolerance():
    eps = 2e-13
    law = law_from_atoms([(0.5 + eps, (1, 0, 0)), (0.5, (0, 0, 1))])
    assert abs(sum(p for p, _ in law.atoms) - 1.0) < 1e-15


def test_law_rejects_duplicate_atoms():
    with pytest.raises(ValueError, match="duplicate"):
        law_from_atoms([(0.5, (1, 0, 0)), (0.5, (1, 0, 0))])


def test_law_rejects_empty():
    with pytest.raises(ValueError):
        OffspringLaw([])


def test_envlaw_rejects_bad_weights():
    law = law_from_atoms([(1.0, (1, 0, 1))])
    with pytest.raises(ValueError, match="weights"):
        EnvironmentLaw([(0.6, law)])


@pytest.mark.parametrize("build, fragment", [
    (lambda: OffspringLaw([(1.0, (1, 0, 1))]), "atom vector must be an OffspringVector"),
    (lambda: law_from_atoms([(1.5, (1, 0, 1))]), "atom probability 1.5 outside (0, 1]"),
    (lambda: law_from_atoms([(0.0, (1, 0, 1)), (1.0, (0, 0, 0))]),
     "atom probability 0.0 outside (0, 1]"),
    (lambda: EnvironmentLaw([]), "environment law needs at least one state"),
    (lambda: EnvironmentLaw([(1.0, [(1.0, (1, 0, 1))])]), "state law must be an OffspringLaw"),
    (lambda: EnvironmentLaw([(1.5, law_from_atoms([(1.0, (1, 0, 1))]))]),
     "state weight 1.5 outside (0, 1]"),
    (lambda: EnvironmentLaw([(0.0, law_from_atoms([(1.0, (1, 0, 1))]))]),
     "state weight 0.0 outside (0, 1]"),
], ids=["vector", "p-above-1", "p-zero", "no-state", "law", "weight-above-1", "weight-zero"])
def test_law_constructors_name_the_bad_input(build, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        build()


# -- moments ----------------------------------------------------------------


def test_moments_point_mass():
    assert moments(law_from_atoms([(1.0, (1, 0, 1))])).as_tuple() == (1.0, 0.0, 1.0)


def test_moments_null_offspring():
    assert moments(law_from_atoms([(1.0, (0, 0, 0))])).as_tuple() == (0.0, 0.0, 0.0)


def test_moments_weighted_sum():
    m = moments(law_from_atoms(GW_SUPERCRITICAL))
    assert m.as_tuple() == pytest.approx((1.2, 0.0, 0.05), abs=1e-15)


def _canonical_laws():
    """Every conftest atom set, each state of each benchmark workload and the README law."""
    laws = [law_from_atoms(atoms) for name, atoms in vars(conftest).items()
            if name.isupper() and isinstance(atoms, list)]
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    readme = (ROOT / "README.md").read_text()
    example = re.search(r"```json\n(.*?)```", readme[readme.index("Example config:"):], re.S)
    environments = [w["environment"] for w in workloads.WORKLOADS.values()]
    environments.append(json.loads(example.group(1))["environment"])
    for env in environments:
        for state in env["states"]:
            laws.append(law_from_atoms([(a["p"], a["v"]) for a in state["atoms"]]))
    return laws


def test_moments_match_numpy_on_the_canonical_laws():
    # the exact dot product agrees with the matmul it replaced on every law a
    # fixture or a benchmark report is built from, so none of those reports moves
    laws = _canonical_laws()
    assert len(laws) >= 12
    for law in laws:
        assert moments(law).as_tuple() == tuple((law.probabilities @ law.vectors).tolist())


# -- conditions -------------------------------------------------------------


def test_conditions_all_hold_for_gw_example():
    rep = validate_conditions(single_env(GW_SUPERCRITICAL))
    assert rep.cond_e and rep.cond_b and rep.cond_s
    assert rep.ok and rep.violations == ()


def test_conditions_all_fail_for_left_drift_point_mass():
    rep = validate_conditions(single_env([(1.0, (1, 0, 0))]))
    assert not rep.cond_e and not rep.cond_b and not rep.cond_s
    assert {v.condition for v in rep.violations} == {"E", "B", "S"}


def test_condition_s_fails_per_state():
    env = EnvironmentLaw(
        [
            (0.5, law_from_atoms([(0.5, (1, 0, 1)), (0.5, (0, 0, 0))])),
            (0.5, law_from_atoms([(0.5, (2, 0, 0)), (0.5, (0, 1, 0))])),  # never emits right
        ]
    )
    rep = validate_conditions(env)
    assert not rep.cond_s
    assert any(v.condition == "S" and v.state_index == 1 for v in rep.violations)


# -- quenched realization ---------------------------------------------------


def test_state_at_single_state_always_zero():
    env = single_env(GW_SUPERCRITICAL)
    assert {state_at(env, seed, site) for seed in (0, 7, 2**63) for site in (-5, 0, 9)} == {0}


def test_state_at_deterministic():
    env = two_equal_states()
    assert state_at(env, 123, 45) == state_at(env, 123, 45)


def two_equal_states() -> EnvironmentLaw:
    return EnvironmentLaw(
        [
            (0.5, law_from_atoms([(1.0, (1, 0, 1))])),
            (0.5, law_from_atoms([(1.0, (2, 0, 2))])),
        ]
    )


def test_state_frequencies_match_weights():
    # law of large numbers at 2e5+1 sites: binomial sd ~ 0.0011 << 0.01
    env = two_equal_states()
    sites = np.arange(-100_000, 100_001)
    idx = state_indices(env, 97, sites)
    freq = idx.mean()
    assert abs(freq - 0.5) < 0.01


def test_vectorized_indices_match_scalar():
    env = two_equal_states()
    sites = np.arange(-300, 301)
    vec = state_indices(env, 5, sites)
    scalar = np.array([state_at(env, 5, int(s)) for s in sites])
    np.testing.assert_array_equal(vec, scalar)


def test_per_site_seeds_match_scalar_calls():
    env = two_equal_states()
    sites = np.arange(-150, 151)
    seeds = np.array([derive_seed(11, k) for k in range(len(sites))], dtype=np.uint64)
    vec = state_indices(env, seeds, sites)
    per_site = [state_indices(env, int(q), np.array([s]))[0] for q, s in zip(seeds, sites)]
    np.testing.assert_array_equal(vec, per_site)
    np.testing.assert_array_equal(vec, [state_at(env, int(q), int(s)) for q, s in zip(seeds, sites)])
    # a constant seed array is the scalar call
    same = np.full(len(sites), 5, dtype=np.uint64)
    np.testing.assert_array_equal(state_indices(env, same, sites), state_indices(env, 5, sites))
    one = state_indices(single_env(GW_SUPERCRITICAL), seeds, sites)
    assert one.shape == sites.shape and not one.any()


def test_reflected_swaps_sides():
    env = single_env(GW_SUPERCRITICAL)
    m = moments(reflected(env).laws[0])
    assert m.as_tuple() == pytest.approx((0.05, 0.0, 1.2), abs=1e-15)


# -- properties -------------------------------------------------------------

_vectors = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))


@st.composite
def offspring_laws(draw, max_atoms=4):
    vecs = draw(st.lists(_vectors, min_size=1, max_size=max_atoms, unique=True))
    raw = draw(
        st.lists(st.floats(0.05, 1.0), min_size=len(vecs), max_size=len(vecs))
    )
    total = sum(raw)
    return OffspringLaw(
        [(w / total, OffspringVector(*v)) for w, v in zip(raw, vecs)]
    )


@given(offspring_laws(max_atoms=6))
def test_moments_are_the_correctly_rounded_dot_product(law):
    exact = [sum(Fraction(p) * v.as_tuple()[i] for p, v in law.atoms) for i in range(3)]
    assert moments(law).as_tuple() == tuple(float(x) for x in exact)  # one rounding each


@given(offspring_laws())
def test_moments_bounded_by_largest_atom(law):
    m = moments(law)
    assert min(m.as_tuple()) >= 0.0
    assert sum(m.as_tuple()) <= max(v.total for _, v in law.atoms) + 1e-12


@given(st.lists(offspring_laws(), min_size=1, max_size=3))
def test_cond_e_equals_cond_s_on_finite_mixtures(laws):
    # for finite-support laws a positive directional mean is exactly a
    # positive chance of emitting in that direction
    w = 1.0 / len(laws)
    rep = validate_conditions(EnvironmentLaw([(w, law) for law in laws]))
    assert rep.cond_e == rep.cond_s


@given(st.integers(0, 2**64 - 1), st.integers(-10**6, 10**6))
def test_state_at_pure(seed, site):
    env = two_equal_states()
    assert state_at(env, seed, site) == state_at(env, seed, site)
