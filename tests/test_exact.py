import math

import numpy as np
import pytest

from brwre import exact, simulator
from brwre.envmodel import derive_seed
from brwre.simulator import survival_probabilities
from conftest import (
    GW_SUPERCRITICAL,
    SUBCRITICAL_BRANCHY,
    TREBLE_OR_DIE,
    gw_extinction_probability,
    single_env,
    two_state_env,
)
from laws import LAWS, SIZES, law

# a stated roundoff floor for comparisons with an exact value: the tables carry a
# few ulps per generation, and the local event is a difference of three of them
ROUNDOFF = 1e-12


def table_at(envlaw, env_seed, horizon, t):
    """S_t, shape (3, 2t + 1), of the tables of a run of this horizon."""
    for time, q in exact.survival_tables(envlaw, env_seed, horizon, t):
        if time == t:
            return -np.expm1(q)


@pytest.mark.parametrize("atoms", [GW_SUPERCRITICAL, TREBLE_OR_DIE, SUBCRITICAL_BRANCHY],
                         ids=["readme", "strong-local", "subcritical"])
def test_global_table_is_the_galton_watson_iteration(atoms):
    # on one state the total population is a Galton-Watson process: k generations
    # before the horizon, every site's global value is 1 - f^k(0), the scalar iteration
    env, horizon = single_env(atoms), 40
    for t, q in exact.survival_tables(env, 3, horizon):
        s = -np.expm1(q[exact.GLOBAL])
        assert s.shape == (2 * t + 1,)
        want = 1.0 - gw_extinction_probability(atoms, iterations=horizon - t)
        assert np.all(np.abs(s - want) <= ROUNDOFF)


@pytest.mark.parametrize("name, value", [("readme", 5.0 / 12.0),
                                         ("strong-local", (3.0 - math.sqrt(5.0)) / 2.0)])
def test_global_table_reaches_the_closed_form(name, value):
    g, joint = exact.origin_values(law(name), 3, 400)
    assert g == pytest.approx(value, abs=ROUNDOFF)
    # strong-local is symmetric: a surviving trial revisits the origin late; the
    # README law drifts away from it
    assert joint == pytest.approx(value if name == "strong-local" else 0.0, abs=1e-9)


def test_local_tables_on_a_deterministic_split():
    # every particle sends one child each way: from x at time t the origin is
    # occupied at time s exactly when |x| <= s - t and x + s - t is even, and the
    # process never dies.  LOCAL is that event for some s >= max(t, H/2); EITHER is 1
    env, horizon = single_env([(1.0, (1, 0, 1))]), 9
    for t in range(horizon + 1):
        s = table_at(env, 0, horizon, t)
        x = np.arange(-t, t + 1)
        visits = [(np.abs(x) <= u - t) & ((x + u - t) % 2 == 0)
                  for u in range(max(t, (horizon + 1) // 2), horizon + 1)]
        assert np.array_equal(s[exact.LOCAL], np.any(visits, axis=0).astype(float))
        assert np.array_equal(s[exact.GLOBAL], np.ones(2 * t + 1))
        assert np.array_equal(s[exact.EITHER], np.ones(2 * t + 1))


def test_trace_table_is_the_mean_recursion():
    # two states: E_x h_k / lam^x from the dense mean-offspring matrix on a window
    # wide enough that its edges are never reached, against trace_logs, whose array
    # of seeds gives one table per seed along a leading axis
    env, seeds, lam, horizon = two_state_env(), np.array([5, 6], np.uint64), 2.0, 12
    from brwre.envmodel import state_indices
    tables = exact.trace_logs(env, seeds, math.log(lam), horizon)
    assert tables.shape == (2, horizon + 1, 2 * horizon + 1)
    sites = np.arange(-2 * horizon, 2 * horizon + 1)
    n = len(sites)
    for seed, table in zip(seeds.tolist(), tables):
        moments = np.array(env.state_moments)[state_indices(env, seed, sites)]
        m = np.zeros((n, n))  # m[i, j]: mean children at sites[j] of a particle at sites[i]
        for i in range(n):
            for d, mu in zip((-1, 0, 1), moments[i]):
                if 0 <= i + d < n:
                    m[i, i + d] = mu
        mean = lam ** sites.astype(float)
        for k in range(horizon + 1):
            for x in range(-(horizon - k), horizon - k + 1):
                want = mean[x + 2 * horizon] / lam**x
                assert math.exp(table[k, x + horizon]) == pytest.approx(want, rel=1e-12)
            mean = m @ mean
        # both states have positive slack at lam = 2, so g decreases
        assert np.all(np.diff(table[:, horizon]) < 0.0)
        # one seed gives its table alone, and a depth its first rows
        assert np.array_equal(exact.trace_logs(env, seed, math.log(lam), horizon), table,
                              equal_nan=True)
        assert np.array_equal(exact.trace_logs(env, seed, math.log(lam), horizon, 4), table[:5],
                              equal_nan=True)
    assert not np.array_equal(*tables, equal_nan=True)


@pytest.mark.parametrize("name", ["two-state", "tie"])
def test_stopped_estimator_agrees_with_the_unstopped_one(monkeypatch, name):
    # the unstopped run: no population reaches K = min(STOP_POPULATION, cap), so
    # every trial runs to its end and counts its events as 0 or 1.  The two-state
    # law drifts away from the origin, so its local event is small at horizon 40
    # (5.7e-7 exactly); on tie it is 0.18
    env, kwargs = law(name), dict(trials=1000, horizon=40, env_seed=11, seed=12)
    stopped = survival_probabilities(env, **kwargs)
    assert any(o.status == simulator.STOPPED for o in stopped.outcomes)
    monkeypatch.setattr(simulator, "STOP_POPULATION", 1 << 62)
    plain = survival_probabilities(env, cap=1 << 62, **kwargs)
    assert {o.status for o in plain.outcomes} <= {simulator.EXTINCT, simulator.ALIVE_AT_HORIZON}
    for field in ("global", "local_proxy"):
        a, b = getattr(stopped, f"{field}_freq"), getattr(plain, f"{field}_freq")
        se = math.hypot(getattr(stopped, f"{field}_stderr"), getattr(plain, f"{field}_stderr"))
        assert abs(a - b) <= 3.0 * se, field


@pytest.mark.parametrize("name", LAWS)
def test_estimates_match_the_exact_values(name):
    # at the harness sizes and seeds, each estimate lies within 3 of its stderrs,
    # plus the roundoff floor, of the exact value at time 0 on the same environment.
    # A stderr is taken no smaller than the binomial one at the exact value, the
    # most a value conditioned on the trial's start can spread: where the event is
    # rare (the README law's local event reads 5e-11) the trials see none of the
    # paths that carry it, and their spread says nothing
    env, sim, seed = law(name), SIZES["simulate"], SIZES["seed"]
    env_seed = derive_seed(seed, 1)
    trials = sim["trials"]
    est = survival_probabilities(env, trials=trials, horizon=sim["horizon"], cap=sim["cap"],
                                 env_seed=env_seed, seed=derive_seed(seed, 3))
    g, joint = exact.origin_values(env, env_seed, sim["horizon"])
    for value, se, p in ((est.global_freq, est.global_stderr, g),
                         (est.local_proxy_freq, est.local_proxy_stderr, joint)):
        width = max(se, math.sqrt(p * (1.0 - p) / trials))
        assert abs(value - p) <= 3.0 * width + ROUNDOFF


def test_no_stopped_trial_builds_no_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("table built")

    monkeypatch.setattr(exact, "survival_tables", refuse)
    monkeypatch.setattr(exact, "trace_logs", refuse)
    # subcritical: no trial reaches STOP_POPULATION, so neither table is built
    est = survival_probabilities(single_env(SUBCRITICAL_BRANCHY), trials=2000, horizon=400,
                                 env_seed=1, seed=2, lam=2.0)
    assert simulator.STOPPED not in {o.status for o in est.outcomes}
    # a supercritical law stops trials, and reads them from the tables
    with pytest.raises(AssertionError, match="table built"):
        survival_probabilities(single_env(GW_SUPERCRITICAL), trials=200, horizon=400,
                               env_seed=1, seed=2)
    with pytest.raises(AssertionError, match="table built"):
        survival_probabilities(single_env(GW_SUPERCRITICAL), trials=200, horizon=400,
                               env_seed=1, seed=2, lam=2.0)
