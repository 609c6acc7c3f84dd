import math
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from brwre import exact, simulator
from brwre.envmodel import EnvironmentLaw, derive_seed, law_from_atoms, state_indices
from brwre.simulator import (
    ALIVE_AT_HORIZON,
    CAP_REACHED,
    EXTINCT,
    STOPPED,
    CensoringError,
    frozen_mean_profile,
    run_batch,
    survival_probabilities,
)
from conftest import (
    CRITICAL_PAIR,
    GW_SUPERCRITICAL,
    SUBCRITICAL_BRANCHY,
    SUBCRITICAL_WALK,
    TREBLE_OR_DIE,
    gw_extinction_probability,
    single_env,
    two_state_env,
)


def branch_once(envlaw, counts, rng, env_seed=0):
    """One generation of a single row from {site: count}, as {site: count}."""
    sites = np.array(sorted(counts), dtype=np.int64)
    rows = np.zeros(len(sites), dtype=np.int64)
    _, sites, counts = simulator._branch(
        envlaw, env_seed, rows, sites, np.array([counts[s] for s in sites.tolist()]), rng)
    return dict(zip(sites.tolist(), counts.tolist()))


def one_trial(envlaw, env_seed, trial_seed, horizon, cap):
    """One trial from the origin: a one-row run_batch on stream (env_seed, trial_seed), as
    (status, end time, last origin visit)."""
    run = run_batch(envlaw, env_seed, [0], 1, horizon, (env_seed, trial_seed), cap=cap)
    return Row(run.status[0], int(run.end_time[0]), int(run.last_origin_visit[0]))


class Row(NamedTuple):
    status: str
    end_time: int
    last_origin_visit: int


def frozen_trial(envlaw, env_seed, level, trial_seed, max_time=5_000, max_population=1_000_000):
    """One frozen progeny count from level, on stream (env_seed, level, trial_seed),
    or None when the run is censored."""
    run = run_batch(envlaw, env_seed, [level], 1, max_time, (env_seed, level, trial_seed),
                    cap=max_population + 1, freeze=True)
    return int(run.frozen[0]) if run.status[0] == EXTINCT else None


# -- stepping ----------------------------------------------------------------


def test_step_deterministic_split_offspring(rng):
    out = branch_once(single_env([(1.0, (1, 0, 1))]), {0: 1}, rng)
    assert out == {-1: 1, 1: 1}


def test_step_null_offspring_kills_everything(rng):
    assert branch_once(single_env([(1.0, (0, 0, 0))]), {0: 1}, rng) == {}


def test_step_mean_offspring_large_population(rng):
    # mean total offspring 1.25, per-particle variance 0.8875: the relative
    # error of the mean over 1e6 particles is within 0.01 at ~10 sigma
    out = branch_once(single_env(GW_SUPERCRITICAL), {0: 10**6}, rng)
    assert abs(sum(out.values()) / 1e6 - 1.25) < 0.01


def test_step_aggregation_matches_per_particle_sampling(rng):
    """Multinomial aggregation must match per-particle draws in law.

    Two-sample moment comparison over randomized (law, count) cases; a
    3-sigma criterion over hundreds of cases is expected to produce a few
    exceedances by chance, so the gate is >=99% within 3 sigma and all
    within 5 sigma.
    """
    pool = [
        law_from_atoms(GW_SUPERCRITICAL),
        law_from_atoms(TREBLE_OR_DIE),
        law_from_atoms([(0.3, (2, 1, 0)), (0.3, (0, 0, 3)), (0.4, (1, 0, 1))]),
        law_from_atoms([(0.9, (0, 2, 0)), (0.1, (3, 0, 3))]),
    ]
    n_samples = 400
    z_scores = []
    for _ in range(250):
        law = pool[rng.integers(len(pool))]
        count = int(rng.integers(1, 51))
        vecs = law.vectors.sum(axis=1)

        agg = rng.multinomial(count, law.probabilities, size=n_samples) @ vecs
        idx = rng.choice(len(vecs), size=(n_samples, count), p=law.probabilities)
        per_particle = vecs[idx].sum(axis=1)

        for a, b in ((agg, per_particle),):
            se_mean = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(n_samples)
            z_scores.append(abs(a.mean() - b.mean()) / se_mean)
            va, vb = a.var(ddof=1), b.var(ddof=1)
            mu4 = lambda x: ((x - x.mean()) ** 4).mean()
            se_var = math.sqrt(
                (mu4(a) - va**2) / n_samples + (mu4(b) - vb**2) / n_samples
            )
            if se_var > 0:
                z_scores.append(abs(va - vb) / se_var)
    z = np.array(z_scores)
    assert (z <= 3.0).mean() >= 0.99
    assert z.max() <= 5.0


# -- trials ------------------------------------------------------------------


def test_trial_null_offspring_extinct_at_one():
    out = one_trial(single_env([(1.0, (0, 0, 0))]), 0, 0, horizon=10, cap=100)
    assert out.status == EXTINCT
    assert out.end_time == 1


def test_trial_deterministic_reproduction():
    env = single_env(GW_SUPERCRITICAL)
    a = one_trial(env, 12, 34, horizon=50, cap=10**4)
    b = one_trial(env, 12, 34, horizon=50, cap=10**4)
    assert a == b


def test_trial_deterministic_split_tracks_origin():
    # every particle sends one child each way: 2^t particles on the sites of
    # t's parity, so the origin is occupied exactly at even times
    env = single_env([(1.0, (1, 0, 1))])
    for horizon, last in ((10, 10), (9, 8)):
        out = one_trial(env, 0, 0, horizon=horizon, cap=10**9)
        assert out.status == ALIVE_AT_HORIZON and out.end_time == horizon
        assert out.last_origin_visit == last


def test_trial_cap_reached_before_the_horizon():
    env = single_env(TREBLE_OR_DIE)
    for seed in range(20):
        out = one_trial(env, 1, seed, horizon=400, cap=1000)
        if out.status == CAP_REACHED:
            assert out.end_time < 400
            return
    pytest.fail("no trial reached the cap")


def test_survival_frequency_matches_branching_oracle():
    q = gw_extinction_probability(GW_SUPERCRITICAL)
    assert q == pytest.approx(7.0 / 12.0, abs=1e-12)
    est = survival_probabilities(
        single_env(GW_SUPERCRITICAL), trials=2000, horizon=300, cap=10**5,
        env_seed=11, seed=5,
    )
    assert abs(est.global_freq - (1.0 - q)) <= 4.0 * max(est.global_stderr, 1e-3)


def test_survival_golden_ratio_law():
    q = gw_extinction_probability(TREBLE_OR_DIE)
    assert q == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=1e-12)
    est = survival_probabilities(
        single_env(TREBLE_OR_DIE), trials=2000, horizon=300, cap=10**5,
        env_seed=11, seed=5,
    )
    assert abs(est.global_freq - (1.0 - q)) <= 4.0 * max(est.global_stderr, 1e-3)


_GW_VECTORS = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (0, 0, 2), (1, 0, 1),
               (0, 2, 0), (1, 1, 1), (3, 0, 0)]


@st.composite
def one_state_gw_laws(draw):
    """One-state atom lists over _GW_VECTORS, offspring totals 0 to 3."""
    vectors = draw(st.lists(st.sampled_from(_GW_VECTORS), min_size=2, max_size=4, unique=True))
    weights = [draw(st.floats(0.05, 1.0)) for _ in vectors]
    return [(w / sum(weights), v) for w, v in zip(weights, vectors)]


@given(one_state_gw_laws())
@settings(max_examples=20, deadline=None)
def test_survival_matches_the_galton_watson_fixed_point(atoms):
    # on one state the total population is a Galton-Watson process; away from
    # criticality horizon 200 and cap 10^4 leave no undecided trial to speak of
    mean = sum(p * sum(v) for p, v in atoms)
    assume(not 0.8 <= mean <= 1.25)
    q = gw_extinction_probability(atoms)
    est = survival_probabilities(single_env(atoms), trials=1000, horizon=200, cap=10**4,
                                 env_seed=11, seed=5)
    assert abs(est.global_freq - (1.0 - q)) <= 4.0 * max(est.global_stderr, 1e-3)


def test_survival_subcritical_dies():
    est = survival_probabilities(
        single_env(SUBCRITICAL_WALK), trials=1000, horizon=400, cap=10**6,
        env_seed=3, seed=4,
    )
    assert est.global_freq <= 0.01


def test_local_proxy_tracks_global_for_strong_local_law():
    est = survival_probabilities(
        single_env(TREBLE_OR_DIE), trials=1000, horizon=300, cap=10**5,
        env_seed=2, seed=9,
    )
    tol = 3.0 * math.hypot(est.global_stderr, est.local_proxy_stderr)
    assert abs(est.global_freq - est.local_proxy_freq) <= tol


def test_local_proxy_vanishes_for_drifting_law():
    est = survival_probabilities(
        single_env(GW_SUPERCRITICAL), trials=1000, horizon=300, cap=10**5,
        env_seed=2, seed=9,
    )
    assert est.global_freq > 0.3
    assert est.local_proxy_freq <= 0.01


def test_survival_modes_and_validation():
    env = single_env(GW_SUPERCRITICAL)
    with pytest.raises(ValueError):
        survival_probabilities(env, trials=50)
    with pytest.raises(ValueError):
        survival_probabilities(env, trials=200, mode="other")
    quenched = survival_probabilities(env, trials=100, horizon=50, cap=10**4, env_seed=1, seed=1)
    annealed = survival_probabilities(
        env, trials=100, horizon=50, cap=10**4, env_seed=1, seed=1, mode="annealed"
    )
    assert quenched.mode == "quenched" and annealed.mode == "annealed"


def test_survival_workers_do_not_change_result():
    env = single_env(GW_SUPERCRITICAL)
    a = survival_probabilities(env, trials=120, horizon=60, cap=10**4, env_seed=7, seed=7)
    b = survival_probabilities(
        env, trials=120, horizon=60, cap=10**4, env_seed=7, seed=7, n_workers=4
    )
    assert a.outcomes == b.outcomes


def _events(o):
    """A settled trial's survival and local-event values, from its status: alive, and
    alive with the origin occupied in the second half of its span."""
    alive = o.status != EXTINCT
    return float(alive), float(alive and 2 * o.last_origin_visit >= o.end_time)


def _summary(values, outcomes):
    """(value, stderr) of the mean survival and local-event values, and of the mean
    extinction time."""
    values = np.asarray(values)
    out = list(zip(values.mean(axis=0), values.std(axis=0) / math.sqrt(len(values))))
    times = np.array([o.end_time for o in outcomes if o.status == EXTINCT], dtype=float)
    out.append((times.mean(), times.std(ddof=1) / math.sqrt(len(times))))
    return out


@pytest.mark.parametrize("mode", ["quenched", "annealed"])
def test_frequencies_are_counted_from_the_outcomes(mode):
    # two left-leaning states that kill most trials: every way a trial ends comes
    # up, and some trials survive away from the origin.  In quenched mode the
    # trials share the environment, so they stop at min(STOP_POPULATION, cap)
    # and the stopped ones carry exact values; in annealed mode they are capped
    env = EnvironmentLaw([
        (0.5, law_from_atoms([(0.35, (1, 0, 1)), (0.25, (1, 0, 0)), (0.1, (0, 0, 1)),
                              (0.3, (0, 0, 0))])),
        (0.5, law_from_atoms([(0.4, (1, 0, 1)), (0.2, (1, 0, 0)), (0.1, (0, 0, 1)),
                              (0.3, (0, 0, 0))]))])
    trials = 300
    est = survival_probabilities(env, trials=trials, horizon=60, cap=200, mode=mode,
                                 env_seed=3, seed=4)
    ended = STOPPED if mode == "quenched" else CAP_REACHED
    assert {o.status for o in est.outcomes} == {EXTINCT, ended, ALIVE_AT_HORIZON}
    values = np.array([(o.global_prob, o.local_prob) for o in est.outcomes])
    for o, v in zip(est.outcomes, values):
        if o.status != STOPPED:
            assert tuple(v) == _events(o)
        else:
            assert 0.0 <= v[1] <= v[0] <= 1.0
    alive, local = values.sum(axis=0)
    assert 0 < local < alive
    assert (est.global_freq, est.local_proxy_freq) == pytest.approx(values.mean(axis=0),
                                                                     rel=1e-12)
    assert (est.global_stderr, est.local_proxy_stderr) == pytest.approx(
        values.std(axis=0) / math.sqrt(trials), rel=1e-12)
    if mode == "annealed":
        assert (est.global_freq, est.local_proxy_freq) == (alive / trials, local / trials)


def test_local_proxy_counts_a_visit_at_half_the_span():
    # every particle has a child, so no trial dies; one that stays at the origin
    # at generation 1 and then leaves it has 2 last_origin_visit == end_time == 2,
    # a visit in the second half of its span, which the local proxy counts
    env = single_env([(0.5, (0, 1, 0)), (0.3, (2, 0, 0)), (0.2, (0, 0, 1))])
    trials = 200
    est = survival_probabilities(env, trials=trials, horizon=2, env_seed=5, seed=6)
    assert all(o.status == ALIVE_AT_HORIZON and o.end_time == 2 for o in est.outcomes)
    assert any(o.last_origin_visit == 1 for o in est.outcomes)
    local = sum(_events(o)[1] for o in est.outcomes)
    assert local > sum(o.last_origin_visit == 2 for o in est.outcomes)
    assert est.local_proxy_freq == local / trials


@pytest.mark.parametrize(
    "env, mode",
    [(single_env(TREBLE_OR_DIE), "quenched"), (two_state_env(), "quenched"),
     (two_state_env(), "annealed")],
    ids=["treble-quenched", "two-state-quenched", "two-state-annealed"],
)
def test_batched_survival_matches_single_trial_oracle(env, mode):
    # the oracle runs each trial alone on its own stream, by the same rule: where
    # the trials share the environment it caps each at min(STOP_POPULATION, cap)
    # and reads the capped (Stopped) ones from the exact tables, else it caps them
    trials, horizon, cap, env_seed, seed = 1000, 200, 500, 21, 22
    batched = survival_probabilities(env, trials=trials, horizon=horizon, cap=cap, mode=mode,
                                     env_seed=env_seed, seed=seed)
    stop = mode == "quenched"
    ended = STOPPED if stop else CAP_REACHED
    oracle, groups = [], []
    for i in range(trials):
        if stop:
            run = run_batch(env, env_seed, [0], 1, horizon, (env_seed, derive_seed(seed, i)),
                            cap=min(simulator.STOP_POPULATION, cap))
            row = Row(run.status[0], int(run.end_time[0]), int(run.last_origin_visit[0]))
            if run.at_cap is not None:
                row = row._replace(status=STOPPED)
                _, sites, counts = run.at_cap
                groups += [(i, row.end_time, x, c) for x, c in zip(sites.tolist(), counts.tolist())]
        else:
            row = one_trial(env, derive_seed(env_seed, 1 + i), derive_seed(seed, i), horizon, cap)
        oracle.append(row)
    values = np.array([_events(o) for o in oracle])
    if stop:
        g, joint = exact.read_stopped(env, env_seed, horizon, *map(np.array, zip(*groups)),
                                      trials)
        for i, o in enumerate(oracle):
            if o.status == STOPPED:
                values[i] = g[i], g[i] if 2 * o.last_origin_visit >= horizon else joint[i]
    mine = [(o.global_prob, o.local_prob) for o in batched.outcomes]
    for (a, se_a), (b, se_b) in zip(_summary(mine, batched.outcomes), _summary(values, oracle)):
        assert abs(a - b) <= 4.0 * math.hypot(se_a, se_b)
    ends = [o for o in batched.outcomes if o.status == ended]
    assert ends
    assert all(o.end_time < horizon for o in ends)


def test_batches_draw_independent_streams():
    n = simulator.TRIAL_BATCH
    kwargs = dict(horizon=50, cap=1000, env_seed=3, seed=4)
    two = survival_probabilities(single_env(TREBLE_OR_DIE), trials=2 * n, **kwargs)
    one = survival_probabilities(single_env(TREBLE_OR_DIE), trials=n, **kwargs)
    assert two.outcomes[:n] != two.outcomes[n:]
    # a batch's stream is fixed by its index, not by how many trials follow
    assert two.outcomes[:n] == one.outcomes


def test_hard_count_guard_in_batched_runs(monkeypatch):
    monkeypatch.setattr(simulator, "_HARD_COUNT", 40)
    # the guard ends a row as the cap does, traced or not, and nothing raises: where
    # the trials share the environment it stops them, here before STOP_POPULATION
    shared = survival_probabilities(single_env(GW_SUPERCRITICAL), trials=200, horizon=60,
                                    env_seed=5, seed=1, lam=2.0)
    assert {o.status for o in shared.outcomes} == {EXTINCT, STOPPED}
    assert all(o.global_prob > 0.99 for o in shared.outcomes if o.status == STOPPED)
    # annealed mode on two states: the guard, not the cap, caps the rows, traced
    # ones too, before the trace horizon; a cap no row can reach changes nothing,
    # and neither does the trace, whose capped rows read their exact means
    env = two_state_env()
    kwargs = dict(trials=200, horizon=400, cap=10**9, mode="annealed", env_seed=5, seed=1)
    est = survival_probabilities(env, **kwargs)
    assert any(o.status == CAP_REACHED and o.end_time < simulator.TRACE_HORIZON
               for o in est.outcomes)
    assert est.outcomes == survival_probabilities(env, **{**kwargs, "cap": 1 << 62}).outcomes
    assert not any(o.status == ALIVE_AT_HORIZON for o in est.outcomes)
    traced = survival_probabilities(env, lam=2.0, **kwargs)
    assert traced.outcomes == est.outcomes
    assert np.all(np.isfinite(traced.trace.mean_h)) and np.all(traced.trace.mean_h > 0.0)
    # quenched sites where each particle dies or doubles in place: a row started at
    # a doubling site passes the guard at t = 6, traced or not, and its h_t is
    # 2^t lam^site up to then
    n = simulator.TRIAL_BATCH
    monkeypatch.setattr(simulator, "TRACE_BATCHES", 1)
    fates = EnvironmentLaw([(0.5, law_from_atoms([(1.0, (0, 0, 0))])),
                            (0.5, law_from_atoms([(1.0, (0, 2, 0))]))])
    sites = np.arange(-20, 21)
    states = state_indices(fates, 5, sites)
    die, double = int(sites[states == 0][0]), int(sites[states == 1][0])
    trace_kwargs = dict(cap=10**9, log_lam=math.log(2.0))
    run = run_batch(fates, 5, [die] * n + [double] * 8, 1, 60, (5, 1), **trace_kwargs)
    assert set(run.status[:n]) == {EXTINCT} and set(run.end_time[:n]) == {1}
    assert set(run.status[n:]) == {CAP_REACHED} and set(run.end_time[n:]) == {6}
    run = run_batch(fates, 5, [double] * (n + 8), 1, 60, (5, 1), **trace_kwargs)
    assert set(run.status) == {CAP_REACHED} and set(run.end_time) == {6}
    np.testing.assert_allclose(simulator._trace(2.0, run.trace).mean_h[:7],
                               2.0 ** (np.arange(7) + double), rtol=1e-12)


def same_moments_env():
    """GW_SUPERCRITICAL and a state of the same moments (1.2, 0, 0.05), half each."""
    return EnvironmentLaw([(0.5, law_from_atoms(GW_SUPERCRITICAL)),
                           (0.5, law_from_atoms([(0.4, (3, 0, 0)), (0.05, (0, 0, 1)),
                                                 (0.55, (0, 0, 0))]))])


def test_shared_trace_is_not_censored_by_the_cap():
    # one state: E h_n = (mu-/lam + mu0 + mu+ lam)^n exactly; lam = 1.5 keeps the
    # tail of h_n light enough for its sample stderr.  The trials stop at
    # STOP_POPULATION, and a stopped one's trace reads its exact conditional
    # mean, so the trace stays unbiased
    lam, trials, horizon = 1.5, 2000, simulator.TRACE_HORIZON
    env = single_env(GW_SUPERCRITICAL)
    est = survival_probabilities(env, trials=trials, horizon=horizon, cap=1000, env_seed=3,
                                 seed=4, lam=lam)
    early = sum(o.status == STOPPED and o.end_time < horizon for o in est.outcomes)
    assert early > 0.9 * sum(o.status != EXTINCT for o in est.outcomes)
    trace = est.trace
    assert (trace.lam, trace.trials, trace.horizon) == (lam, trials, horizon)
    mean = (1.2 / lam + 0.05 * lam) ** np.arange(horizon + 1)
    assert trace.mean_h[0] == 1.0 and trace.stderr_h[0] == 0.0
    assert np.all(np.abs(trace.mean_h[1:] - mean[1:]) <= 4.0 * trace.stderr_h[1:])
    # annealed mode on two states with the same moments: E h_n is the same in every
    # environment, and each capped traced trial reads its exact conditional mean
    # on its own environment from then on
    est = survival_probabilities(same_moments_env(), trials=trials, horizon=horizon, cap=100,
                                 mode="annealed", env_seed=3, seed=4, lam=lam)
    assert sum(o.status == CAP_REACHED and o.end_time < horizon for o in est.outcomes) > 500
    trace = est.trace
    assert trace.mean_h[0] == 1.0 and trace.stderr_h[0] == 0.0
    assert np.all(np.abs(trace.mean_h[1:] - mean[1:]) <= 4.0 * trace.stderr_h[1:])


def test_annealed_capped_rows_read_their_own_environment():
    # two children one step left, two or three by the state: 2^t to 3^t particles
    # at -t, so every row reaches the cap 32 by t = 5, and its h_t is the product of
    # its own environment's factors k/lam at sites 0, -1, ..., -(t-1), surely
    env = EnvironmentLaw([(0.5, law_from_atoms([(1.0, (2, 0, 0))])),
                          (0.5, law_from_atoms([(1.0, (3, 0, 0))]))])
    lam, trials, horizon = 4.0, 200, 20
    est = survival_probabilities(env, trials=trials, horizon=horizon, cap=32, mode="annealed",
                                 env_seed=1, seed=2, lam=lam)
    assert {o.status for o in est.outcomes} == {CAP_REACHED}
    assert len({o.end_time for o in est.outcomes}) > 1
    seeds = np.array([derive_seed(1, 1 + i) for i in range(trials)], np.uint64)
    states = state_indices(env, seeds[:, None], -np.arange(horizon))
    h = np.cumprod(np.where(states == 0, 2.0, 3.0) / lam, axis=1)
    np.testing.assert_allclose(est.trace.mean_h, np.r_[1.0, h.mean(axis=0)], rtol=1e-12)


@pytest.mark.parametrize("env", [single_env(GW_SUPERCRITICAL), two_state_env()],
                         ids=["one-state", "two-state"])
def test_per_row_seeds_that_all_equal_the_shared_seed_run_the_same(env):
    # rows started at three sites cap at several times in each traced batch; one
    # seed per row that equals the shared seed is the same environment, so the
    # statuses, end times and trace moments are the same to the last bit
    starts, lam = np.tile([0, -3, 2], 100), 1.5
    kwargs = dict(cap=100, log_lam=math.log(lam))
    shared = run_batch(env, 7, starts, 1, 60, (7, 1), **kwargs)
    per_row = run_batch(env, np.full(len(starts), 7, np.uint64), starts, 1, 60, (7, 1), **kwargs)
    capped = shared.status == CAP_REACHED
    assert len(set(shared.end_time[capped & (shared.end_time < 60)])) > 1
    assert np.isfinite(shared.trace.mean).all()  # the tables reach every start
    assert np.array_equal(per_row.status, shared.status)
    assert np.array_equal(per_row.end_time, shared.end_time)
    assert per_row.trace.n == shared.trace.n == len(starts)
    assert np.array_equal(per_row.trace.mean, shared.trace.mean)
    assert np.array_equal(per_row.trace.m2, shared.trace.m2)


@pytest.mark.parametrize("mode", ["quenched", "annealed"])
def test_trace_leaves_survival_columns_unchanged(monkeypatch, mode):
    # two children one step left, surely: 2^t particles at -t, so every row
    # reaches the cap 32 at t = 5 and h_n = (2/lam)^n; on one state the trials
    # share the environment in either mode, so they stop there, and the trace
    # reads their exact conditional means from then on
    env, lam, horizon = single_env([(1.0, (2, 0, 0))]), 4.0, 20
    kwargs = dict(trials=100, horizon=horizon, cap=32, mode=mode, env_seed=1, seed=2)
    plain = survival_probabilities(env, **kwargs)
    shared = survival_probabilities(env, lam=lam, **kwargs)
    assert plain.trace is None
    assert shared.outcomes == plain.outcomes
    assert (shared.global_freq, shared.local_proxy_freq) == (plain.global_freq,
                                                              plain.local_proxy_freq)
    assert {(o.status, o.end_time, o.last_origin_visit)
            for o in shared.outcomes} == {(STOPPED, 5, 0)}
    exact = (2.0 / lam) ** np.arange(horizon + 1)
    np.testing.assert_allclose(shared.trace.mean_h, exact, rtol=1e-12)
    monkeypatch.setattr(simulator, "TRIAL_BATCH", 60)
    monkeypatch.setattr(simulator, "TRACE_BATCHES", 1)
    monkeypatch.setattr(simulator, "TRACE_HORIZON", 15)
    run = run_batch(env, 1, np.zeros(100, np.int64), 1, horizon, (1, 2), cap=32,
                    log_lam=math.log(lam))
    trace = simulator._trace(lam, run.trace)
    assert (trace.trials, trace.horizon) == (60, 15)
    np.testing.assert_allclose(trace.mean_h, exact[:16], rtol=1e-12)
    np.testing.assert_allclose(trace.diff_mean, np.diff(exact[:16]), rtol=1e-12)
    # every row has the same h_n, so its spread is roundoff
    assert trace.stderr_h.max() <= 1e-15 and trace.diff_stderr.max() <= 1e-15
    assert set(run.status) == {CAP_REACHED} and set(run.end_time) == {5}


def test_rows_past_the_trace_rows_are_capped_as_before(monkeypatch):
    # 200 trials in batches of 16 make 13 batches, more than TRACE_BATCHES: the
    # trace reads every row of the first TRACE_BATCHES, and the later batches
    # have no traced row.  Every trial ends at its cap, traced or not, and a
    # capped traced one reads its exact mean, so the trace draws nothing and
    # changes no trial, annealed on two states or on a shared environment
    monkeypatch.setattr(simulator, "TRIAL_BATCH", 16)
    n = simulator.TRACE_BATCHES * 16
    kwargs = dict(trials=200, horizon=100, cap=200, env_seed=3, seed=4)
    for env, mode in ((two_state_env(), "annealed"), (single_env(GW_SUPERCRITICAL), "quenched")):
        plain = survival_probabilities(env, mode=mode, **kwargs)
        shared = survival_probabilities(env, mode=mode, lam=2.0, **kwargs)
        assert n < 200
        assert shared.outcomes == plain.outcomes
        assert any(o.end_time < simulator.TRACE_HORIZON
                   for o in shared.outcomes[:n] if o.status != EXTINCT)
        assert (shared.trace.trials, len(shared.trace.mean_h)) == (n, simulator.TRACE_HORIZON + 1)


# -- weighted-population supermartingale --------------------------------------


def test_streamed_trace_matches_the_two_pass_statistics(monkeypatch):
    # 150 trials in batches of 64, all three traced: the last traced batch has
    # 22 rows.  On the subcritical law batches die out before the trace horizon
    # and skip their last times; at cap 100 on GW_SUPERCRITICAL, quenched, and on
    # its two-state pairing, annealed (per-row seeds), rows of every batch are
    # capped early and read their exact means from then on
    monkeypatch.setattr(simulator, "TRIAL_BATCH", 64)
    monkeypatch.setattr(simulator, "TRACE_BATCHES", 3)
    lam, horizon = 1.5, 40
    seen, record = [], simulator._record

    def capture(sums, t, h, h_prev):
        seen.append((t, h.copy()))
        record(sums, t, h, h_prev)

    monkeypatch.setattr(simulator, "_record", capture)
    for env, cap, mode in ((single_env(SUBCRITICAL_BRANCHY), 10**6, "quenched"),
                           (single_env(GW_SUPERCRITICAL), 100, "quenched"),
                           (same_moments_env(), 100, "annealed")):
        seen.clear()
        est = survival_probabilities(env, trials=150, horizon=horizon, cap=cap, mode=mode,
                                     env_seed=3, seed=4, lam=lam)
        batches = []
        for t, h in seen:
            if t == 0:
                batches.append(np.zeros((len(h), horizon + 1)))  # times never recorded are 0
            batches[-1][:, t] = h
        assert [len(b) for b in batches] == [64, 64, 22]
        early = [o.status != EXTINCT and o.end_time < horizon for o in est.outcomes]
        if cap < 10**6:
            assert all(any(early[lo:lo + 64]) for lo in (0, 64, 128))
        else:
            assert sum(t == horizon for t, _ in seen) < len(batches)  # some batch died out early
        h = np.concatenate(batches)
        assert len(np.unique(h[:, 5])) > 5  # the moments see a spread, not one value
        n, trace = len(h), est.trace
        diffs = np.diff(h, axis=1)
        assert (trace.trials, trace.horizon) == (n, horizon)
        for got, want in ((trace.mean_h, h.mean(0)),
                          (trace.stderr_h, h.std(0, ddof=1) / math.sqrt(n)),
                          (trace.diff_mean, diffs.mean(0)),
                          (trace.diff_stderr, diffs.std(0, ddof=1) / math.sqrt(n))):
            np.testing.assert_allclose(got, want, rtol=1e-12)


def test_trace_memory_does_not_grow_with_trials():
    # the trace keeps per-time moments per batch, so from 2,000 to 10,000 trials
    # only the per-trial outcomes grow (about 1 MB); a trials x horizon matrix
    # of h would add 16 MB
    env = single_env(GW_SUPERCRITICAL)
    survival_probabilities(env, trials=100, horizon=5, cap=1000, lam=2.0)  # one-time allocations

    def peak(trials):
        tracemalloc.start()
        try:
            survival_probabilities(env, trials=trials, horizon=60, cap=1000, lam=2.0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(10_000) - peak(2_000) < 3e6


def test_trace_critical_law_has_unit_mean():
    # at lambda=1 the weighted population is the plain count of a critical
    # branching process: mean exactly 1 at every time
    trace = survival_probabilities(single_env(CRITICAL_PAIR), trials=3000, horizon=30,
                                   env_seed=5, seed=2, lam=1.0).trace
    se = np.maximum(trace.diff_stderr, 1e-12)
    assert np.all(np.abs(trace.diff_mean) <= 4.0 * se)
    assert trace.mean_h[0] == 1.0
    se_h = np.maximum(trace.stderr_h[1:], 1e-12)
    assert np.all(np.abs(trace.mean_h[1:] - 1.0) <= 4.0 * se_h)


def test_trace_nonincreasing_for_drifting_law():
    trace = survival_probabilities(single_env(GW_SUPERCRITICAL), trials=2000, horizon=40,
                                   env_seed=5, seed=3, lam=2.0).trace
    z = np.where(
        trace.diff_stderr > 0,
        trace.diff_mean / trace.diff_stderr,
        np.where(trace.diff_mean > 0, np.inf, 0.0),
    )
    assert z.max() <= 3.0


def test_trace_null_offspring_drops_to_zero():
    trace = survival_probabilities(single_env([(1.0, (0, 0, 0))]), trials=200, horizon=3,
                                   lam=1.0).trace
    assert trace.mean_h[0] == 1.0
    assert np.all(trace.mean_h[1:] == 0.0)


def test_trace_rejects_infeasible_lambda():
    with pytest.raises(ValueError, match="infeasible"):
        survival_probabilities(single_env(GW_SUPERCRITICAL), trials=100, horizon=10, lam=30.0)


def test_supermartingale_trace_is_the_survival_runs_trace():
    env = single_env(GW_SUPERCRITICAL)
    trace = simulator.supermartingale_trace(env, 3, 2.0, trials=300, horizon=20, seed=4)
    shared = survival_probabilities(env, trials=300, horizon=20, env_seed=3, seed=4, lam=2.0).trace
    for field in ("mean_h", "stderr_h", "diff_mean", "diff_stderr"):
        assert np.array_equal(getattr(trace, field), getattr(shared, field))
    # too few trials for a stderr is refused, not a NaN
    with pytest.raises(ValueError, match="100 trials"):
        simulator.supermartingale_trace(env, 0, 1.0, trials=1, horizon=3)


# -- freezing construction ----------------------------------------------------


def test_frozen_deterministic_left_walker():
    env = single_env([(1.0, (1, 0, 0))])
    for level in (1, 3):
        assert frozen_trial(env, 0, level, 0) == 1


def test_frozen_null_offspring():
    env = single_env([(1.0, (0, 0, 0))])
    assert frozen_trial(env, 0, 1, 0) == 0


def test_frozen_mean_matches_minimal_root():
    # quenched mean of the frozen count solves mu+ m^2 - (1-mu0) m + mu- = 0
    env = single_env(GW_SUPERCRITICAL)
    root = min(np.roots([0.05, -1.0, 1.2]).real)
    assert root == pytest.approx(1.2822021129186527, rel=1e-12)
    vals = [frozen_trial(env, 7, 1, t) for t in range(4000)]
    assert None not in vals
    mean = np.mean(vals)
    se = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(mean - root) <= 3.5 * se


def test_frozen_censoring_returns_none():
    env = single_env(TREBLE_OR_DIE)  # no drift: freezing often never ends
    vals = [frozen_trial(env, 0, 1, t, max_time=5, max_population=50) for t in range(40)]
    assert any(v is None for v in vals)


def test_profile_constant_env_log_average():
    env = single_env(GW_SUPERCRITICAL)
    profile = frozen_mean_profile(env, 7, 12, 4000, seed=3)
    oracle = math.log(1.2822021129186527)
    assert profile.flagged_levels == ()
    assert np.all(profile.censored_rates == 0.0)
    assert abs(profile.log_average - oracle) <= 4.0 * max(profile.log_average_stderr, 1e-4)
    assert profile.trials_per_level >= 4000


def test_profile_levels_bounded_by_top_feasible_lambda():
    env = single_env(GW_SUPERCRITICAL)
    profile = frozen_mean_profile(env, 7, 12, 3000, seed=5)
    hi = 18.717797887081346
    rel = profile.level_stderrs / profile.level_means
    assert np.all(profile.level_means <= hi * (1.0 + 3.0 * rel))


def test_profile_delta_nonpositive_within_noise():
    env = single_env(GW_SUPERCRITICAL)
    profile = frozen_mean_profile(env, 7, 10, 5000, seed=8)
    lam = 2.0
    # g_k = lam^-k * m_1 * ... * m_k, so g_k / g_{k-1} = m_k / lam and the
    # increment g_k - g_{k-1} is nonpositive exactly when m_k <= lam
    rel = profile.level_stderrs / profile.level_means
    assert np.all(profile.level_means <= lam * (1.0 + 3.0 * rel))


def test_profile_two_state_log_average_sign():
    # the mixture drifts left strongly; survival functional must be positive
    env = two_state_env()
    profile = frozen_mean_profile(env, 17, 16, 3000, seed=2)
    assert profile.log_average > 0.0


def test_profile_censoring_raises():
    cases = [
        (TREBLE_OR_DIE, 100, {"max_population": 1}, "exceeds 0.01"),
        # every super-trial of a level censored, under a threshold no rate can exceed
        (GW_SUPERCRITICAL, 10_000, {"max_time": 1, "censor_threshold": 1.0},
         "level 1: censoring rate 1.000 leaves no finished super-trial"),
    ]
    for law, trials, options, message in cases:
        with pytest.raises(CensoringError, match=message):
            frozen_mean_profile(single_env(law), 0, 3, trials, **options)


def test_profile_rejects_bad_inputs():
    env = single_env(GW_SUPERCRITICAL)
    with pytest.raises(ValueError):
        frozen_mean_profile(env, 7, 0, 100)
    with pytest.raises(ValueError):
        frozen_mean_profile(env, 7, 3, 0)
