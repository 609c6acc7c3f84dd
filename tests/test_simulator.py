import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from brwre import simulator
from brwre.envmodel import EnvironmentLaw, derive_seed, law_from_atoms, state_indices
from brwre.simulator import (
    ALIVE_AT_HORIZON,
    CAP_REACHED,
    EXTINCT,
    CensoringError,
    PopulationOverflowError,
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
    """One trial from the origin: a one-row run_batch on stream (env_seed, trial_seed)."""
    run = run_batch(envlaw, env_seed, [0], 1, horizon, (env_seed, trial_seed), cap=cap)
    return simulator._outcomes(run)[0]


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
    assert out.peak_population == 1


def test_trial_deterministic_reproduction():
    env = single_env(GW_SUPERCRITICAL)
    a = one_trial(env, 12, 34, horizon=50, cap=10**4)
    b = one_trial(env, 12, 34, horizon=50, cap=10**4)
    assert a == b


def test_trial_deterministic_split_tracks_origin_and_peak():
    # every particle sends one child each way: 2^t particles on the sites of
    # t's parity, so the origin is occupied exactly at even times
    env = single_env([(1.0, (1, 0, 1))])
    for horizon, last in ((10, 10), (9, 8)):
        out = one_trial(env, 0, 0, horizon=horizon, cap=10**9)
        assert out.status == ALIVE_AT_HORIZON and out.end_time == horizon
        assert out.last_origin_visit == last and out.peak_population == 2**horizon


def test_trial_cap_reached_flags_peak():
    env = single_env(TREBLE_OR_DIE)
    for seed in range(20):
        out = one_trial(env, 1, seed, horizon=400, cap=1000)
        if out.status == CAP_REACHED:
            assert out.peak_population >= 1000
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
    """A trial's global survival and local-proxy events, from its outcome: alive,
    and alive with the origin occupied in the second half of its span."""
    alive = o.status != EXTINCT
    local = alive and 2 * o.last_origin_visit >= o.end_time
    return alive, local


def _summary(outcomes):
    """(value, stderr) of survival, local-proxy frequency and mean extinction time."""
    n = len(outcomes)
    out = []
    for p in np.mean([_events(o) for o in outcomes], axis=0):
        out.append((p, math.sqrt(p * (1.0 - p) / n)))
    times = np.array([o.end_time for o in outcomes if o.status == EXTINCT], dtype=float)
    out.append((times.mean(), times.std(ddof=1) / math.sqrt(len(times))))
    return out


@pytest.mark.parametrize("mode", ["quenched", "annealed"])
def test_frequencies_are_counted_from_the_outcomes(mode):
    # two left-leaning states that kill most trials: all three statuses come
    # up, and some trials survive away from the origin
    env = EnvironmentLaw([
        (0.5, law_from_atoms([(0.35, (1, 0, 1)), (0.25, (1, 0, 0)), (0.1, (0, 0, 1)),
                              (0.3, (0, 0, 0))])),
        (0.5, law_from_atoms([(0.4, (1, 0, 1)), (0.2, (1, 0, 0)), (0.1, (0, 0, 1)),
                              (0.3, (0, 0, 0))]))])
    trials = 300
    est = survival_probabilities(env, trials=trials, horizon=60, cap=200, mode=mode,
                                 env_seed=3, seed=4)
    assert {o.status for o in est.outcomes} == {EXTINCT, CAP_REACHED, ALIVE_AT_HORIZON}
    alive, local = (sum(e) for e in zip(*map(_events, est.outcomes)))
    assert 0 < local < alive
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
    trials, horizon, cap, env_seed, seed = 1000, 200, 500, 21, 22
    batched = survival_probabilities(env, trials=trials, horizon=horizon, cap=cap, mode=mode,
                                     env_seed=env_seed, seed=seed)
    oracle = [
        one_trial(env, env_seed if mode == "quenched" else derive_seed(env_seed, 1 + i),
                  derive_seed(seed, i), horizon, cap)
        for i in range(trials)
    ]
    for (a, se_a), (b, se_b) in zip(_summary(batched.outcomes), _summary(oracle)):
        assert abs(a - b) <= 4.0 * math.hypot(se_a, se_b)
    capped = [o for o in batched.outcomes if o.status == CAP_REACHED]
    assert capped
    assert all(o.peak_population >= cap and o.end_time < horizon for o in capped)


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
    env = single_env(GW_SUPERCRITICAL)
    # a trace row that reaches the guard before the trace horizon raises
    with pytest.raises(PopulationOverflowError):
        survival_probabilities(env, trials=200, horizon=60, env_seed=5, seed=1, lam=2.0)
    kwargs = dict(trials=200, horizon=400, cap=10**9, env_seed=5, seed=1)
    est = survival_probabilities(env, **kwargs)
    capped = [o for o in est.outcomes if o.status == CAP_REACHED]
    assert capped and all(o.peak_population < 10**9 for o in capped)
    assert not any(o.status == ALIVE_AT_HORIZON for o in est.outcomes)
    with pytest.raises(PopulationOverflowError):
        survival_probabilities(env, lam=2.0, **kwargs)
    # only a trace row raises: quenched sites where each particle dies or doubles
    # in place, so a row started at a doubling site passes the guard at t = 6,
    # before the trace horizon, and rows past the trace rows are capped there
    n = simulator.TRIAL_BATCH
    monkeypatch.setattr(simulator, "TRACE_TRIALS", n)
    fates = EnvironmentLaw([(0.5, law_from_atoms([(1.0, (0, 0, 0))])),
                            (0.5, law_from_atoms([(1.0, (0, 2, 0))]))])
    sites = np.arange(-20, 21)
    states = state_indices(fates, 5, sites)
    die, double = int(sites[states == 0][0]), int(sites[states == 1][0])
    trace_kwargs = dict(cap=10**9, log_lam=math.log(2.0))
    run = run_batch(fates, 5, [die] * n + [double] * 8, 1, 60, (5, 1), **trace_kwargs)
    assert set(run.status[:n]) == {EXTINCT} and set(run.end_time[:n]) == {1}
    assert set(run.status[n:]) == {CAP_REACHED} and set(run.end_time[n:]) == {6}
    assert set(run.peak_population[n:]) == {64}
    with pytest.raises(PopulationOverflowError):
        run_batch(fates, 5, [double] * (n + 8), 1, 60, (5, 1), **trace_kwargs)
    # past the trace horizon the guard caps trace rows as before: no row can
    # reach 40 particles in 5 generations, so no row steps on past its cap
    monkeypatch.setattr(simulator, "TRACE_HORIZON", 5)
    assert survival_probabilities(env, lam=2.0, **kwargs).outcomes == est.outcomes


def test_shared_trace_is_not_censored_by_the_cap():
    # one state: E h_n = (mu-/lam + mu0 + mu+ lam)^n exactly; lam = 1.5 keeps the
    # tail of h_n light enough for its sample stderr
    lam, trials, horizon = 1.5, 2000, simulator.TRACE_HORIZON
    env = single_env(GW_SUPERCRITICAL)
    est = survival_probabilities(env, trials=trials, horizon=horizon, cap=1000, env_seed=3,
                                 seed=4, lam=lam)
    early = sum(o.status == CAP_REACHED and o.end_time < horizon for o in est.outcomes)
    assert early > 0.9 * sum(o.status != EXTINCT for o in est.outcomes)
    trace = est.trace
    assert (trace.lam, trace.trials, trace.horizon) == (lam, trials, horizon)
    exact = (1.2 / lam + 0.05 * lam) ** np.arange(horizon + 1)
    assert trace.mean_h[0] == 1.0 and trace.stderr_h[0] == 0.0
    assert np.all(np.abs(trace.mean_h[1:] - exact[1:]) <= 4.0 * trace.stderr_h[1:])
    # every row steps to the trace horizon, so with the survival horizon there the
    # run draws what a run on the same stream with a cap no row reaches draws
    uncapped = run_batch(env, 3, np.zeros(trials, np.int64), 1, horizon, (3, 4), cap=1 << 62,
                         log_lam=math.log(lam))
    oracle = simulator._trace(lam, uncapped.trace)
    for field in ("mean_h", "stderr_h", "diff_mean", "diff_stderr"):
        assert np.array_equal(getattr(trace, field), getattr(oracle, field))


@pytest.mark.parametrize("mode", ["quenched", "annealed"])
def test_trace_leaves_survival_columns_unchanged(monkeypatch, mode):
    # two children one step left, surely: 2^t particles at -t, so every row
    # reaches the cap 32 at t = 5 and h_n = (2/lam)^n
    env, lam, horizon = single_env([(1.0, (2, 0, 0))]), 4.0, 20
    kwargs = dict(trials=100, horizon=horizon, cap=32, mode=mode, env_seed=1, seed=2)
    plain = survival_probabilities(env, **kwargs)
    shared = survival_probabilities(env, lam=lam, **kwargs)
    assert plain.trace is None
    assert shared.outcomes == plain.outcomes
    assert (shared.global_freq, shared.local_proxy_freq) == (plain.global_freq,
                                                              plain.local_proxy_freq)
    assert {(o.status, o.end_time, o.last_origin_visit, o.peak_population)
            for o in shared.outcomes} == {(CAP_REACHED, 5, 0, 32)}
    exact = (2.0 / lam) ** np.arange(horizon + 1)
    np.testing.assert_allclose(shared.trace.mean_h, exact, rtol=1e-12)
    monkeypatch.setattr(simulator, "TRACE_TRIALS", 60)
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
    # with the trace rows exactly the first batch, the second batch has no trace
    # row and its stream, so its trials, stay as they are without a trace
    n = simulator.TRIAL_BATCH
    monkeypatch.setattr(simulator, "TRACE_TRIALS", n)
    kwargs = dict(trials=2 * n, horizon=100, cap=200, env_seed=3, seed=4)
    env = single_env(GW_SUPERCRITICAL)
    plain = survival_probabilities(env, **kwargs)
    shared = survival_probabilities(env, lam=2.0, **kwargs)
    assert shared.outcomes[n:] == plain.outcomes[n:]
    assert shared.outcomes[:n] != plain.outcomes[:n]  # rows stepping on past the cap draw
    assert (shared.trace.trials, len(shared.trace.mean_h)) == (n, simulator.TRACE_HORIZON + 1)


# -- weighted-population supermartingale --------------------------------------


def test_streamed_trace_matches_the_two_pass_statistics(monkeypatch):
    # batches of 64 with 150 trace rows: the third batch traces its first 22
    # rows only and the batches after it none; the law is subcritical, so
    # batches die out before the trace horizon and skip their last times
    monkeypatch.setattr(simulator, "TRIAL_BATCH", 64)
    monkeypatch.setattr(simulator, "TRACE_TRIALS", 150)
    lam, horizon = 1.5, 40
    seen, record = [], simulator._record

    def capture(sums, t, h, h_prev):
        seen.append((t, h.copy()))
        record(sums, t, h, h_prev)

    monkeypatch.setattr(simulator, "_record", capture)
    trace = survival_probabilities(single_env(SUBCRITICAL_BRANCHY), trials=300, horizon=horizon,
                                   env_seed=3, seed=4, lam=lam).trace
    batches = []
    for t, h in seen:
        if t == 0:
            batches.append(np.zeros((len(h), horizon + 1)))  # times never recorded are 0
        batches[-1][:, t] = h
    assert [len(b) for b in batches] == [64, 64, 22]
    assert sum(t == horizon for t, _ in seen) < len(batches)  # some batch died out early
    h = np.concatenate(batches)
    assert len(np.unique(h[:, 5])) > 5  # the moments see a spread, not one value
    n = len(h)
    diffs = np.diff(h, axis=1)
    assert (trace.trials, trace.horizon) == (n, horizon)
    for got, want in ((trace.mean_h, h.mean(0)), (trace.stderr_h, h.std(0, ddof=1) / math.sqrt(n)),
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
