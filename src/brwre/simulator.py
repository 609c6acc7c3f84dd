"""Quenched Monte Carlo for the branching walk: survival trials and freezing.

Particles are never tracked individually: one step draws, per occupied
site, a multinomial split of the site's count over its offspring atoms,
equal in law to per-particle draws at O(occupied sites) cost.  run_batch
steps many independent runs (rows) at once on flat (row, site, count)
arrays; it is the one Monte Carlo entry point, and survival trials and the
freezing construction are rows of it.  The survival run also records the
supermartingale trace of its first TRACE_BATCHES batches through their first
generations, as per-time moments that each traced batch keeps and the run
pools, so the trace's memory does not grow with the trials.  A row ends at
its cap.  A traced batch fills one (time, row) array with its capped rows'
exact E[h_t | the cap] from the trace table of each row's environment, in
either mode; on a shared environment (cap STOP_POPULATION) a capped trial's
survival events are read exactly too, from the survival tables of
brwre.exact (conditional Monte Carlo).
Each TRIAL_BATCH rows share one random stream keyed by (env_seed, seed,
batch index), so results never depend on threads.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .criteria import feasible_slack
from .envmodel import EnvironmentLaw, derive_seed, state_indices

EXTINCT = "Extinct"
CAP_REACHED = "CapReached"
STOPPED = "Stopped"
ALIVE_AT_HORIZON = "AliveAtHorizon"

# per-site count guard; staying far below 2^63 keeps every sum and
# multinomial draw inside exact int64 range
_HARD_COUNT = 1 << 55

# rows stepped together on one random stream; part of the stream layout
TRIAL_BATCH = 1024

# super-trials per level of the frozen profile; its stderrs are their spread
SUPER_TRIALS = 50

# the supermartingale trace that run_batch records given a lambda: every row
# of its first batches, through this many generations
TRACE_BATCHES = 10
TRACE_HORIZON = 60

# the population at which a survival trial on a shared environment stops and
# is read exactly (or the cap, if lower).  The estimates are unbiased at any
# value and their stderrs barely move with it (within 4% from 30 to 1,000 on
# the README and tie laws, 2,000 trials); the stepping before a stop grows with it
STOP_POPULATION = 100


class CensoringError(RuntimeError):
    """Too many censored trials, or none finished at a frozen level, for the
    estimate to be trusted."""


# ---------------------------------------------------------------------------
# The batched kernel


def _starts(a: np.ndarray) -> np.ndarray:
    """Indices at which the sorted array a takes a new value."""
    head = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=head[1:])
    return np.flatnonzero(head)


def _branch(envlaw, env_seed, rows, sites, counts, rng):
    """One synchronous branching generation on flat arrays sorted by
    (row, site); env_seed is one quenched seed or an array of per-row seeds."""
    states = state_indices(envlaw, env_seed if np.ndim(env_seed) == 0 else env_seed[rows], sites)
    kids = np.empty((len(sites), 3), dtype=np.int64)
    for s, law in enumerate(envlaw.laws):
        at = np.flatnonzero(states == s)
        if len(at):
            kids[at] = rng.multinomial(counts[at], law.probabilities) @ law.vectors
    # one int64 key per (row, site), padded so site-1 and site+1 stay in the row
    lo = int(sites.min()) - 1
    width = int(sites.max()) - lo + 2
    key = rows * width + (sites - lo)
    keys = np.concatenate([key - 1, key, key + 1])
    vals = kids.T.ravel()
    keep = vals > 0
    keys, vals = keys[keep], vals[keep]
    order = np.argsort(keys, kind="stable")  # three sorted runs: a merge, not a sort
    keys, vals = keys[order], vals[order]
    first = _starts(keys)
    keys = keys[first]
    return keys // width, keys % width + lo, np.add.reduceat(vals, first)


class TraceSums(NamedTuple):
    """Per-time moments of n trace rows' h_t = sum_x count(x) lam^x: row 0 of
    mean and m2 is h_t, row 1 the paired increment h_t - h_{t-1} (0 at t = 0);
    m2 is the centred sum of squares."""

    n: int
    mean: np.ndarray  # (2, trace horizon+1)
    m2: np.ndarray


def _record(sums: TraceSums, t: int, h: np.ndarray, h_prev: np.ndarray) -> None:
    """Store one batch's moments at time t of its trace rows' h and h - h_prev."""
    for i, x in enumerate((h, h - h_prev)):
        mean = x.mean()
        sums.mean[i, t] = mean
        sums.m2[i, t] = np.square(x - mean).sum()


def _pool(a: TraceSums, b: TraceSums) -> TraceSums:
    """The moments of a's and b's rows together (Chan, Golub & LeVeque 1983)."""
    n = a.n + b.n
    delta = b.mean - a.mean
    return TraceSums(n, a.mean + delta * (b.n / n), a.m2 + b.m2 + delta**2 * (a.n * b.n / n))


class BatchRun(NamedTuple):
    """Per-row results of run_batch: status is EXTINCT, CAP_REACHED or ALIVE_AT_HORIZON."""

    status: np.ndarray
    end_time: np.ndarray  # the extinction, cap or horizon time
    last_origin_visit: np.ndarray  # -1 where the origin was never occupied
    frozen: np.ndarray  # particles frozen below the start (freeze=True)
    trace: TraceSums | None  # the traced batches' moments, given log_lam
    # row, site and count of each capped row's occupied sites at its cap, for the survival
    # tables of a shared environment (None where no row was capped, and on per-row seeds);
    # a traced row's E[h_t | the cap] is read at the cap, in either mode, into the trace
    at_cap: tuple[np.ndarray, np.ndarray, np.ndarray] | None


def _weighted(rows, sites, counts, log_lam, lo, n):
    """h = sum_x count(x) lam^x of each of a batch's n rows, from row lo, summed in
    the log domain; 0 on a row with no particle."""
    h = np.zeros(n)
    if len(rows):
        first = _starts(rows)
        x = np.log(counts) + sites * log_lam
        top = np.maximum.reduceat(x, first)
        spread = np.exp(x - np.repeat(top, np.diff(first, append=len(rows))))
        h[rows[first] - lo] = np.exp(top + np.log(np.add.reduceat(spread, first)))
    return h


def run_batch(envlaw: EnvironmentLaw, env_seed, starts, start_count, horizon: int, stream,
              *, cap: int, freeze: bool = False, log_lam: float | None = None) -> BatchRun:
    """Evolve independent rows, row i from start_count particles at starts[i].

    env_seed is one quenched seed or one seed per row.  Rows step together
    in batches of TRIAL_BATCH; batch b draws from default_rng([*stream, b]).
    A row ends Extinct with no particle left, CapReached once its total
    reaches cap or a site count reaches _HARD_COUNT (it leaves the loop; see
    BatchRun.at_cap), else AliveAtHorizon.  freeze moves particles below
    starts[i] into the row's frozen count after each step.

    log_lam traces every row of the first TRACE_BATCHES batches at every
    time t up to t_trace = min(TRACE_HORIZON, horizon): such a batch records
    the mean and centred sum of squares of its rows' h_t = sum_x count(x)
    lam^x, summed in the log domain (0 on a row with no particle), and of
    h_t - h_{t-1} (zero after the batch died out); the batches are pooled
    after the loop.  A traced row capped at tau <= t_trace reads its exact
    E[h_t | its particles at tau] from tau to t_trace into its batch's one
    (t_trace + 1, rows) array, filled at tau from the exact.trace_logs table of
    its own environment, wide enough for the farthest start: on a shared
    environment one table, built at the first cap, and on per-row seeds one of
    depth t_trace - tau per newly capped row.
    So the cap never censors the trace, and the trace draws nothing: no row
    changes with log_lam.
    """
    starts = np.asarray(starts, dtype=np.int64)
    n = len(starts)
    shared = np.ndim(env_seed) == 0
    reach = int(np.abs(starts).max(initial=0))  # a row's sites at t lie within reach + t
    last_seen, frozen = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    last_origin = np.where(starts == 0, 0, -1)
    capped = np.zeros(n, dtype=bool)
    batches, at_cap, table = [], [], None
    for b, lo in enumerate(range(0, n, TRIAL_BATCH)):
        rng = np.random.default_rng([*stream, b])
        rows = np.arange(lo, min(lo + TRIAL_BATCH, n))
        sites, counts = starts[rows], np.full(len(rows), start_count)
        traced = log_lam is not None and b < TRACE_BATCHES
        t_trace = min(TRACE_HORIZON, horizon) if traced else 0
        held, t_done = None, 0  # capped rows' E[h_t | the cap] (times x rows); the last time traced
        if traced:
            sums = TraceSums(len(rows), np.zeros((2, t_trace + 1)), np.zeros((2, t_trace + 1)))
            h_prev = np.exp(np.log(counts) + sites * log_lam)
            _record(sums, 0, h_prev, h_prev)
            batches.append(sums)
        for t in range(1, horizon + 1):
            if not len(rows):
                break  # the times left to trace keep their zero moments, or read capped rows
            rows, sites, counts = _branch(envlaw, env_seed, rows, sites, counts, rng)
            if freeze:
                hit = sites < starts[rows]
                np.add.at(frozen, rows[hit], counts[hit])
                rows, sites, counts = rows[~hit], sites[~hit], counts[~hit]
            first = _starts(rows)
            live = rows[first]
            last_seen[live] = t
            last_origin[rows[sites == 0]] = t
            over = ((np.maximum.reduceat(counts, first) >= _HARD_COUNT)
                    | (np.add.reduceat(counts, first) >= cap))
            if over.any():
                capped[live[over]] = True
                out = capped[rows]
                r, x, c = rows[out], sites[out], counts[out]
                if shared:  # read by the survival tables, which need a shared environment
                    at_cap.append((r, x, c))
                if t <= t_trace:  # E[h_s | the cap] for s >= t, from its environment's table
                    from . import exact  # loaded only where a traced row is capped
                    fresh, d = live[over], t_trace - t
                    w = t_trace + reach  # the table's width: |x| + d <= w on every row
                    if not shared:  # a table per newly capped row, of depth d
                        table = exact.trace_logs(envlaw, env_seed[fresh], log_lam, w, d)
                    elif table is None:  # the one environment's, built at the first cap
                        table = exact.trace_logs(envlaw, env_seed, log_lam, w, t_trace)[None]
                    at = np.searchsorted(fresh, r) if not shared else 0
                    g = table[at, :d + 1, x + w].T + (np.log(c) + x * log_lam)
                    held = np.zeros((t_trace + 1, sums.n)) if held is None else held
                    held[t:, fresh - lo] = np.add.reduceat(np.exp(g), _starts(r), axis=1)
                rows, sites, counts = rows[~out], sites[~out], counts[~out]
            if t <= t_trace:
                h = _weighted(rows, sites, counts, log_lam, lo, sums.n)
                if held is not None:
                    h += held[t]
                _record(sums, t, h, h_prev)
                h_prev, t_done = h, t
        for t in range(t_done + 1, t_trace + 1) if held is not None else ():
            _record(sums, t, held[t], h_prev)
            h_prev = held[t]
    gone = ~capped & (last_seen < horizon)  # a capped row's last_seen is its cap time
    ends = np.array([ALIVE_AT_HORIZON, EXTINCT, CAP_REACHED], dtype=object)
    end_time = np.select([capped, gone], [last_seen, last_seen + 1], horizon)
    trace = functools.reduce(_pool, batches) if batches else None
    return BatchRun(ends[gone + 2 * capped], end_time, last_origin, frozen, trace,
                    tuple(map(np.concatenate, zip(*at_cap))) if at_cap else None)


class TrialOutcome(NamedTuple):
    """One trial's row of its survival run: status, end time, last origin visit,
    and its values of the two survival events (see SurvivalEstimates)."""

    status: str  # EXTINCT, STOPPED, CAP_REACHED or ALIVE_AT_HORIZON
    end_time: int
    last_origin_visit: int  # every trial starts at the origin, so at least 0
    global_prob: float
    local_prob: float


class SurvivalEstimates(NamedTuple):
    """Survival estimates with their standard errors.

    global_freq estimates P(alive at the horizon), local_proxy_freq P(alive at
    the horizon and the origin occupied at some time in [horizon/2, horizon]),
    a finite-horizon stand-in for infinitely many visits.  Each is the mean of
    one value per trial: 1 or 0 where the trial settled the event (Extinct:
    0; AliveAtHorizon: 1, and for the local event 1 where 2 last_origin_visit
    >= horizon), its exact conditional probability where it Stopped, and on
    a CapReached trial (annealed mode on several states) 1, and for the local
    event 1 where 2 last_origin_visit >= end_time, the visit read on its span
    so far.  Each stderr is the plug-in standard error of that mean, the
    binomial one on 0/1 values.  trace is the run's supermartingale trace
    given lam.
    """

    global_freq: float
    global_stderr: float
    local_proxy_freq: float
    local_proxy_stderr: float
    trials: int
    mode: str
    outcomes: tuple[TrialOutcome, ...]
    trace: SupermartingaleTrace | None = None


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    return float(values.mean()), float(values.std() / math.sqrt(len(values)))


def survival_probabilities(
    envlaw: EnvironmentLaw,
    *,
    trials: int,
    horizon: int = 400,
    cap: int = 1_000_000,
    mode: str = "quenched",
    env_seed: int = 0,
    seed: int = 0,
    n_workers: int = 1,
    lam: float | None = None,
) -> SurvivalEstimates:
    """Monte Carlo survival estimates over independent trials.

    mode "quenched" keeps one realized environment for every trial;
    "annealed" gives trial i the environment seed derive_seed(env_seed, 1+i),
    which on a law of one state realizes the same environment.  The trials
    run as rows of run_batch, TRIAL_BATCH rows per random stream, and keep one
    TrialOutcome each.  n_workers is accepted for compatibility and ignored:
    the result never depends on it.

    Every trial ends at its cap (see run_batch).  Where every trial shares one
    environment (quenched mode, or a law of one state), the cap is K =
    min(STOP_POPULATION, cap): a capped trial is Stopped, and its survival
    events are read exactly from its particles then (exact.read_stopped; a
    trial that already occupied the origin at a time >= horizon/2 takes its
    global value as its local one).  This is conditional Monte Carlo
    (Hammersley & Handscomb 1964): each value is unbiased for its event.  The
    tables are built only when some trial stopped, and only back to the
    earliest stop.  In annealed mode on several states each trial has its own
    environment and no survival table, and a capped trial is CapReached.

    With lam, which must be feasible for every state, the same run also
    records the supermartingale trace of its first TRACE_BATCHES batches,
    min(trials, TRACE_BATCHES * TRIAL_BATCH) trials, through generation
    min(horizon, TRACE_HORIZON) (see run_batch); a traced trial reads its
    exact conditional mean after its cap, and the trace changes no trial.
    In annealed mode lam is feasible in every trial's environment, so h is a
    supermartingale in each.
    """
    if trials < 100:
        raise ValueError(f"need at least 100 trials, got {trials}")
    if mode not in ("quenched", "annealed"):
        raise ValueError(f"mode must be 'quenched' or 'annealed', got {mode!r}")
    shared = mode == "quenched" or envlaw.n_states == 1
    env_seeds = env_seed if shared else np.array(
        [derive_seed(env_seed, 1 + i) for i in range(trials)], np.uint64)
    if lam is not None:
        for m in envlaw.state_moments:
            feasible_slack(m, lam)  # ValueError where lam is infeasible
    run = run_batch(envlaw, env_seeds, np.zeros(trials, np.int64), 1, horizon, (env_seed, seed),
                    cap=min(STOP_POPULATION, cap) if shared else cap,
                    log_lam=None if lam is None else math.log(lam))
    at = shared & (run.status == CAP_REACHED)  # Stopped, and read exactly
    run.status[at] = STOPPED
    alive = (run.status != EXTINCT).astype(float)
    local = alive * (2 * run.last_origin_visit >= run.end_time)
    if at.any():
        rows, sites, counts = run.at_cap
        from . import exact
        g, joint = exact.read_stopped(envlaw, env_seed, horizon, rows, run.end_time[rows],
                                      sites, counts, trials)
        alive[at] = g[at]
        local[at] = np.where(2 * run.last_origin_visit[at] >= horizon, g[at], joint[at])
    (g_mean, g_se), (l_mean, l_se) = _mean_stderr(alive), _mean_stderr(local)
    columns = (run.status, run.end_time, run.last_origin_visit, alive, local)
    return SurvivalEstimates(
        global_freq=g_mean,
        global_stderr=g_se,
        local_proxy_freq=l_mean,
        local_proxy_stderr=l_se,
        trials=trials,
        mode=mode,
        outcomes=tuple(TrialOutcome(*row) for row in zip(*(c.tolist() for c in columns))),
        trace=None if lam is None else _trace(lam, run.trace),
    )


# ---------------------------------------------------------------------------
# Weighted-population supermartingale


class SupermartingaleTrace(NamedTuple):
    """Per-time empirical means of the lam-weighted population h(n) = sum_x
    count(x) lam^x.  For lam feasible for every state the conditional mean of
    h never increases, which the paired per-step increments make testable.
    The means and stderrs are those of the trials' (trials, horizon+1) matrix
    of h, up to roundoff, pooled from run_batch's per-batch moments without
    building the matrix."""

    lam: float
    mean_h: np.ndarray  # length horizon+1, mean over trials
    stderr_h: np.ndarray  # stderr of each mean
    diff_mean: np.ndarray  # paired per-step increments, length horizon
    diff_stderr: np.ndarray
    trials: int
    horizon: int


def _trace(lam: float, sums: TraceSums) -> SupermartingaleTrace:
    """The trace statistics of one run's pooled trace moments."""
    stderr = np.sqrt(sums.m2 / (sums.n - 1)) / math.sqrt(sums.n)
    return SupermartingaleTrace(
        lam=lam,
        mean_h=sums.mean[0],
        stderr_h=stderr[0],
        diff_mean=sums.mean[1, 1:],
        diff_stderr=stderr[1, 1:],
        trials=sums.n,
        horizon=sums.mean.shape[1] - 1,
    )


def supermartingale_trace(
    envlaw: EnvironmentLaw,
    env_seed: int,
    lam: float,
    trials: int,
    horizon: int,
    seed: int = 0,
) -> SupermartingaleTrace:
    """The trace of survival_probabilities' run at these arguments, with its
    checks (at least 100 trials, lam feasible for every state) and its sizes
    (min(trials, TRACE_BATCHES * TRIAL_BATCH) trials through generation
    min(horizon, TRACE_HORIZON)).  The stage graph never calls it; it keeps
    the span that perfbench's simulator.supermartingale_trace.* metrics name.
    """
    return survival_probabilities(envlaw, trials=trials, horizon=horizon, env_seed=env_seed,
                                  seed=seed, lam=lam).trace


# ---------------------------------------------------------------------------
# Freezing construction: progeny counts at a one-sided barrier


class FrozenProfile(NamedTuple):
    """Per-level quenched means of the frozen progeny counts.

    Plain data.  level_means[j] estimates the mean frozen count for one
    particle started at levels[j]; a level whose mean is 0 is flagged.
    log_average is the mean of ln(level_means) over unflagged levels (NaN
    when every level is flagged) and estimates the log-mean growth
    functional whose sign decides global survival in the right-vanishing
    regime; log_average_stderr is 0 below two unflagged levels.
    """

    levels: np.ndarray
    level_means: np.ndarray
    level_stderrs: np.ndarray
    censored_rates: np.ndarray
    flagged_levels: tuple[int, ...]
    trials_per_level: int
    log_average: float
    log_average_stderr: float


def frozen_mean_profile(
    envlaw: EnvironmentLaw,
    env_seed: int,
    levels: int,
    trials_per_level: int,
    *,
    seed: int = 0,
    max_time: int = 5_000,
    max_population: int = 1_000_000,
    censor_threshold: float = 0.01,
) -> FrozenProfile:
    """Estimate the frozen-count mean at each level of one quenched environment.

    Trials are batched: a run started with B particles is, by branching
    independence, exactly a sum of B independent single-particle samples,
    so the batched sample mean has the law of a trials_per_level-trial
    mean.  The SUPER_TRIALS super-trials of every level run as rows of
    run_batch; standard errors come from the dispersion across them.
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if trials_per_level < 1:
        raise ValueError(f"trials_per_level must be >= 1, got {trials_per_level}")
    n_super = min(SUPER_TRIALS, trials_per_level)
    batch = -(-trials_per_level // n_super)  # ceil division

    ks = np.arange(1, levels + 1)
    run = run_batch(envlaw, env_seed, np.repeat(ks, n_super), batch, max_time,
                    (env_seed, seed), cap=max_population + 1, freeze=True)
    done = (run.status == EXTINCT).reshape(levels, n_super)
    censored_rates = (~done).sum(axis=1) / n_super
    over = np.flatnonzero((censored_rates > censor_threshold) | ~done.any(axis=1))
    if len(over):
        k, rate = ks[over[0]], censored_rates[over[0]]
        reason = (f"exceeds {censor_threshold}" if rate > censor_threshold
                  else "leaves no finished super-trial")
        raise CensoringError(f"level {k}: censoring rate {rate:.3f} {reason}")
    vals = [v[d] / batch for v, d in zip(run.frozen.reshape(levels, n_super), done)]
    means = np.array([v.mean() for v in vals])
    stderrs = np.array([v.std(ddof=1) / math.sqrt(len(v)) if len(v) > 1 else 0.0 for v in vals])

    flagged = [int(k) for k, m in zip(ks, means) if m <= 0.0]
    logs = np.log(means[means > 0.0])
    log_avg = float(logs.mean()) if len(logs) else math.nan
    log_se = float(logs.std(ddof=1) / math.sqrt(len(logs))) if len(logs) > 1 else 0.0
    return FrozenProfile(
        levels=ks,
        level_means=means,
        level_stderrs=stderrs,
        censored_rates=censored_rates,
        flagged_levels=tuple(flagged),
        trials_per_level=n_super * batch,
        log_average=log_avg,
        log_average_stderr=log_se,
    )
