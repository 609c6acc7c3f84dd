"""Exact quenched tables on the realized environment: survival events and the trace's mean.

A survival run of horizon H asks three things of each particle at site x at
absolute time t, each the probability that its descendants do it:

- GLOBAL: some descendant is alive at H;
- LOCAL: the origin is occupied at some time s in [H/2, H] (2s >= H), s >= t;
- EITHER: one or the other.

Given the probabilities S_{t+1} of every site, branching independence gives
S_t(x) = sum_atoms p (1 - prod_y (1 - S_{t+1}(y))^{v_y}) over y = x-1, x, x+1:
the generating-function iteration (Harris, *The Theory of Branching
Processes*, 1963).  It runs backward from S_H = (1, origin only, 1), with
LOCAL and EITHER forced to 1 at the origin at times 2t >= H, in the survival
domain, sum_atoms p (-expm1(sum_y v_y log1p(-S(y)))), clamped to [0, 1]: the
extinction domain's 1 - q loses every digit of a survival probability below
eps.  Each table holds one time slice at a time, on the sites |x| <= t that a
run started at the origin can reach, so the tables from H down to t cost
O(H^2 - t^2) site updates, O(H^2) back to time 0, and O(H) memory; back to
time 0 at H = 400 that is 10 to 15 ms on the laws of one or two states that
the tests name (one core of a 2-core VM).  Each step sums over the offspring
vectors of every state, each weighted by its probability at each site.  A
table value is a clamped sum of correctly rounded terms, so it carries a few
ulps of roundoff per generation; inclusion-exclusion (read_stopped's local
event) cancels, and a local value of order H eps is roundoff.

A row stopped at time t with c_i particles at x_i then has, again by branching
independence, P(no GLOBAL event) = prod_i (1 - S_t(x_i))^{c_i}, and likewise
for LOCAL and EITHER; so reading it costs one gather per particle.

The trace's mean, g_k(x) = E_x h_k / lam^x with h = sum count lam^site, solves
the mean recursion g_k(x) = (mu-/lam) g_{k-1}(x-1) + mu0 g_{k-1}(x) +
(mu+ lam) g_{k-1}(x+1) from g_0 = 1, in the log domain as the trace itself.

A survival table reads one realized environment, env_seed, so it serves runs
whose trials share it (quenched mode, or a law of one state); trace_logs also
takes an array of seeds, one table per annealed trial's environment.
"""
from __future__ import annotations

import functools

import numpy as np

from .envmodel import EnvironmentLaw, state_indices

GLOBAL, LOCAL, EITHER = range(3)

# log(1 - S) at S = 1, in place of -inf: then 0 children times it is 0, not NaN,
# and any int64 count times it is finite (and still exp's underflow to 0)
_LOG_NONE = -1e250


def _log_none(s: np.ndarray) -> np.ndarray:
    """log(1 - s) elementwise, with _LOG_NONE where s = 1."""
    with np.errstate(divide="ignore"):
        return np.maximum(np.log1p(-s), _LOG_NONE)


def survival_tables(envlaw: EnvironmentLaw, env_seed: int, horizon: int, t_min: int = 0):
    """Yield (t, log(1 - S_t)) for t = horizon down to t_min: an array of shape
    (3, 2t + 1), row GLOBAL, LOCAL or EITHER, column x + t for sites |x| <= t."""
    h = horizon
    states = state_indices(envlaw, env_seed, np.arange(-h, h + 1))
    # each offspring vector with a child, and its probability at each site (an atom
    # of no child adds nothing to a survival probability)
    vectors = sorted({v for law in envlaw.laws for _, v in law.atoms if any(v)})
    probs = np.array([[dict((u, p) for p, u in law.atoms).get(v, 0.0) for law in envlaw.laws]
                      for v in vectors])[:, states]
    s = np.ones((3, 2 * h + 1))
    s[LOCAL] = 0.0
    s[LOCAL, h] = 1.0
    q = _log_none(s)
    yield h, q
    for t in range(h - 1, t_min - 1, -1):
        near = (q[:, :-2], q[:, 1:-1], q[:, 2:])  # log(1 - S_{t+1}) at x - 1, x and x + 1
        s = np.zeros((3, 2 * t + 1))
        for v, p in zip(vectors, probs[:, h - t:h + t + 1]):
            # log P(no child of this vector does it) = sum_y v_y log(1 - S_{t+1}(y))
            log_none = functools.reduce(np.add, [y if c == 1 else c * y
                                                 for c, y in zip(v, near) if c])
            s -= p * np.expm1(log_none)
        np.clip(s, 0.0, 1.0, out=s)
        if 2 * t >= horizon:
            s[LOCAL:, t] = 1.0
        q = _log_none(s)
        yield t, q


def read_stopped(envlaw: EnvironmentLaw, env_seed: int, horizon: int, rows: np.ndarray,
                 times: np.ndarray, sites: np.ndarray, counts: np.ndarray,
                 n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """P(alive at horizon) and P(alive at horizon and the origin occupied at some
    time in [horizon/2, horizon] from the stop on) of rows 0..n_rows-1, given
    each particle group's row, stop time, site and count; a row with no group
    reads 0.  The tables run from horizon down to the earliest stop time only.
    The second value is GLOBAL + LOCAL - EITHER, clamped to [0, min(GLOBAL, LOCAL)]."""
    order = np.argsort(times, kind="stable")
    times_sorted = times[order]
    logs = np.empty((3, len(order)))
    for t, q in survival_tables(envlaw, env_seed, horizon, int(times_sorted[0])):
        lo, hi = np.searchsorted(times_sorted, (t, t + 1))
        if hi > lo:
            at = order[lo:hi]
            logs[:, at] = q[:, sites[at] + t]
    logs *= counts
    g, local, either = (-np.expm1(np.bincount(rows, w, minlength=n_rows)) for w in logs)
    return g, np.clip(g + local - either, 0.0, np.minimum(g, local))


def origin_values(envlaw: EnvironmentLaw, env_seed: int, horizon: int) -> tuple[float, float]:
    """read_stopped's two values for one particle at the origin at time 0: the
    events that a survival run's estimates estimate."""
    zero = np.zeros(1, np.int64)
    g, local = read_stopped(envlaw, env_seed, horizon, zero, zero, zero, np.ones(1, np.int64), 1)
    return float(g[0]), float(local[0])


def trace_logs(envlaw: EnvironmentLaw, env_seed, log_lam: float, horizon: int,
               depth: int | None = None) -> np.ndarray:
    """log g_k(x) for k = 0..depth (default horizon), row k, column x + horizon, at
    |x| + k <= horizon (NaN elsewhere); a 1-D array of seeds gives a table per seed
    on a leading axis.  lam is feasible for every state only up to FEASIBILITY_TOL,
    so the exact g_k may grow by that much per generation, and roundoff by a few
    ulps: each g_k is clamped to g_{k-1}, lest either read as an increase of h."""
    h, lam, mu = horizon, np.exp(log_lam), np.array(envlaw.state_moments)
    states = state_indices(envlaw, np.expand_dims(env_seed, -1), np.arange(-h, h + 1))
    with np.errstate(divide="ignore"):  # a zero mean is a -inf log-coefficient
        coef = np.moveaxis(np.log(mu * (1.0, 1.0, lam) / (lam, 1.0, 1.0))[states], -1, 0)
    out = np.full(np.shape(env_seed) + (h + 1 if depth is None else depth + 1, 2 * h + 1), np.nan)
    out[..., 0, :] = 0.0
    for k in range(1, out.shape[-2]):
        prev, c = out[..., k - 1, k - 1:2 * h + 2 - k], coef[..., k:2 * h + 1 - k]
        new = np.logaddexp(np.logaddexp(c[0] + prev[..., :-2], c[1] + prev[..., 1:-1]),
                           c[2] + prev[..., 2:])
        out[..., k, k:2 * h + 1 - k] = np.minimum(new, prev[..., 1:-1])
    return out
