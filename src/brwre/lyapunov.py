"""The top Lyapunov exponent of the i.i.d. product of the model's 2x2 matrices A.

A state's moment triple gives its matrix A and, at a lambda whose
`MomentTriple.slack` is at least -`envmodel.FEASIBILITY_TOL`, a
nonnegative conjugate A_lambda = B A B^-1 / lambda (see `build_A_lambda`).
A_lambda only certifies the exponent: gamma(A) = gamma(A_lambda) + ln
lambda at every feasible lambda.  The mirror law (`envmodel.reflected`)
needs no matrix of its own.  Its matrix is J A^-1 J with J = [[0, 1],
[1, 0]], so its product over a state sequence is J P^-1 J, with P the A
product of the reversed sequence.  For a 2x2 matrix the max-abs norm of
M^-1 is ||M|| / |det M|, and det A = mu-/mu+; the reversed i.i.d.
sequence has the same law, so the mirror's top exponent is gamma(A) minus
the log drift E ln(mu-/mu+) (the Furstenberg-Kesten sum rule: it is
-gamma_2(A)).

Every exponent is exact, and nothing is drawn.  `criteria.top_exponent`
is the one entry point and holds the closed forms, without numpy: one
state (Gelfand's formula) and a tight point, where every A_lambda is
lower triangular.  Every other law comes here, to `top_lyapunov`: the
midpoint of `word_sum`'s certified bracket of exact averages over a word
table, at the feasible set's geometric midpoint, plus its log.  A law
without a feasible lambda has no nonnegative family, and `top_lyapunov`
raises ValueError there.

A word table (`_word_table`) holds every state word of one length L:
L = `word_length`, the largest integer with max(n_states, 2)**L <=
WORD_BUDGET, or, where that table's bracket is wider than
WORD_SUM_MAX_BOUND, with max(n_states, 2)**L <= WORD_CAP.  The matrices
are kept entry-wise, as rows a, b, c, d of a (4, n) array holding [[a, b],
[c, d]], so growing every word by one state is a few whole-array
operations per entry.
"""
from __future__ import annotations

import math
import sys

import numpy as np

from .criteria import LyapunovEstimate, feasible_slack, lambda_feasible_set
from .envmodel import EnvironmentLaw, MomentTriple


def build_A(m: MomentTriple) -> np.ndarray:
    """[[ (1-mu0)/mu+, -mu-/mu+ ], [1, 0]]; det = mu-/mu+."""
    if m.mu_plus <= 0.0:
        raise ValueError("matrix kind A needs mu_plus > 0")
    return np.array(
        [[(1.0 - m.mu_zero) / m.mu_plus, -m.mu_minus / m.mu_plus], [1.0, 0.0]]
    )


def build_A_lambda(m: MomentTriple, lam: float) -> np.ndarray:
    """Nonnegative conjugate of build_A at a feasible lambda:
    build_A(m) = lam * B^-1 A_lambda B with B = [[1, -lam], [1, 0]].

    [[ mu-/(lam^2 mu+), s/(lam mu+) ], [ mu-/(lam^2 mu+), 1 + s/(lam mu+) ]]
    with s = m.slack(lam), clipped at 0 (it may come out ~-1e-17 from
    cancellation at an interval endpoint); det = mu-/(lam^2 mu+).
    """
    if m.mu_plus <= 0.0:
        raise ValueError("matrix kind A_lambda needs mu_plus > 0")
    slack = feasible_slack(m, lam)
    a = m.mu_minus / (lam * lam * m.mu_plus)
    b = max(slack, 0.0) / (lam * m.mu_plus)
    return np.array([[a, b], [a, 1.0 + b]])


def state_matrices(envlaw: EnvironmentLaw, lam: float | None = None) -> np.ndarray:
    """(n_states, 2, 2) table of A, or of A_lambda at lam, one matrix per state."""
    return np.stack([build_A(m) if lam is None else build_A_lambda(m, lam)
                     for m in envlaw.state_moments])


# most state words of the table `word_sum` builds first: n_states**L words
# of length L, so that its four float rows (128 kB at the budget) stay in cache
WORD_BUDGET = 4096
# most state words of the one longer table `word_sum` builds where the first
# bracket is too wide: 17 states deep at two states, 35 to 80 ms and about 25 MB
WORD_CAP = 2**17
# the widest half-width `word_sum` returns from the WORD_BUDGET table
WORD_SUM_MAX_BOUND = 2e-4


def word_length(n_states: int, words: int = WORD_BUDGET) -> int:
    """The largest L >= 1 with max(n_states, 2)**L <= words: one state's only word
    of length L is a power of its matrix, so it gets the length of two states."""
    base, length = max(n_states, 2), 1
    while base ** (length + 1) <= words:
        length += 1
    return length


def _word_table(entries: np.ndarray, state_p: np.ndarray,
                length: int) -> tuple[np.ndarray, np.ndarray]:
    """The word table of length `length`, as (words, word_p).

    entries holds the (4, n_states) entry rows of the state matrices and
    state_p the state law.  The table holds every state word of that
    length: words its (4, n_states**length) entry rows, each product
    scaled to max-abs entry 1, and word_p its probability, the product of
    its states' weights.  The table grows one state per round: column
    s*n**m + c of length m + 1 holds state s applied after word c, so a
    word's first-applied state is its lowest base-n_states digit.  A word
    that collapsed to zero has NaN entries.
    """
    n_states = entries.shape[1]
    words, word_p = entries, state_p
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(length - 1):
            state, word = np.divmod(np.arange(n_states * words.shape[1]), words.shape[1])
            (la, lb, lc, ld), (ra, rb, rc, rd) = entries[:, state], words[:, word]
            words = np.stack((la * ra + lb * rc, la * rb + lb * rd,
                              lc * ra + ld * rc, lc * rb + ld * rd))
            words /= np.abs(words).max(axis=0)
            word_p = np.outer(state_p, word_p).ravel()
    return words, word_p


def _bracket(entries: np.ndarray, state_p: np.ndarray, length: int) -> tuple[float, float]:
    """`word_sum`'s midpoint and half-width over the word table of length `length`."""
    words, word_p = _word_table(entries, state_p, length)
    r1, r2 = entries[0] + entries[1], entries[2] + entries[3]
    with np.errstate(divide="ignore", invalid="ignore"):
        # (n_states, n_words): state M's end at each word's row
        end1, end2 = (np.log((np.outer(r1, x) + np.outer(r2, y)) / (x + y))
                      for x, y in (words[:2], words[2:]))
        g1, g2 = state_p @ end1, state_p @ end2
        lo = float(np.sum(word_p * np.minimum(g1, g2)))
        hi = float(np.sum(word_p * np.maximum(g1, g2)))
        size = float(np.sum(word_p * (state_p @ np.maximum(np.abs(end1), np.abs(end2)))))
    roundoff = 16.0 * (length + state_p.shape[0]) * sys.float_info.epsilon * (1.0 + size)
    half = 0.5 * (hi - lo) + roundoff
    return 0.5 * (lo + hi), math.inf if math.isnan(half) else half


def word_sum(envlaw: EnvironmentLaw, lam: float) -> tuple[float, float]:
    """gamma(A_lambda) as the midpoint and half-width of a certified bracket of
    exact averages over a word table; the half-width is inf where a word collapsed.

    By Furstenberg's formula (Trans. AMS 1963; Furstenberg & Kifer, Israel
    J. Math. 1983) gamma = E ln(x M 1 / x 1), with M a state matrix and x an
    independent row direction whose law attains gamma and is stationary under
    the product, so it is also the law of x P_w for a word w of the table.
    Every A_lambda is nonnegative, so x lies in the cone of P_w's rows (a, b)
    and (c, d), at a coordinate t = x_2 / (x_1 + x_2) between t1 = b / (a + b)
    and t2 = d / (c + d).  Every A_lambda's row sums r1 and r2 have r2 = r1 + 1,
    so ln(x M 1 / x 1) = ln(r1 + t) rises with t for every state, and so does
    its state average G(t).  Hence E_w min(G(t1), G(t2)) <= gamma <= E_w
    max(G(t1), G(t2)).  (Since every state orders a word's two ends alike,
    the average of the per-state max of the two ends is the same upper end.)
    The ends are computed as ln((a r1 + b r2) / (a + b)) and the same with
    (c, d).  The half-width adds 16 (L + n_states) eps (1 + E_w E_M max|end|)
    for roundoff: a word's entries round by 3 eps relatively per product,
    each end by a few eps more, and the sums over the states and, pairwise,
    over the words by n_states and log2 of the word count (at most 17) eps
    relatively.

    The table's length is `word_length` within WORD_BUDGET words; where its
    half-width exceeds WORD_SUM_MAX_BOUND (a feasible set too thin, or a
    point, for short words to contract), the bracket is taken over one
    table of `word_length` within WORD_CAP words instead.
    """
    entries = state_matrices(envlaw, lam).reshape(-1, 4).T
    state_p = envlaw.weights / envlaw.weights.sum()
    value, half = _bracket(entries, state_p, word_length(envlaw.n_states))
    if half > WORD_SUM_MAX_BOUND:
        value, half = _bracket(entries, state_p, word_length(envlaw.n_states, WORD_CAP))
    return value, half


def top_lyapunov(
    envlaw: EnvironmentLaw,
    matrix_kind: str,
    steps: int = 100_000,
    replicas: int = 32,
    seed: int = 0,
    n_workers: int = 1,
) -> LyapunovEstimate:
    """gamma(A) as the word sum: `word_sum` at the feasible set's `midpoint` lam_m,
    plus ln lam_m (A = lam B^-1 A_lambda B), with its half-width as stderr and
    method "word_sum"; nothing is drawn.

    `criteria.top_exponent` takes the closed forms first and calls this for
    every other law.  matrix_kind must be "A".  A law with no feasible lambda
    has no nonnegative family: ValueError.  steps, replicas, seed and
    n_workers have no effect; steps and replicas are echoed in the estimate.
    """
    if matrix_kind != "A":
        raise ValueError(f"unknown matrix kind {matrix_kind!r}: only A has an exponent")
    at = lambda_feasible_set(envlaw).midpoint
    if at is None:
        raise ValueError("no feasible lambda: the law has no certified exponent of A")
    value, bound = word_sum(envlaw, at)
    # the shift's log and sum round by an ulp of each term
    log_at = math.log(at)
    value += log_at
    bound += 2.0 * sys.float_info.epsilon * (abs(value) + abs(log_at))
    return LyapunovEstimate(value=value, stderr=bound, steps=steps, replicas=replicas,
                            matrix_kind=matrix_kind, method="word_sum")
