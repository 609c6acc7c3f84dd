"""Lyapunov exponents of i.i.d. products of the model's 2x2 matrices.

Two matrix families are built from a state's moment triple: the raw
recursion matrix (kind "A") and a nonnegative conjugate family
("A_lambda") at a lambda whose `MomentTriple.slack` is at least
-`envmodel.FEASIBILITY_TOL`.  The mirror law (`envmodel.reflected`) needs
no family of its own.  Its matrix is J A^-1 J with J = [[0, 1], [1, 0]],
so its product over a state sequence is J P^-1 J, with P the A product of
the reversed sequence.  For a 2x2 matrix the max-abs norm of M^-1 is
||M|| / |det M|, and det A = mu-/mu+; the reversed i.i.d. sequence has
the same law, so the mirror's top exponent is gamma(A) minus the log
drift E ln(mu-/mu+) (the Furstenberg-Kesten sum rule: it is -gamma_2(A)).
A one-state law's product is a power of its matrix, so its top exponent
is the log of that matrix's spectral radius (Gelfand's formula), which
`criteria.constant_exponent` reads off the roots of its characteristic
polynomial without numpy; `criteria.top_exponent` returns it without
importing this module.  With more states and a feasible set of interior
points, `top_lyapunov` takes the exponent from `word_sum`, the midpoint
of a certified bracket of exact averages over the word table (below);
nothing is drawn.  Elsewhere it estimates the exponent from long
renormalized products over replicas.

Every state word of length L is computed once, as a word table
(`_word_table`), with L = `word_length`, the largest integer with
n_states**L <= WORD_BUDGET.  A product is reduced by a pairwise tree that
rescales every product to a max-abs entry of 1 and sums the logs of the
scales.  The matrices are kept entry-wise, as rows a, b, c, d of a (4, n)
array holding [[a, b], [c, d]], so one level is a few whole-array
operations per entry.  A replica's product is ceil(steps / L) whole words
of L states.  They are i.i.d. with the product of their states' weights
as law, so they are sampled directly from that law with one uniform per
word through Walker's alias table, and gathered from the table.  The tree
thus starts L times shorter, and no state sequence is ever drawn.  The
tests check the tree against a plain matmul reduction of the whole state
sequence; the two group the products differently, so they agree to
roundoff, not bit for bit.
"""
from __future__ import annotations

import math
import sys

import numpy as np

from .criteria import (LyapunovEstimate, check_budget, check_kind, feasible_slack,
                       lambda_feasible_set, top_exponent)
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


def state_matrices(envlaw: EnvironmentLaw, matrix_kind: str, lam: float | None = None) -> np.ndarray:
    """(n_states, 2, 2) table of the chosen family, one matrix per state."""
    check_kind(matrix_kind, lam)
    build = {"A": build_A, "A_lambda": lambda m: build_A_lambda(m, lam)}[matrix_kind]
    return np.stack([build(m) for m in envlaw.state_moments])


def _normalized_products(
    left: np.ndarray, right: np.ndarray, out: np.ndarray, logs: np.ndarray, work: np.ndarray
) -> None:
    """Column-wise left @ right into out, each column scaled to max-abs entry 1.

    Matrices [[a, b], [c, d]] are (4, m) entry rows.  logs receives the
    log of each column's scale; a product that collapsed to zero gets -inf
    there (and NaN entries), which the caller turns into a
    FloatingPointError.  work is (m,) scratch.
    """
    la, lb, lc, ld = left
    ra, rb, rc, rd = right
    for row, (x, y, z, w) in zip(out, ((la, ra, lb, rc), (la, rb, lb, rd),
                                      (lc, ra, ld, rc), (lc, rb, ld, rd))):
        np.multiply(x, y, out=row)
        row += np.multiply(z, w, out=work)
    np.abs(out[0], out=logs)
    for row in out[1:]:
        np.maximum(logs, np.abs(row, out=work), out=logs)
    out /= logs
    np.log(logs, out=logs)


# most state words a word table holds: n_states**L words of length L, so
# that its five float rows (160 kB at the budget) and its alias table stay
# in cache for gathers
WORD_BUDGET = 4096


def word_length(n_states: int) -> int:
    """The largest L >= 1 with n_states**L <= WORD_BUDGET, or 1 past 64 states
    and on one state (whose only word of any length is a power of its matrix)."""
    length = 1
    while n_states > 1 and n_states ** (length + 1) <= WORD_BUDGET:
        length += 1
    return length


def _word_table(entries: np.ndarray, state_p: np.ndarray,
                length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The word table of length `length`, as (words, logs, word_p).

    entries holds the (4, n_states) entry rows of the state matrices and
    state_p the state law.  The table holds every state word of that
    length: words its (4, n_states**length) entry rows, each product
    scaled to max-abs entry 1, logs the sum of the logs of its scales and
    word_p its probability, the product of its states' weights.  The
    table grows one state per round: column s*n**m + c of length m + 1
    holds state s applied after word c, so a word's first-applied state is
    its lowest base-n_states digit.  A collapsed word has a log of -inf or
    NaN.
    """
    n_states = entries.shape[1]
    words, logs, word_p = entries, np.zeros(n_states), state_p
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(length - 1):
            size = n_states * words.shape[1]
            state, word = np.divmod(np.arange(size), words.shape[1])
            grown, grown_logs = np.empty((4, size)), np.empty(size)
            _normalized_products(entries[:, state], words[:, word],
                                 grown, grown_logs, np.empty(size))
            grown_logs += logs[word]
            words, logs, word_p = grown, grown_logs, np.outer(state_p, word_p).ravel()
    return words, logs, word_p


def _alias_table(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker's alias table for the law p over 0..K-1, by Vose's construction.

    A bin i uniform on 0..K-1 yields code i with probability prob[i] and
    code alias[i] otherwise, so p[c] * K == prob[c] + the sum of
    1 - prob[i] over every i != c with alias[i] == c.  Bins left over when
    the small or the large list runs out (by roundoff) keep prob 1.
    """
    size = p.shape[0]
    scaled = (p * (size / p.sum())).tolist()
    prob = np.ones(size)
    alias = np.arange(size)
    small = [i for i, q in enumerate(scaled) if q < 1.0]
    large = [i for i, q in enumerate(scaled) if q >= 1.0]
    while small and large:
        less, more = small.pop(), large[-1]
        prob[less] = scaled[less]
        alias[less] = more
        scaled[more] = (scaled[more] + scaled[less]) - 1.0
        if scaled[more] < 1.0:
            small.append(large.pop())
    return prob, alias


def _alias_codes(u: np.ndarray, prob: np.ndarray, alias: np.ndarray,
                 codes: np.ndarray) -> np.ndarray:
    """Into codes, the codes Walker's alias table (prob, alias) assigns to
    uniforms u in [0, 1): bin i = floor(u K) yields i if u K - i < prob[i]
    and alias[i] otherwise.  u is overwritten."""
    u *= prob.shape[0]
    np.copyto(codes, u, casting="unsafe")
    u -= codes
    np.copyto(codes, np.take(alias, codes), where=u >= np.take(prob, codes))
    return codes


def _log_norm(cur: np.ndarray, logs: np.ndarray, spare: np.ndarray, work: np.ndarray) -> float:
    """sum(logs) plus the ln of the max-abs entry of the product of the (4, m)
    entry rows cur, first-applied first, by a pairwise tree on cur and spare
    ((4, >= (m + 1) // 2)) in turn.  Each level multiplies the odd entries of
    its list (left) into the even ones, rescales every product to max-abs
    entry 1 and adds the logs of the scales; an odd tail is carried to the
    end of the next list.  cur, logs and spare are overwritten and work is
    (>= m // 2,) scratch.  A collapsed product raises FloatingPointError.
    """
    acc = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            level = logs.sum()
            if not level > -np.inf:
                raise FloatingPointError("matrix product collapsed to zero")
            acc += float(level)
            n = cur.shape[1]
            if n == 1:
                return acc + float(np.log(np.abs(cur[:, 0]).max()))
            h = n // 2
            nxt = spare[:, : h + n % 2]
            logs = logs[:h]
            _normalized_products(cur[:, 1 : 2 * h : 2], cur[:, 0 : 2 * h : 2],
                                 nxt[:, :h], logs, work[:h])
            if n % 2:
                nxt[:, h] = cur[:, -1]
            cur, spare = nxt, cur


# the largest word-sum half-width returned in place of the replicas: the bias
# allowance criteria.monte_carlo_bias gives the replicas at the default 100,000 steps
WORD_SUM_MAX_BOUND = 2e-4


def word_sum(envlaw: EnvironmentLaw, lam: float) -> tuple[float, float]:
    """gamma(A_lambda) as the midpoint and half-width of a certified bracket of
    exact averages over the word table; the half-width is inf where a word collapsed.

    By Furstenberg's formula (Trans. AMS 1963; Furstenberg & Kifer, Israel
    J. Math. 1983) gamma = E ln(x M 1 / x 1), with M a state matrix and x an
    independent row direction whose law attains gamma and is stationary under
    the product, so it is also the law of x P_w for a word w of the table.
    Every A_lambda is nonnegative, so x lies in the cone of P_w's rows (a, b)
    and (c, d).  Along it ln(x M 1 / x 1) is monotone, with the ends
    ln((a r1 + b r2) / (a + b)) and the same with (c, d) for M's row sums r1
    and r2, and its state average is concave.  So E_w min(E_M end1, E_M end2)
    <= gamma <= E_w E_M max(end1, end2).  The half-width adds 16 (n + n_states)
    eps (1 + E_w E_M max|end|) for roundoff: a word's entries round by 3 eps
    relatively per product, each end by a few eps more, and the sums over the
    states and, pairwise, over the words by n_states and log2 of the word
    count (at most 12) eps relatively.
    """
    entries = state_matrices(envlaw, "A_lambda", lam).reshape(-1, 4).T
    state_p = envlaw.weights / envlaw.weights.sum()
    length = word_length(envlaw.n_states)
    words, _, word_p = _word_table(entries, state_p, length)
    r1, r2 = entries[0] + entries[1], entries[2] + entries[3]
    with np.errstate(divide="ignore", invalid="ignore"):
        # (n_states, n_words): state M's end at each word's row
        end1, end2 = (np.log((np.outer(r1, x) + np.outer(r2, y)) / (x + y))
                      for x, y in (words[:2], words[2:]))
        lo = float(np.sum(word_p * np.minimum(state_p @ end1, state_p @ end2)))
        hi = float(np.sum(word_p * (state_p @ np.maximum(end1, end2))))
        size = float(np.sum(word_p * (state_p @ np.maximum(np.abs(end1), np.abs(end2)))))
    roundoff = 16.0 * (length + envlaw.n_states) * sys.float_info.epsilon * (1.0 + size)
    half = 0.5 * (hi - lo) + roundoff
    return 0.5 * (lo + hi), math.inf if math.isnan(half) else half


def top_lyapunov(
    envlaw: EnvironmentLaw,
    matrix_kind: str,
    steps: int = 100_000,
    replicas: int = 32,
    seed: int = 0,
    lam: float | None = None,
    n_workers: int = 1,
) -> LyapunovEstimate:
    """The top exponent of the i.i.d. product for one family, exact where possible.

    One state: `criteria.top_exponent`'s closed form, with stderr 0 and
    nothing drawn; a nilpotent matrix raises FloatingPointError.  More
    states with a feasible set of interior points: `word_sum`, with its
    half-width as stderr and method "word_sum", of A_lambda at lam, or of A
    at the set's `midpoint` lam_m plus ln lam_m (A = lam B^-1 A_lambda B);
    nothing is drawn.  Otherwise, and where that half-width exceeds
    `WORD_SUM_MAX_BOUND` (a set too thin for the words to contract),
    `_monte_carlo_exponent` on `seed`.  Which of the two runs depends on
    the law alone, never on steps or replicas.  n_workers is accepted for
    compatibility and ignored: nothing runs on another thread and the
    result never depends on it.
    """
    if envlaw.n_states == 1:
        return top_exponent(envlaw, matrix_kind, steps=steps, replicas=replicas, lam=lam)
    check_budget(steps, replicas)
    check_kind(matrix_kind, lam)
    # a state with mu- = 0 has no feasible interval, and its A is singular
    iv = lambda_feasible_set(envlaw) if all(m.mu_minus > 0.0 and m.mu_plus > 0.0
                                            for m in envlaw.state_moments) else None
    if iv is not None and not iv.is_empty and iv.lo < iv.hi:
        at = lam if matrix_kind == "A_lambda" else iv.midpoint
        value, bound = word_sum(envlaw, at)
        if matrix_kind == "A":
            # the shift's log and sum round by an ulp of each term
            log_at = math.log(at)
            value += log_at
            bound += 2.0 * sys.float_info.epsilon * (abs(value) + abs(log_at))
        if bound <= WORD_SUM_MAX_BOUND:
            return LyapunovEstimate(value=value, stderr=bound, steps=steps, replicas=replicas,
                                    matrix_kind=matrix_kind, method="word_sum")
    return _monte_carlo_exponent(envlaw, matrix_kind, steps, replicas, seed, lam)


def _monte_carlo_exponent(envlaw: EnvironmentLaw, matrix_kind: str, steps: int = 100_000,
                          replicas: int = 32, seed: int = 0,
                          lam: float | None = None) -> LyapunovEstimate:
    """The replica estimate of the top exponent, method "monte_carlo".

    Replica r draws n_words = ceil(steps / L) word codes on
    default_rng([seed, r]) through the alias table of the word law (see
    the module docstring), gathers the words from the word table and
    reduces their product with `_log_norm`; it contributes ln ||product||
    over the n_words * L matrices multiplied.  The value is the replica
    mean and stderr the replica dispersion / sqrt(R); the replicas run one
    at a time on one thread and reuse one set of buffers.
    """
    check_budget(steps, replicas)
    entries = state_matrices(envlaw, matrix_kind, lam).reshape(-1, 4).T
    length = word_length(envlaw.n_states)
    state_p = envlaw.weights / envlaw.weights.sum()
    words, word_logs, word_p = _word_table(entries, state_p, length)
    prob, alias = _alias_table(word_p)
    n_words = -(-steps // length)
    u, logs, codes = np.empty(n_words), np.empty(n_words), np.empty(n_words, dtype=np.intp)
    cur, spare, work = np.empty((4, n_words)), np.empty((4, (n_words + 1) // 2)), np.empty(n_words)
    values = np.empty(replicas)
    for r in range(replicas):
        _alias_codes(np.random.default_rng([seed, r]).random(out=u), prob, alias, codes)
        np.take(words, codes, axis=1, out=cur, mode="clip")
        np.take(word_logs, codes, out=logs, mode="clip")
        values[r] = _log_norm(cur, logs, spare, work) / (n_words * length)
    return LyapunovEstimate(value=float(values.mean()),
                            stderr=float(values.std(ddof=1) / math.sqrt(replicas)),
                            steps=steps, replicas=replicas, matrix_kind=matrix_kind,
                            method="monte_carlo")
