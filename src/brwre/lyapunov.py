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
importing this module.  With more states the exponent is estimated here,
from long renormalized products over replicas.

A product is reduced by a pairwise tree that rescales every product to
a max-abs entry of 1 and sums the logs of the scales.  The matrices are
kept entry-wise, as rows a, b, c, d of a (4, n) array holding
[[a, b], [c, d]], so one level is a few whole-array operations per entry.
A replica's product is split into aligned words of L states, and every
state word of length L is computed once per estimate, as a word table.
L is the largest integer with n_states**L <= WORD_BUDGET and
L <= steps.  The words of a replica are i.i.d. with the product of their
states' weights as law, so they are sampled directly from that law with
one uniform per word through Walker's alias table, and gathered from the
table; the steps % L leftover states are drawn singly and join the list
after them.  The tree thus starts L times shorter, and no state sequence
is ever drawn.
`_log_norm_of_product` walks the plain pairwise tree over the whole state
sequence on a stack of matrices with matmul and is kept as the oracle the
tests compare against.  It groups the products differently (a word is
built one state at a time) and matmul may fuse a multiply-add where the
entry rows round twice, so the two agree to roundoff, not bit for bit.
"""
from __future__ import annotations

import math

import numpy as np

from .criteria import (MATRIX_KINDS, LyapunovEstimate, check_budget, feasible_slack,
                       top_exponent)
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
    if matrix_kind not in MATRIX_KINDS:
        raise ValueError(f"unknown matrix kind {matrix_kind!r}; choose from {MATRIX_KINDS}")
    if matrix_kind == "A_lambda" and lam is None:
        raise ValueError("matrix kind A_lambda needs a lambda value")
    build = {"A": build_A, "A_lambda": lambda m: build_A_lambda(m, lam)}[matrix_kind]
    return np.stack([build(m) for m in envlaw.state_moments])


def _log_norm_of_product(mats: np.ndarray) -> float:
    """ln of the max-abs norm of mats[-1] @ ... @ mats[0].

    Pairwise reduction with per-level rescaling: exact for the norm of the
    full product while keeping every intermediate entry in safe float range.
    """
    acc = 0.0
    cur = mats
    while cur.shape[0] > 1:
        n = cur.shape[0]
        h = n // 2
        prod = cur[1 : 2 * h : 2] @ cur[0 : 2 * h : 2]
        scale = np.abs(prod).max(axis=(1, 2))
        if not np.all(scale > 0.0):
            raise FloatingPointError("matrix product collapsed to zero")
        prod /= scale[:, None, None]
        acc += float(np.log(scale).sum())
        if n % 2:
            cur = np.concatenate([prod, cur[2 * h :]], axis=0)
        else:
            cur = prod
    return acc + float(np.log(np.abs(cur[0]).max()))


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


class _ProductReduction:
    """ln of the max-abs entry of the product of a sampled word sequence and tail.

    The product applies steps // L words of the word table (see the module
    docstring), first-applied first, then steps % L single states.  The
    table grows one state per round: column s*n**m + c of round m + 1
    holds state s applied after word c, so a word's first-applied state is
    its lowest base-n_states digit.  `sample` draws the word codes from
    the word law, the product of its states' weights, with one uniform
    each through Walker's alias table, and the tail states from the state
    CDF.  A replica gathers its words, sums their logs, appends the tail
    matrices and runs the tree `_log_norm_of_product` walks on two (4, m)
    entry buffers in turn: each level multiplies the odd entries of its
    list (left) into the even ones, rescales every product to max-abs
    entry 1 and adds the logs of the scales; an odd tail is carried to the
    end of the next list.  Every buffer is allocated once and reused by
    each replica of an estimate, so no replica pays for fresh pages.  A
    collapsed word has a log of -inf or NaN and raises only in a replica
    that samples it.
    """

    def __init__(self, table: np.ndarray, weights: np.ndarray, steps: int):
        n_states = table.shape[0]
        self.entries = table.reshape(n_states, 4).T
        length = 1
        while length < steps and n_states ** (length + 1) <= WORD_BUDGET:
            length += 1
        state_p = weights / weights.sum()
        words, logs, word_p = self.entries, np.zeros(n_states), state_p
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(length - 1):
                size = n_states * words.shape[1]
                state, word = np.divmod(np.arange(size), words.shape[1])
                grown, grown_logs = np.empty((4, size)), np.empty(size)
                _normalized_products(self.entries[:, state], words[:, word],
                                     grown, grown_logs, np.empty(size))
                grown_logs += logs[word]
                words, logs = grown, grown_logs
                word_p = np.outer(state_p, word_p).ravel()
        self.words, self.word_logs, self.length = words, logs, length
        self.prob, self.alias = _alias_table(word_p)
        self.cdf = state_p.cumsum()
        n_words, self._n_tail = divmod(steps, length)
        m = n_words + self._n_tail
        self._u = np.empty(n_words)
        self._bins = np.empty(n_words, dtype=np.intp)
        self._codes = np.empty(n_words, dtype=np.intp)
        self._keep = np.empty(n_words, dtype=bool)
        self._lists = (np.empty((4, m)), np.empty((4, (m + 1) // 2)))
        self._logs = np.empty(max(n_words, m // 2))
        self._work = np.empty(max(n_words, m // 2))

    def codes(self, u: np.ndarray) -> np.ndarray:
        """The word codes the alias table assigns to uniforms u in [0, 1).

        u is overwritten; the result is a buffer the next call overwrites.
        """
        n = u.shape[0]
        bins, codes, keep = self._bins[:n], self._codes[:n], self._keep[:n]
        u *= self.prob.shape[0]
        np.copyto(bins, u, casting="unsafe")
        u -= bins
        np.less(u, np.take(self.prob, bins, out=self._work[:n]), out=keep)
        np.take(self.alias, bins, out=codes)
        np.copyto(codes, bins, where=keep)
        return codes

    def sample(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """One replica's word codes and tail states, from steps // L and then steps % L uniforms."""
        codes = self.codes(rng.random(out=self._u))
        tail = np.searchsorted(self.cdf[:-1], rng.random(self._n_tail), side="right")
        return codes, tail

    def __call__(self, codes: np.ndarray, tail: np.ndarray) -> float:
        n_words = codes.shape[0]
        cur = self._lists[0]
        for row, word_row in zip(cur, self.words):
            np.take(word_row, codes, out=row[:n_words], mode="clip")
        cur[:, n_words:] = self.entries[:, tail]
        logs = np.take(self.word_logs, codes, out=self._logs[:n_words], mode="clip")
        acc = 0.0
        depth = 0
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
                depth += 1
                nxt = self._lists[depth % 2][:, : h + n % 2]
                logs = self._logs[:h]
                _normalized_products(cur[:, 1 : 2 * h : 2], cur[:, 0 : 2 * h : 2],
                                     nxt[:, :h], logs, self._work[:h])
                if n % 2:
                    nxt[:, h] = cur[:, -1]
                cur = nxt


def top_lyapunov(
    envlaw: EnvironmentLaw,
    matrix_kind: str,
    steps: int = 100_000,
    replicas: int = 32,
    seed: int = 0,
    lam: float | None = None,
    n_workers: int = 1,
) -> LyapunovEstimate:
    """Estimate the top exponent of the i.i.d. product for one family.

    With one state it is exact: `criteria.top_exponent` returns the closed
    form, with stderr 0 and nothing drawn; a nilpotent matrix raises
    FloatingPointError.
    Otherwise replica r samples its steps // L word codes and steps % L
    tail states on default_rng([seed, r]) (see `_ProductReduction.sample`),
    reduces the product of those matrices with the word table and the
    entry-wise tree (see the module docstring) and contributes
    ln ||product|| / steps.  The value is the replica mean
    and stderr the replica dispersion / sqrt(R).
    n_workers is accepted for compatibility and ignored: the replicas run
    on one thread and the result never depends on it.
    """
    if envlaw.n_states == 1:
        return top_exponent(envlaw, matrix_kind, steps=steps, replicas=replicas, lam=lam)
    check_budget(steps, replicas)
    reduce = _ProductReduction(state_matrices(envlaw, matrix_kind, lam), envlaw.weights, steps)
    values = np.array([
        reduce(*reduce.sample(np.random.default_rng([seed, r]))) / steps
        for r in range(replicas)
    ])
    return LyapunovEstimate(value=float(values.mean()),
                            stderr=float(values.std(ddof=1) / math.sqrt(replicas)),
                            steps=steps, replicas=replicas, matrix_kind=matrix_kind)
