"""Lyapunov exponents of i.i.d. products of the model's 2x2 matrices.

Three matrix families are built from a state's moment triple: the raw
recursion matrix (kind "A"), its left/right-swapped counterpart
("A_tilde"), and a nonnegative conjugate family parameterized by a
feasible lambda ("A_lambda").  The top exponent is estimated from long
renormalized products over independent replicas; the second exponent
comes from the determinant sum rule rather than subspace tracking.

A product is reduced by a pairwise tree that rescales every product to
a max-abs entry of 1 and sums the logs of the scales.  The matrices are
kept entry-wise, as rows a, b, c, d of a (4, n) array holding
[[a, b], [c, d]], so one level is a few whole-array operations per entry.
Level one of the tree only pairs two table matrices, so it is computed
once per estimate, as a table over every ordered pair of states, and then
gathered by the drawn indices.  `_log_norm_of_product` walks the same
tree on a stack of matrices with matmul and is kept as the oracle the
tests compare against; matmul may fuse a multiply-add where the entry
rows round twice, so the two agree to roundoff, not bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envmodel import EnvironmentLaw, MomentTriple

MATRIX_KINDS = ("A", "A_tilde", "A_lambda")

# entries of A_lambda may come out ~-1e-17 from float cancellation at the
# interval endpoints; treat anything above this as genuinely infeasible
_FEAS_SLACK = 1e-9


def build_A(m: MomentTriple) -> np.ndarray:
    """[[ (1-mu0)/mu+, -mu-/mu+ ], [1, 0]]; det = mu-/mu+."""
    if m.mu_plus <= 0.0:
        raise ValueError("matrix kind A needs mu_plus > 0")
    return np.array(
        [[(1.0 - m.mu_zero) / m.mu_plus, -m.mu_minus / m.mu_plus], [1.0, 0.0]]
    )


def build_A_tilde(m: MomentTriple) -> np.ndarray:
    """Mirror of build_A: left and right roles swapped; det = mu+/mu-."""
    if m.mu_minus <= 0.0:
        raise ValueError("matrix kind A_tilde needs mu_minus > 0")
    return np.array(
        [[(1.0 - m.mu_zero) / m.mu_minus, -m.mu_plus / m.mu_minus], [1.0, 0.0]]
    )


def feasibility_slack(m: MomentTriple, lam: float) -> float:
    """1 - (mu-/lam + mu0 + mu+*lam); nonnegative iff lam is feasible."""
    return 1.0 - m.mu_zero - m.mu_minus / lam - m.mu_plus * lam


def build_A_lambda(m: MomentTriple, lam: float) -> np.ndarray:
    """Nonnegative conjugate of build_A at a feasible lambda.

    [[ mu-/(lam^2 mu+), s/(lam mu+) ], [ mu-/(lam^2 mu+), 1 + s/(lam mu+) ]]
    with s the feasibility slack; det = mu-/(lam^2 mu+).
    """
    if lam <= 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if m.mu_plus <= 0.0:
        raise ValueError("matrix kind A_lambda needs mu_plus > 0")
    slack = feasibility_slack(m, lam)
    if slack < -_FEAS_SLACK:
        raise ValueError(
            f"lambda={lam} infeasible for state with moments {m.as_tuple()}: "
            f"slack {slack:.3e} < 0"
        )
    a = m.mu_minus / (lam * lam * m.mu_plus)
    b = max(slack, 0.0) / (lam * m.mu_plus)
    return np.array([[a, b], [a, 1.0 + b]])


def conjugacy_matrix(lam: float) -> np.ndarray:
    """Constant change of basis B with A = lam * B^-1 A_lambda B."""
    return np.array([[1.0, -lam], [1.0, 0.0]])


def conjugacy_residual(m: MomentTriple, lam: float) -> float:
    """Max-abs entry of A - lam * B^-1 A_lambda B (0 up to roundoff)."""
    a = build_A(m)
    al = build_A_lambda(m, lam)
    b = conjugacy_matrix(lam)
    recon = lam * np.linalg.solve(b, al @ b)
    return float(np.abs(a - recon).max())


@dataclass(frozen=True)
class LyapunovEstimate:
    """Replica-averaged exponent in nats per step."""

    value: float
    stderr: float
    steps: int
    replicas: int
    matrix_kind: str
    lam: float | None = None

    @property
    def label(self) -> str:
        if self.matrix_kind == "A_lambda":
            return f"A_lambda({self.lam:g})"
        return self.matrix_kind


def state_matrices(envlaw: EnvironmentLaw, matrix_kind: str, lam: float | None = None) -> np.ndarray:
    """(n_states, 2, 2) table of the chosen family, one matrix per state."""
    if matrix_kind not in MATRIX_KINDS:
        raise ValueError(f"unknown matrix kind {matrix_kind!r}; choose from {MATRIX_KINDS}")
    if matrix_kind == "A_lambda":
        if lam is None:
            raise ValueError("matrix kind A_lambda needs a lambda value")
        mats = [build_A_lambda(m, lam) for m in envlaw.state_moments]
    elif matrix_kind == "A":
        mats = [build_A(m) for m in envlaw.state_moments]
    else:
        mats = [build_A_tilde(m) for m in envlaw.state_moments]
    return np.stack(mats)


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


class _ProductReduction:
    """ln of the max-abs entry of T[idx[-1]] @ ... @ T[idx[0]], for idx of one length.

    The reduction is the tree `_log_norm_of_product` walks: each level
    multiplies the odd entries of its list (left) into the even ones,
    rescales every product to max-abs entry 1 and adds the logs of the
    scales; an odd tail is carried to the end of the next list.  Level one
    only ever pairs two table matrices, so it is computed once, for every
    ordered pair of states (column j*n_states + i holds T[j] @ T[i]), and
    gathered by the drawn indices.  Later levels run on two (4, m) entry
    buffers in turn.  Every buffer is allocated once and reused by each
    replica of an estimate, so no replica pays for fresh pages.
    """

    def __init__(self, table: np.ndarray, weights: np.ndarray, steps: int):
        n_states = table.shape[0]
        self.entries = table.reshape(n_states, 4).T
        left, right = np.divmod(np.arange(n_states * n_states), n_states)
        self.pairs = np.empty((4, n_states * n_states))
        self.pair_logs = np.empty(n_states * n_states)
        with np.errstate(divide="ignore", invalid="ignore"):
            _normalized_products(self.entries[:, left], self.entries[:, right],
                                 self.pairs, self.pair_logs, np.empty(n_states * n_states))
        self.cdf = weights.cumsum()
        self.cdf /= self.cdf[-1]
        h = steps // 2
        self._u = np.empty(steps)
        self._idx = np.empty(steps, dtype=np.intp)
        self._which = np.empty(h, dtype=np.intp)
        self._lists = (np.empty((4, h + 1)), np.empty((4, (h + 1) // 2 + 1)))
        self._logs = np.empty(h)
        self._work = np.empty((h + 1) // 2)

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """The indices rng.choice(n_states, size=steps, p=weights) would draw.

        choice takes searchsorted(cdf, rng.random(steps), side="right") with
        cdf = weights.cumsum() / weights.sum(); as cdf[-1] == 1 > u, that
        is the count of the other edges at or below u.  The result is a
        buffer that the next draw overwrites.
        """
        u = rng.random(out=self._u)
        idx = self._idx
        np.greater_equal(u, self.cdf[0], out=idx)
        for edge in self.cdf[1:-1]:
            idx += u >= edge
        return idx

    def __call__(self, idx: np.ndarray) -> float:
        n_states = self.entries.shape[1]
        n = idx.shape[0]
        h = n // 2
        which = np.multiply(idx[1 : 2 * h : 2], n_states, out=self._which)
        which += idx[0 : 2 * h : 2]
        cur = self._lists[0][:, : h + n % 2]
        for row, pair_row in zip(cur, self.pairs):
            np.take(pair_row, which, out=row[:h], mode="clip")
        if n % 2:
            cur[:, h] = self.entries[:, idx[-1]]
        logs = np.take(self.pair_logs, which, out=self._logs, mode="clip")
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

    Replica r draws its state sequence as rng.choice(n_states, steps,
    p=weights) would on default_rng([seed, r]), reduces the product of the
    drawn matrices with the pair table and the entry-wise tree (see the
    module docstring) and contributes ln ||product|| / steps, one replica
    at a time.  The value is the replica mean and stderr the replica
    dispersion / sqrt(R).  With one state every replica draws the same
    sequence, so one is reduced: its value is the estimate and the stderr
    is exactly 0 (a mean and deviation over R copies could round away
    from that when R is not a power of two).
    n_workers is accepted for compatibility and ignored: the replicas run
    on one thread and the result never depends on it.
    """
    if steps < 1_000:
        raise ValueError(f"steps must be >= 1000, got {steps}")
    if replicas < 2:
        raise ValueError(f"replicas must be >= 2, got {replicas}")
    table = state_matrices(envlaw, matrix_kind, lam)
    reduce = _ProductReduction(table, envlaw.weights, steps)
    if envlaw.n_states == 1:
        value = reduce(np.zeros(steps, dtype=np.intp)) / steps
        stderr = 0.0
    else:
        values = np.array([
            reduce(reduce.draw(np.random.default_rng([seed, r]))) / steps for r in range(replicas)
        ])
        value = float(values.mean())
        stderr = float(values.std(ddof=1) / math.sqrt(replicas))
    return LyapunovEstimate(
        value=value, stderr=stderr, steps=steps, replicas=replicas,
        matrix_kind=matrix_kind, lam=lam,
    )


def second_exponent_via_det(envlaw: EnvironmentLaw, lam: float, gamma1_lambda: float) -> float:
    """Second exponent of the A_lambda family via the determinant sum rule.

    gamma1 + gamma2 equals the mean log determinant, which for this family
    is E ln(mu-/mu+) - 2 ln(lam).
    """
    mean_log_det = 0.0
    for w, m in zip(envlaw.weights, envlaw.state_moments):
        mean_log_det += w * math.log(m.mu_minus / m.mu_plus)
    return mean_log_det - 2.0 * math.log(lam) - gamma1_lambda
