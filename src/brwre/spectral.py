"""Perron roots of truncated mean-offspring matrices on growing windows.

The mean-offspring operator of the process is tridiagonal over the line:
row x holds (mu_x^-, mu_x^0, mu_x^+) on the sub-, main and superdiagonal.
Its spectral radius is the supremum of the Perron roots of finite window
truncations, which are nondecreasing in the window; local survival holds
exactly when that supremum exceeds 1, so sweeping windows gives a direct
numerical cross-check of the closed-form criterion.

Each window is solved exactly.  Its characteristic polynomial is that of
the symmetric tridiagonal T with off-diagonals sqrt(sup[i] * sub[i+1]), so
T - x has a nonnegative LDL^T pivot iff some eigenvalue is >= x (Sturm
counts; Barth, Martin & Wilkinson 1967).  In floating point each count is
exact for a T whose off-diagonals move by at most 3 eps relatively
(Kahan), shifting the root by at most 3 eps rho; with the final bracket of
4 ulp, the returned root is within 6 eps * (max row sum), about 1.3e-15
times it, of the exact one.  `root_error_bound` states that bound for
every window of a law, and the spectral_criterion row uses it as its
tolerance.  The root is found by bisection, each probe one scalar pass
that stops at its first nonnegative pivot.  Bisection relies on the count
being nonincreasing in the shift, as the floating-point analysis of
Demmel, Dhillon & Ren (ETNA 1995) gives for this recurrence; the tests
compare every search with one that runs each pass over every row.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .envmodel import EnvironmentLaw, state_indices


class TruncatedMomentMatrix(NamedTuple):
    """Tridiagonal mean-offspring matrix restricted to a window of sites.

    sub/diag/sup hold the per-site (mu-, mu0, mu+) aligned with the window
    sites; the first sub and last sup entries fall outside the window and
    are never used in the operator.
    """

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    @property
    def size(self) -> int:
        return len(self.diag)


def truncated_matrix(envlaw: EnvironmentLaw, seed: int, lo: int, hi: int) -> TruncatedMomentMatrix:
    """The three diagonals on the sites [lo, hi] of the quenched environment
    `seed`; a window's rows are those of every window that contains it."""
    if hi < lo:
        raise ValueError(f"window bounds out of order: lo={lo}, hi={hi}")
    triples = np.array([m.as_tuple() for m in envlaw.state_moments])
    sites = np.arange(lo, hi + 1, dtype=np.int64)
    sub, diag, sup = triples[state_indices(envlaw, seed, sites)].T.copy()
    return TruncatedMomentMatrix(sub=sub, diag=diag, sup=sup)


class SpectralEstimate(NamedTuple):
    """Perron root, Sturm passes taken and final bracket width."""

    rho: float
    iterations: int
    residual: float


def _reaches(x: float, first: float, rows: list[tuple[float, float]]) -> bool:
    """Whether some eigenvalue is >= x: one LDL^T pass of T - x, from the first
    diagonal entry and then (diagonal entry, squared off-diagonal) rows, that
    stops at its first nonnegative pivot.  A zero pivot stops it too, so no
    pivot divides by zero; a quotient past the float range is +-inf, as in
    IEEE."""
    pivot = first - x
    if pivot >= 0.0:
        return True
    for d, e2 in rows:
        pivot = (d - x) - e2 / pivot
        if pivot >= 0.0:
            return True
    return False


def spectral_radius(tm: TruncatedMomentMatrix) -> SpectralEstimate:
    """Perron root of the window by bisection on Sturm counts.

    [max diag, max row sum] holds the Perron root of any nonnegative matrix.
    Each step makes one early-exit pass (`_reaches`) at the bracket's
    midpoint and keeps the half holding the top eigenvalue, until the
    bracket is 4 ulp of the max row sum wide: about 51 passes, in plain
    floats.  A bracket wider than that has its rounded midpoint strictly
    inside, so every pass narrows it.
    """
    # floored at the smallest normal, a split matrix's root moves by < 1e-153
    offdiag_sq = np.maximum(tm.sup[:-1] * tm.sub[1:], np.finfo(float).tiny).tolist()
    diag = tm.diag.tolist()
    rows = list(zip(diag[1:], offdiag_sq))
    lo = float(tm.diag.max())
    hi = float((tm.sub + tm.diag + tm.sup).max())
    resolution = 4.0 * float(np.spacing(hi))
    passes = 0
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if _reaches(mid, diag[0], rows):
            lo = mid
        else:
            hi = mid
        passes += 1
    return SpectralEstimate(rho=0.5 * (lo + hi), iterations=passes, residual=hi - lo)


def root_error_bound(envlaw: EnvironmentLaw) -> float:
    """Bound on the error of `spectral_radius` on any window of envlaw.

    6 eps times the largest row sum any window can have, the largest
    mu-_s + mu0_s + mu+_s over the states s of the law.
    """
    return 6.0 * np.finfo(float).eps * max(sum(m.as_tuple()) for m in envlaw.state_moments)


def rho_sweep(
    envlaw: EnvironmentLaw, seed: int, n_values: Sequence[int]
) -> list[tuple[int, float]]:
    """Perron roots on the windows [-N, N] for each N, same quenched seed."""
    n_values = list(n_values)
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError(f"n_values must be strictly increasing, got {n_values}")
    if any(n < 0 for n in n_values):
        raise ValueError(f"n_values must be nonnegative, got {n_values}")
    out = []
    for n in n_values:
        out.append((int(n), spectral_radius(truncated_matrix(envlaw, seed, -n, n)).rho))
    return out
