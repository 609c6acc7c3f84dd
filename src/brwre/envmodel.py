"""Offspring laws and i.i.d. site environments on the integer line.

A particle at site x is replaced, in one time step, by children placed on
{x-1, x, x+1} according to the offspring law attached to x.  The laws are
drawn independently per site from a finite mixture of finite-support laws;
a 64-bit seed plus the site index determine the realized law, so arbitrary
stretches of the line can be materialized on demand without storing them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Probabilities/weights must sum to 1 within this tolerance at construction;
# inputs inside the tolerance are renormalized, anything else is rejected.
PROB_TOL = 1e-12

# lam is feasible for a state when MomentTriple.slack(lam) >= -FEASIBILITY_TOL: the
# one tolerance of every closed-form decision, so no double root is lost to rounding
FEASIBILITY_TOL = 1e-9

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class OffspringVector:
    """Child counts placed one step left, in place, and one step right."""

    v_minus: int
    v_zero: int
    v_plus: int

    def __post_init__(self):
        for name in ("v_minus", "v_zero", "v_plus"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")

    @property
    def total(self) -> int:
        return self.v_minus + self.v_zero + self.v_plus

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.v_minus, self.v_zero, self.v_plus)


@dataclass(frozen=True)
class OffspringLaw:
    """Finite-support probability law on offspring vectors.

    Atoms are (probability, vector) pairs with pairwise-distinct vectors.
    Probabilities must sum to 1 within PROB_TOL; they are renormalized to
    sum exactly to 1 so downstream cumulative lookups are clean.
    """

    atoms: tuple[tuple[float, OffspringVector], ...]

    def __init__(self, atoms):
        atoms = tuple((float(p), v) for p, v in atoms)
        if not atoms:
            raise ValueError("offspring law needs at least one atom")
        for p, v in atoms:
            if not isinstance(v, OffspringVector):
                raise ValueError(f"atom vector must be an OffspringVector, got {v!r}")
            if not (0.0 < p <= 1.0):
                raise ValueError(f"atom probability {p} outside (0, 1]")
        seen = set()
        for _, v in atoms:
            if v.as_tuple() in seen:
                raise ValueError(f"duplicate atom vector {v.as_tuple()}")
            seen.add(v.as_tuple())
        total = sum(p for p, _ in atoms)
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"atom probabilities sum to {total!r}, not 1 within {PROB_TOL}")
        atoms = tuple((p / total, v) for p, v in atoms)
        object.__setattr__(self, "atoms", atoms)

    @cached_property
    def probabilities(self) -> np.ndarray:
        return np.array([p for p, _ in self.atoms], dtype=float)

    @cached_property
    def vectors(self) -> np.ndarray:
        """(n_atoms, 3) int64 array of [v_minus, v_zero, v_plus] rows."""
        return np.array([v.as_tuple() for _, v in self.atoms], dtype=np.int64)

    def mass_with_left_child(self) -> float:
        """Probability of emitting at least one child to the left."""
        return float(self.probabilities[self.vectors[:, 0] >= 1].sum())

    def mass_with_right_child(self) -> float:
        """Probability of emitting at least one child to the right."""
        return float(self.probabilities[self.vectors[:, 2] >= 1].sum())


@dataclass(frozen=True)
class MomentTriple:
    """Mean child counts sent left, kept in place, and sent right."""

    mu_minus: float
    mu_zero: float
    mu_plus: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.mu_minus, self.mu_zero, self.mu_plus)

    def reflected(self) -> "MomentTriple":
        return MomentTriple(self.mu_plus, self.mu_zero, self.mu_minus)

    def slack(self, lam: float) -> float:
        """1 - (mu-/lam + mu0 + mu+*lam): nonnegative iff lam is feasible for this state."""
        if lam <= 0.0:
            raise ValueError(f"lambda must be positive, got {lam}")
        return 1.0 - self.mu_zero - self.mu_minus / lam - self.mu_plus * lam


def moments(law: OffspringLaw) -> MomentTriple:
    """Probability-weighted mean of each offspring component."""
    m = law.probabilities @ law.vectors
    return MomentTriple(float(m[0]), float(m[1]), float(m[2]))


@dataclass(frozen=True)
class EnvironmentLaw:
    """Finite mixture over offspring laws: the per-site marginal.

    Each site of the line independently receives state i with weight
    states[i][0]; weights must sum to 1 within PROB_TOL.
    """

    states: tuple[tuple[float, OffspringLaw], ...]

    def __init__(self, states):
        states = tuple((float(w), law) for w, law in states)
        if not states:
            raise ValueError("environment law needs at least one state")
        for w, law in states:
            if not isinstance(law, OffspringLaw):
                raise ValueError(f"state law must be an OffspringLaw, got {law!r}")
            if not (0.0 < w <= 1.0):
                raise ValueError(f"state weight {w} outside (0, 1]")
        total = sum(w for w, _ in states)
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"state weights sum to {total!r}, not 1 within {PROB_TOL}")
        states = tuple((w / total, law) for w, law in states)
        object.__setattr__(self, "states", states)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @cached_property
    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.states], dtype=float)

    @cached_property
    def laws(self) -> tuple[OffspringLaw, ...]:
        return tuple(law for _, law in self.states)

    @cached_property
    def state_moments(self) -> tuple[MomentTriple, ...]:
        return tuple(moments(law) for law in self.laws)

    @cached_property
    def _cumulative_weights(self) -> np.ndarray:
        c = np.cumsum(self.weights)
        c[-1] = 1.0  # guard float drift so every uniform in [0,1) maps to a state
        return c

    @classmethod
    def single(cls, law: OffspringLaw) -> "EnvironmentLaw":
        return cls([(1.0, law)])


def law_from_atoms(atoms) -> OffspringLaw:
    """Build an OffspringLaw from (p, (v_minus, v_zero, v_plus)) pairs."""
    return OffspringLaw([(p, OffspringVector(*v)) for p, v in atoms])


def reflected(envlaw: EnvironmentLaw) -> EnvironmentLaw:
    """Mirror the environment through the origin (swap left/right roles).

    The weights and probabilities, normalized already, are kept bit for bit
    rather than normalized again, so every estimate of the mirror is exact."""
    states = []
    for w, law in envlaw.states:
        mirror = object.__new__(OffspringLaw)
        object.__setattr__(mirror, "atoms", tuple(
            (p, OffspringVector(v.v_plus, v.v_zero, v.v_minus)) for p, v in law.atoms))
        states.append((w, mirror))
    out = object.__new__(EnvironmentLaw)
    object.__setattr__(out, "states", tuple(states))
    return out


# ---------------------------------------------------------------------------
# Standing conditions


@dataclass(frozen=True)
class Violation:
    condition: str  # "E", "B" or "S"
    state_index: int | None
    reason: str


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the three standing checks on an environment law.

    cond_e: every state sends offspring both left and right on average
            (irreducibility of the mean-offspring matrix).
    cond_b: some state can produce two or more children at once.
    cond_s: every state emits at least one child to each side with
            positive probability (log-moment integrability for the
            matrix-product estimators).
    """

    cond_e: bool
    cond_b: bool
    cond_s: bool
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return self.cond_e and self.cond_b and self.cond_s


def validate_conditions(envlaw: EnvironmentLaw) -> ConditionReport:
    violations: list[Violation] = []
    for i, law in enumerate(envlaw.laws):
        m = moments(law)
        if m.mu_minus <= 0.0:
            violations.append(Violation("E", i, "mean offspring sent left is 0"))
        if m.mu_plus <= 0.0:
            violations.append(Violation("E", i, "mean offspring sent right is 0"))
        if law.mass_with_left_child() <= 0.0:
            violations.append(Violation("S", i, "no atom places a child to the left"))
        if law.mass_with_right_child() <= 0.0:
            violations.append(Violation("S", i, "no atom places a child to the right"))
    can_branch = any(
        any(v.total >= 2 for p, v in law.atoms if p > 0.0) for law in envlaw.laws
    )
    if not can_branch:
        violations.append(Violation("B", None, "no state has an atom with two or more children"))
    return ConditionReport(
        cond_e=not any(v.condition == "E" for v in violations),
        cond_b=can_branch,
        cond_s=not any(v.condition == "S" for v in violations),
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# Quenched realization: deterministic site -> state index


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _zigzag(site: int) -> int:
    # symmetric unsigned encoding: 0,-1,1,-2,2,... -> 0,1,2,3,4,...
    return 2 * site if site >= 0 else -2 * site - 1


def site_uniform(seed: int, site: int) -> float:
    """Deterministic uniform in [0, 1) attached to (seed, site)."""
    mixed = _splitmix64((int(seed) ^ _zigzag(int(site))) & _MASK64)
    return mixed / 2.0**64


def derive_seed(seed: int, salt: int) -> int:
    """Derive an independent 64-bit stream seed from a master seed."""
    return _splitmix64(_splitmix64(int(seed) & _MASK64) ^ (int(salt) & _MASK64))


def state_at(envlaw: EnvironmentLaw, seed: int, site: int) -> int:
    """State index realized at one site; pure in (seed, site)."""
    u = site_uniform(seed, site)
    idx = int(np.searchsorted(envlaw._cumulative_weights, u, side="right"))
    return min(idx, envlaw.n_states - 1)


def state_indices(envlaw: EnvironmentLaw, seed, sites: np.ndarray) -> np.ndarray:
    """Vectorized state_at over an int array of sites; seed may be per-site."""
    s = np.asarray(sites, dtype=np.int64)
    if envlaw.n_states == 1:
        return np.zeros(s.shape, dtype=np.int64)
    key = np.uint64(int(seed) & _MASK64) if np.ndim(seed) == 0 else np.asarray(seed).astype(np.uint64)
    enc = np.where(s >= 0, 2 * s, -2 * s - 1).astype(np.uint64)
    x = (key ^ enc) + np.uint64(0x9E3779B97F4A7C15)
    z = x
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    u = z / 2.0**64
    idx = np.searchsorted(envlaw._cumulative_weights, u, side="right")
    return np.minimum(idx, envlaw.n_states - 1).astype(np.int64)


@dataclass(frozen=True)
class EnvironmentWindow:
    """Realized state indices on the contiguous block of sites [lo, hi]."""

    lo: int
    hi: int
    state_indices: np.ndarray
    seed: int

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1


def realize_window(envlaw: EnvironmentLaw, seed: int, lo: int, hi: int) -> EnvironmentWindow:
    """Materialize the quenched states on [lo, hi]; restriction-compatible."""
    if hi < lo:
        raise ValueError(f"window bounds out of order: lo={lo}, hi={hi}")
    idx = state_indices(envlaw, seed, np.arange(lo, hi + 1, dtype=np.int64))
    idx.flags.writeable = False
    return EnvironmentWindow(lo=int(lo), hi=int(hi), state_indices=idx, seed=int(seed))
