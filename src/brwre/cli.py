"""Experiment orchestration: config in, reports and plot-ready series out.

Subcommands: validate, classify, lyapunov, spectral, simulate, frozen,
crosscheck, all.  Every run reads one JSON config, writes report.json
into the output directory, and optionally CSV series.  Reports are
byte-reproducible for identical configs: all randomness is derived from
the config seed and floats are emitted with 17 significant digits.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from . import criteria, lyapunov, simulator, spectral
from .envmodel import (
    EnvironmentLaw,
    OffspringLaw,
    OffspringVector,
    derive_seed,
    validate_conditions,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONDITIONS = 2
EXIT_INCONCLUSIVE = 3


class ConfigError(ValueError):
    """Malformed experiment config; message names the offending field path."""


# ---------------------------------------------------------------------------
# Config schema: each int option carries its minimum, and mode its allowed
# values, in the field metadata read by _parse_opts; every float option must
# be positive, and numpy holds every int option but the seed as an int64

_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class LyapunovOpts:
    steps: int = field(default=100_000, metadata={"minimum": 1000})
    replicas: int = field(default=32, metadata={"minimum": 2})


@dataclass(frozen=True)
class SpectralOpts:
    n_values: tuple[int, ...] = (1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class SimulateOpts:
    trials: int = field(default=10_000, metadata={"minimum": 100})
    horizon: int = field(default=400, metadata={"minimum": 1})
    cap: int = field(default=1_000_000, metadata={"minimum": 1})
    mode: str = field(default="quenched", metadata={"choices": ("quenched", "annealed")})


@dataclass(frozen=True)
class FrozenOpts:
    levels: int = field(default=20, metadata={"minimum": 1})
    trials_per_level: int = field(default=10_000, metadata={"minimum": 1})
    max_time: int = field(default=5_000, metadata={"minimum": 1})
    max_population: int = field(default=1_000_000, metadata={"minimum": 1})
    censor_threshold: float = 0.01


@dataclass(frozen=True)
class Thresholds:
    sigma_margin: float = 3.0


@dataclass(frozen=True)
class ExperimentConfig:
    environment: EnvironmentLaw
    seed: int
    lyapunov: LyapunovOpts
    spectral: SpectralOpts
    simulate: SimulateOpts
    frozen: FrozenOpts
    thresholds: Thresholds
    sha256: str


def _expect_mapping(value, path):
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _expect_list(value, path):
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected an array, got {type(value).__name__}")
    return value


def _expect_int(value, path, minimum=None, maximum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{path}: must be <= {maximum}, got {value}")
    return value


def _expect_known_keys(raw, known, path):
    for key in raw:
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown field")


def _expect_number(value, path, *, positive=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite, got {value}")
    if positive and value <= 0.0:
        raise ConfigError(f"{path}: must be positive, got {value}")
    return value


def _parse_environment(raw, path="environment") -> EnvironmentLaw:
    raw = _expect_mapping(raw, path)
    states_raw = _expect_list(raw.get("states"), f"{path}.states")
    if not states_raw:
        raise ConfigError(f"{path}.states: needs at least one state")
    states = []
    for i, state in enumerate(states_raw):
        spath = f"{path}.states[{i}]"
        state = _expect_mapping(state, spath)
        weight = _expect_number(state.get("weight"), f"{spath}.weight", positive=True)
        atoms_raw = _expect_list(state.get("atoms"), f"{spath}.atoms")
        atoms = []
        for j, atom in enumerate(atoms_raw):
            apath = f"{spath}.atoms[{j}]"
            atom = _expect_mapping(atom, apath)
            p = _expect_number(atom.get("p"), f"{apath}.p", positive=True)
            v = _expect_list(atom.get("v"), f"{apath}.v")
            if len(v) != 3:
                raise ConfigError(f"{apath}.v: expected [v_minus, v_zero, v_plus]")
            comps = [_expect_int(c, f"{apath}.v[{k}]", minimum=0, maximum=_INT64_MAX)
                     for k, c in enumerate(v)]
            atoms.append((p, OffspringVector(*comps)))
        try:
            law = OffspringLaw(atoms)
        except ValueError as exc:
            raise ConfigError(f"{spath}.atoms: {exc}") from exc
        states.append((weight, law))
    try:
        return EnvironmentLaw(states)
    except ValueError as exc:
        raise ConfigError(f"{path}.states: {exc}") from exc


def _parse_opts(cls, raw, section):
    """One options section: each field of `cls` read from `raw`, or its default."""
    raw = _expect_mapping(raw, section)
    _expect_known_keys(raw, {f.name for f in fields(cls)}, section)
    values = {}
    for f in fields(cls):
        value, path = raw.get(f.name, f.default), f"{section}.{f.name}"
        if "minimum" in f.metadata:
            value = _expect_int(value, path, minimum=f.metadata["minimum"], maximum=_INT64_MAX)
        elif "choices" in f.metadata:
            if value not in f.metadata["choices"]:
                expected = " or ".join(repr(c) for c in f.metadata["choices"])
                raise ConfigError(f"{path}: expected {expected}, got {value!r}")
        else:
            value = _expect_number(value, path, positive=True)
        values[f.name] = value
    return cls(**values)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(blob)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    raw = _expect_mapping(raw, "config")

    _expect_known_keys(raw, {f.name for f in fields(ExperimentConfig)} - {"sha256"}, "config")

    env = _parse_environment(raw.get("environment"))
    seed = _expect_int(raw.get("seed", 0), "seed", minimum=0)
    lyap = _parse_opts(LyapunovOpts, raw.get("lyapunov", {}), "lyapunov")

    sp = _expect_mapping(raw.get("spectral", {}), "spectral")
    _expect_known_keys(sp, ("n_values", "tol"), "spectral")  # an old config's tol is ignored
    n_values_raw = sp.get("n_values", list(SpectralOpts.n_values))
    n_values = tuple(
        _expect_int(n, f"spectral.n_values[{i}]", minimum=0, maximum=_INT64_MAX)
        for i, n in enumerate(_expect_list(n_values_raw, "spectral.n_values"))
    )
    if not n_values or any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ConfigError("spectral.n_values: must be a nonempty strictly increasing array")

    return ExperimentConfig(
        environment=env, seed=seed, lyapunov=lyap, spectral=SpectralOpts(n_values=n_values),
        simulate=_parse_opts(SimulateOpts, raw.get("simulate", {}), "simulate"),
        frozen=_parse_opts(FrozenOpts, raw.get("frozen", {}), "frozen"),
        thresholds=_parse_opts(Thresholds, raw.get("thresholds", {}), "thresholds"),
        sha256=hashlib.sha256(blob).hexdigest(),
    )


def worker_count() -> int:
    """Worker count of a run: always 1, since every stage runs on the calling thread.

    BRWRE_THREADS is not read; results never depend on a worker count.
    """
    return 1


# ---------------------------------------------------------------------------
# Deterministic JSON emitter (fixed key order, 17-significant-digit floats)


def _emit_json(value, out: list[str]) -> None:
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        x = float(value)
        if math.isnan(x):
            out.append("NaN")
        elif math.isinf(x):
            out.append("Infinity" if x > 0 else "-Infinity")
        else:
            out.append(format(x, ".17g"))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, dict):
        out.append("{")
        for i, (k, v) in enumerate(value.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _emit_json(v, out)
        out.append("}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        out.append("[")
        for i, v in enumerate(value):
            if i:
                out.append(", ")
            _emit_json(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps_report(report: dict) -> str:
    out: list[str] = []
    _emit_json(report, out)
    return "".join(out) + "\n"


# ---------------------------------------------------------------------------
# Stage estimates and the report sections built from them


class Stages:
    """The estimates of one config, each computed on first use and then reused:
    a section reads the same whichever subcommand writes it, and each (matrix
    kind, lambda) exponent is drawn at most once per run."""

    def __init__(self, config: ExperimentConfig):
        s = config.seed
        self.config = config
        self.env = config.environment
        self.seeds = {
            "master": s,
            "environment": derive_seed(s, 1),
            "lyapunov": derive_seed(s, 2),
            "simulate": derive_seed(s, 3),
            "frozen": derive_seed(s, 4),
            "supermartingale": derive_seed(s, 5),
        }

    @cached_property
    def regime(self):
        """The classifier's verdict; its statistical branch draws one exponent."""
        return criteria.classify_environment(
            self.env, seed=self.seeds["lyapunov"], steps=self.config.lyapunov.steps,
            replicas=self.config.lyapunov.replicas, sigma_margin=self.config.thresholds.sigma_margin,
        )

    def exponent(self, kind: str, salt: int | None = None, lam=None):
        """Top exponent of one matrix family, seeded by the lyapunov seed or a salt of it."""
        seed = self.seeds["lyapunov"]
        return lyapunov.top_lyapunov(
            self.env, kind, steps=self.config.lyapunov.steps, replicas=self.config.lyapunov.replicas,
            seed=seed if salt is None else derive_seed(seed, salt), lam=lam,
        )

    def _classified(self, kind: str, salt: int | None):
        est = self.regime.gamma1
        return est if est is not None and est.matrix_kind == kind else self.exponent(kind, salt)

    @cached_property
    def gamma(self):
        """Kind-A top exponent: the classifier's draw on the right-vanishing branch."""
        return self._classified("A", None)

    @cached_property
    def gamma_tilde(self):
        """Kind-A_tilde top exponent: the classifier's draw on the left-vanishing branch."""
        return self._classified("A_tilde", 1)

    @cached_property
    def sweep(self):
        return spectral.rho_sweep(self.env, self.seeds["environment"], self.config.spectral.n_values)

    @cached_property
    def survival(self):
        sim = self.config.simulate
        return simulator.survival_probabilities(
            self.env, trials=sim.trials, horizon=sim.horizon, cap=sim.cap, mode=sim.mode,
            env_seed=self.seeds["environment"], seed=self.seeds["simulate"],
        )

    @cached_property
    def profile(self):
        """Frozen mean profile, or None outside the right-vanishing branch."""
        if criteria.vanishing_direction(self.env) != "right":
            return None
        fr = self.config.frozen
        return simulator.frozen_mean_profile(
            self.env, self.seeds["environment"], fr.levels, fr.trials_per_level,
            seed=self.seeds["frozen"], max_time=fr.max_time, max_population=fr.max_population,
            censor_threshold=fr.censor_threshold,
        )

    @cached_property
    def trace(self):
        """Supermartingale trace at the feasible set's geometric midpoint, or None
        when the set is empty."""
        iv = criteria.lambda_feasible_set(self.env)
        if iv.is_empty:
            return None
        sim = self.config.simulate
        return simulator.supermartingale_trace(
            self.env, self.seeds["environment"], math.sqrt(iv.lo * iv.hi), min(sim.trials, 10_000),
            min(sim.horizon, 60), seed=self.seeds["supermartingale"],
        )


def _conditions_section(report) -> dict:
    return {
        "cond_E": report.cond_e,
        "cond_B": report.cond_b,
        "cond_S": report.cond_s,
        "ok": report.ok,
        "violations": [
            {"condition": v.condition, "state": v.state_index, "reason": v.reason}
            for v in report.violations
        ],
    }


def _estimate_section(est) -> dict | None:
    if est is None:
        return None
    return {
        "value": est.value,
        "stderr": est.stderr,
        "steps": est.steps,
        "replicas": est.replicas,
        "matrix_kind": est.label,
    }


def _regime_section(st: Stages, say) -> dict:
    r = st.regime
    say(f"regime: {r.regime} (vanishing {r.vanishing_direction})")
    iv = r.lambda_set
    return {
        "regime": r.regime,
        "vanishing_direction": r.vanishing_direction,
        "lambda_set": {"empty": True} if iv.is_empty else {"empty": False, "lo": iv.lo, "hi": iv.hi},
        "drift": r.drift,
        "gamma1": _estimate_section(r.gamma1),
        "margin": r.margin,
    }


def _lyapunov_section(st: Stages, say) -> dict:
    say(f"gamma1 = {st.gamma.value:.6f} +- {st.gamma.stderr:.2e}")
    return {"gamma1": _estimate_section(st.gamma), "gamma1_tilde": _estimate_section(st.gamma_tilde)}


def _rho_sweep_section(st: Stages, say) -> list:
    say(f"rho sweep: {st.sweep[-1][1]:.6f} at N={st.sweep[-1][0]}")
    return [[n, r] for n, r in st.sweep]


def _survival_section(st: Stages, say) -> dict:
    est = st.survival
    say(f"global survival frequency: {est.global_freq:.4f}")
    return {
        "mode": est.mode,
        "trials": est.trials,
        "global_freq": est.global_freq,
        "global_stderr": est.global_stderr,
        "local_proxy_freq": est.local_proxy_freq,
        "local_proxy_stderr": est.local_proxy_stderr,
    }


def _frozen_section(st: Stages, say) -> dict:
    profile = st.profile
    if profile is None:
        return {"skipped": "freezing construction needs the right-vanishing branch"}
    say(f"frozen log-average: {profile.log_average:.5f}")
    return {
        "levels": [int(k) for k in profile.levels],
        "level_means": list(profile.level_means),
        "level_stderrs": list(profile.level_stderrs),
        "censored_rates": list(profile.censored_rates),
        "flagged_levels": list(profile.flagged_levels),
        "trials_per_level": profile.trials_per_level,
        "log_average": profile.log_average,
        "log_average_stderr": profile.log_average_stderr,
    }


def _crosscheck_section(st: Stages, say) -> list[dict]:
    rows = run_crosscheck(st)
    n_fail = sum(r["verdict"] == "fail" for r in rows)
    say(f"crosscheck: {len(rows)} rows, {n_fail} failing")
    return rows


def _supermartingale_section(st: Stages, say) -> dict | None:
    trace = st.trace
    if trace is None:
        return None
    return {"lambda": trace.lam, "trials": trace.trials, "horizon": trace.horizon,
            "mean_h": list(trace.mean_h)}


# Private builders only: they reach run_crosscheck and the stage functions through
# module attributes at call time, so a replaced attribute (a monkeypatch, a tracer) runs.
SECTIONS = {
    "regime": _regime_section,
    "lyapunov": _lyapunov_section,
    "rho_sweep": _rho_sweep_section,
    "survival": _survival_section,
    "frozen_profile": _frozen_section,
    "crosscheck": _crosscheck_section,
    "supermartingale": _supermartingale_section,
}

# the sections each subcommand writes after "conditions" (which every run writes),
# in table order
SUBCOMMAND_SECTIONS = {
    "validate": (), "classify": ("regime",), "lyapunov": ("lyapunov",), "spectral": ("rho_sweep",),
    "simulate": ("survival",), "frozen": ("frozen_profile",),
    "crosscheck": tuple(s for s in SECTIONS if s != "lyapunov"), "all": tuple(SECTIONS),
}
SUBCOMMANDS = tuple(SUBCOMMAND_SECTIONS)


# ---------------------------------------------------------------------------
# Cross-check table


def _identity_tol(se_combined: float, steps: int) -> float:
    # replica stderr is exactly 0 in constant environments; fall back to the
    # estimator's deterministic O(1/steps) resolution so the tolerance never
    # degenerates below the finite-product bias
    return max(3.0 * se_combined, 20.0 / steps)


def _ols_slope_and_se(log_f: np.ndarray, sigma_inc: float) -> tuple[float, float]:
    """OLS slope of a cumulative-sum series against 1..K, with the exact
    standard error implied by i.i.d. increments of dispersion sigma_inc."""
    k = np.arange(1, len(log_f) + 1, dtype=float)
    kc = k - k.mean()
    denom = float((kc**2).sum())
    slope = float((kc * log_f).sum()) / denom
    tails = np.array([kc[j:].sum() for j in range(len(log_f))])
    se = sigma_inc * math.sqrt(float((tails**2).sum())) / denom
    return slope, se


# Each check reads the stages and returns a skip note or (lhs, rhs, tolerance,
# passed, note).


def _conjugacy_identity(st: Stages):
    lam, moments = st.trace.lam, st.env.state_moments
    residual = max(lyapunov.conjugacy_residual(m, lam) for m in moments)
    tol = 1e-9 * (1.0 + max(float(np.abs(lyapunov.build_A(m)).max()) for m in moments))
    return residual, 0.0, tol, residual <= tol, f"lambda={lam:.6g}"


def _exponent_shift(st: Stages):
    lam, gamma = st.trace.lam, st.gamma
    gamma_lam = st.exponent("A_lambda", 12, lam)
    shift = gamma_lam.value + math.log(lam)
    tol = _identity_tol(math.hypot(gamma.stderr, gamma_lam.stderr), st.config.lyapunov.steps)
    return gamma.value, shift, tol, abs(gamma.value - shift) <= tol, f"lambda={lam:.6g}"


def _lambda_independence(st: Stages):
    iv = st.regime.lambda_set
    if iv.hi / iv.lo <= 1.0 + criteria.FEASIBILITY_TOL:
        return "feasible set is a single point"
    log_lo, log_hi = math.log(iv.lo), math.log(iv.hi)
    lam_a = math.exp(log_lo + 0.35 * (log_hi - log_lo))
    lam_b = math.exp(log_lo + 0.70 * (log_hi - log_lo))
    est_a = st.exponent("A_lambda", 13, lam_a)
    est_b = st.exponent("A_lambda", 14, lam_b)
    fa = math.log(lam_a) + lyapunov.second_exponent_via_det(st.env, lam_a, est_a.value)
    fb = math.log(lam_b) + lyapunov.second_exponent_via_det(st.env, lam_b, est_b.value)
    tol = _identity_tol(math.hypot(est_a.stderr, est_b.stderr), st.config.lyapunov.steps)
    return fa, fb, tol, abs(fa - fb) <= tol, f"lambda_a={lam_a:.6g} lambda_b={lam_b:.6g}"


def _supermartingale_monotone(st: Stages):
    trace = st.trace
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(
            trace.diff_stderr > 0.0,
            trace.diff_mean / trace.diff_stderr,
            np.where(trace.diff_mean > 0.0, np.inf, 0.0),
        )
    worst = float(np.max(z)) if len(z) else 0.0
    return worst, 0.0, 3.0, worst <= 3.0, f"lambda={trace.lam:.6g}, max paired-increment z-score"


def _survival_concordance(st: Stages):
    regime, freq = st.regime.regime, st.survival.global_freq
    if regime == criteria.INCONCLUSIVE:
        return "verdict inconclusive"
    if regime == criteria.GLOBAL_EXTINCTION:
        return freq, 0.0, 0.01, freq <= 0.01, "extinction verdict"
    return freq, 1.0, 0.95, freq > 0.05, "survival verdict: freq must exceed 0.05"


def _local_global_coincidence(st: Stages):
    regime, sv = st.regime.regime, st.survival
    if regime == criteria.INCONCLUSIVE:
        return "verdict inconclusive"
    if regime == criteria.STRONG_LOCAL_SURVIVAL:
        tol = 3.0 * math.hypot(sv.global_stderr, sv.local_proxy_stderr)
        return (sv.global_freq, sv.local_proxy_freq, tol,
                abs(sv.global_freq - sv.local_proxy_freq) <= tol,
                "strong local survival: the two events coincide")
    note = ("local dies with global" if regime == criteria.GLOBAL_EXTINCTION
            else "local extinction despite survival")
    return sv.local_proxy_freq, 0.0, 0.01, sv.local_proxy_freq <= 0.01, note


def _frozen_log_mean(st: Stages):
    profile, gamma = st.profile, st.gamma
    target = st.regime.drift - gamma.value
    tol = 3.0 * math.hypot(profile.log_average_stderr, gamma.stderr)
    return (profile.log_average, target, tol, abs(profile.log_average - target) <= tol,
            "mean log frozen count vs drift minus top exponent")


def _frozen_slope(st: Stages):
    profile, gamma = st.profile, st.gamma
    if len(profile.levels) < 2:
        return "slope needs two or more levels"
    if profile.flagged_levels:
        return "flagged zero-mean levels"
    target = st.regime.drift - gamma.value
    sigma_inc = profile.log_average_stderr * math.sqrt(len(profile.levels))
    slope, slope_se = _ols_slope_and_se(profile.log_partial_sums(), sigma_inc)
    tol = 3.0 * math.hypot(slope_se, gamma.stderr)
    return slope, target, tol, abs(slope - target) <= tol, "regression slope of the log relay-product"


def _per_level_bound(st: Stages):
    profile = st.profile
    rel = np.where(profile.level_means > 0,
                   profile.level_stderrs / np.maximum(profile.level_means, 1e-300), 0.0)
    bound = st.regime.lambda_set.hi * (1.0 + 3.0 * rel)
    excess = float(np.max(profile.level_means - bound))
    return excess, 0.0, 0.0, excess <= 0.0, "level means bounded by the top feasible lambda"


def _spectral_criterion(st: Stages):
    max_rho = max(r for _, r in st.sweep)
    tol = spectral.root_error_bound(st.env)
    if st.regime.lambda_set.is_empty:
        return (max_rho, 1.0, tol, max_rho > 1.0 + tol,
                "local survival: some truncation must exceed 1")
    return (max_rho, 1.0, tol, max_rho <= 1.0 + tol,
            "local extinction: every truncation stays below 1")


# the note of a row skipped because the stage it needs is None
_SKIP_NOTES = {"trace": "no feasible lambda", "profile": "not in the right-vanishing branch"}

# The rows in report order: (identity, the stage the row needs or None, check,
# whether the tolerance is a roundoff or exact bound rather than a multiple of
# standard errors, so that the row has no distance in sigmas).
CROSSCHECKS = (
    ("conjugacy_identity", "trace", _conjugacy_identity, True),
    ("exponent_shift", "trace", _exponent_shift, False),
    ("lambda_independence", "trace", _lambda_independence, False),
    ("supermartingale_monotone", "trace", _supermartingale_monotone, False),
    ("survival_concordance", None, _survival_concordance, False),
    ("local_global_coincidence", None, _local_global_coincidence, False),
    ("frozen_log_mean", "profile", _frozen_log_mean, False),
    ("frozen_slope", "profile", _frozen_slope, False),
    ("per_level_bound", "profile", _per_level_bound, True),
    ("spectral_criterion", None, _spectral_criterion, True),
)


def run_crosscheck(st: Stages) -> list[dict]:
    """Every CROSSCHECKS row on the estimates of one config, as report rows."""
    rows = []
    for name, needs, check, bound in CROSSCHECKS:
        result = _SKIP_NOTES[needs] if needs and getattr(st, needs) is None else check(st)
        if isinstance(result, str):
            result = (None, None, None, None, result)
        lhs, rhs, tol, passed, note = result
        sigma = None if passed is None or bound or tol == 0.0 else 3.0 * abs(lhs - rhs) / tol
        verdict = "skipped" if passed is None else ("pass" if passed else "fail")
        rows.append({"identity": name, "lhs": lhs, "rhs": rhs, "tolerance": tol,
                     "sigma_distance": sigma, "verdict": verdict, "note": note})
    return rows


# ---------------------------------------------------------------------------
# CSV writers


def _write_csv(outdir: str, name: str, header: list[str], rows) -> str:
    path = os.path.join(outdir, name)
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if cell is None:
                cells.append("")
            elif isinstance(cell, (float, np.floating)):
                cells.append(format(float(cell), ".17g"))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _write_series(outdir: str, report: dict, st: Stages) -> list[str]:
    written = []
    if "rho_sweep" in report:
        written.append(_write_csv(outdir, "rho_sweep.csv", ["N", "rho"], report["rho_sweep"]))
    if "survival" in report:
        written.append(_write_csv(
            outdir, "survival.csv", ["trial", "status", "extinction_time", "last_origin_visit"],
            ([i, o.status, o.extinction_time, o.last_origin_visit]
             for i, o in enumerate(st.survival.outcomes)),
        ))
    if "levels" in report.get("frozen_profile", {}):
        fp = report["frozen_profile"]
        ln_f = 0.0
        rows = []
        for k, m in zip(fp["levels"], fp["level_means"]):
            ln_f = ln_f + math.log(m) if m > 0 else math.nan
            rows.append([k, m, ln_f])
        written.append(_write_csv(outdir, "frozen_profile.csv", ["k", "m_k", "ln_f_k"], rows))
    if "supermartingale" in report:
        rows = [[n, v] for n, v in enumerate(report["supermartingale"]["mean_h"])]
        written.append(_write_csv(outdir, "supermartingale.csv", ["n", "mean_h"], rows))
    return written


# ---------------------------------------------------------------------------
# Subcommand driver


def run(config_path: str, subcommand: str, outdir: str = ".", fmt: str = "json",
        strict: bool = False, quiet: bool = False) -> int:
    """Execute one subcommand; returns the process exit status."""
    if subcommand not in SUBCOMMANDS:
        print(f"unknown subcommand {subcommand!r}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        config = load_config(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL

    os.makedirs(outdir, exist_ok=True)
    st = Stages(config)
    report: dict = {
        "tool": "brwre",
        "subcommand": subcommand,
        "config_sha256": config.sha256,
        "seeds": st.seeds,
    }
    status = EXIT_OK
    say = (lambda msg: None) if quiet else print
    try:
        conditions = validate_conditions(config.environment)
        report["conditions"] = _conditions_section(conditions)
        if not conditions.ok:
            say("conditions: FAILED")
            status = EXIT_CONDITIONS
        elif subcommand == "validate":
            say("conditions: ok")
        for name in SUBCOMMAND_SECTIONS[subcommand] if conditions.ok else ():
            section = SECTIONS[name](st, say)
            if section is not None:
                report[name] = section
            if name == "regime" and strict and st.regime.regime == criteria.INCONCLUSIVE:
                status = EXIT_INCONCLUSIVE
                if subcommand == "all":
                    break  # all stops at the verdict; crosscheck still checks it
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL

    report_path = os.path.join(outdir, "report.json")
    with open(report_path, "w") as fh:
        fh.write(dumps_report(report))
    say(f"wrote {report_path}")
    if fmt in ("csv", "both"):
        for path in _write_series(outdir, report, st):
            say(f"wrote {path}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="brwre",
        description="Classify branching random walks in random environment and "
                    "cross-validate the verdict with quenched Monte Carlo.",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to the experiment JSON config")
    parser.add_argument("--out", default=".", help="output directory (default: current)")
    parser.add_argument("--format", choices=("json", "csv", "both"), default="json")
    parser.add_argument("--strict", action="store_true",
                        help="exit 3 when the verdict is Inconclusive")
    parser.add_argument("--quiet", action="store_true", help="suppress progress lines")
    args = parser.parse_args(argv)
    try:
        return run(args.config, args.subcommand, outdir=args.out, fmt=args.format,
                   strict=args.strict, quiet=args.quiet)
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
