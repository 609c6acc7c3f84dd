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
from dataclasses import dataclass

import numpy as np

from . import criteria, lyapunov, simulator, spectral
from .envmodel import (
    EnvironmentLaw,
    OffspringLaw,
    OffspringVector,
    derive_seed,
    validate_conditions,
)

SUBCOMMANDS = (
    "validate", "classify", "lyapunov", "spectral", "simulate", "frozen", "crosscheck", "all",
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONDITIONS = 2
EXIT_INCONCLUSIVE = 3


class ConfigError(ValueError):
    """Malformed experiment config; message names the offending field path."""


# ---------------------------------------------------------------------------
# Config schema


@dataclass(frozen=True)
class LyapunovOpts:
    steps: int = 100_000
    replicas: int = 32


@dataclass(frozen=True)
class SpectralOpts:
    n_values: tuple[int, ...] = (1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class SimulateOpts:
    trials: int = 10_000
    horizon: int = 400
    cap: int = 1_000_000
    mode: str = "quenched"


@dataclass(frozen=True)
class FrozenOpts:
    levels: int = 20
    trials_per_level: int = 10_000
    max_time: int = 5_000
    max_population: int = 1_000_000
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


def _expect_int(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _expect_number(value, path, *, positive=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    value = float(value)
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
            comps = [_expect_int(c, f"{apath}.v[{k}]", minimum=0) for k, c in enumerate(v)]
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

    known = {"environment", "seed", "lyapunov", "spectral", "simulate", "frozen", "thresholds"}
    for key in raw:
        if key not in known:
            raise ConfigError(f"config.{key}: unknown field")

    env = _parse_environment(raw.get("environment"))
    seed = _expect_int(raw.get("seed", 0), "seed", minimum=0)

    ly = _expect_mapping(raw.get("lyapunov", {}), "lyapunov")
    lyap = LyapunovOpts(
        steps=_expect_int(ly.get("steps", LyapunovOpts.steps), "lyapunov.steps", minimum=1000),
        replicas=_expect_int(ly.get("replicas", LyapunovOpts.replicas), "lyapunov.replicas", minimum=2),
    )

    sp = _expect_mapping(raw.get("spectral", {}), "spectral")
    n_values_raw = sp.get("n_values", list(SpectralOpts.n_values))
    n_values = tuple(
        _expect_int(n, f"spectral.n_values[{i}]", minimum=0)
        for i, n in enumerate(_expect_list(n_values_raw, "spectral.n_values"))
    )
    if not n_values or any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ConfigError("spectral.n_values: must be a nonempty strictly increasing array")
    spec_opts = SpectralOpts(n_values=n_values)

    sim = _expect_mapping(raw.get("simulate", {}), "simulate")
    mode = sim.get("mode", SimulateOpts.mode)
    if mode not in ("quenched", "annealed"):
        raise ConfigError(f"simulate.mode: expected 'quenched' or 'annealed', got {mode!r}")
    sim_opts = SimulateOpts(
        trials=_expect_int(sim.get("trials", SimulateOpts.trials), "simulate.trials", minimum=100),
        horizon=_expect_int(sim.get("horizon", SimulateOpts.horizon), "simulate.horizon", minimum=1),
        cap=_expect_int(sim.get("cap", SimulateOpts.cap), "simulate.cap", minimum=1),
        mode=mode,
    )

    fr = _expect_mapping(raw.get("frozen", {}), "frozen")
    frozen_opts = FrozenOpts(
        levels=_expect_int(fr.get("levels", FrozenOpts.levels), "frozen.levels", minimum=1),
        trials_per_level=_expect_int(
            fr.get("trials_per_level", FrozenOpts.trials_per_level),
            "frozen.trials_per_level", minimum=1,
        ),
        max_time=_expect_int(fr.get("max_time", FrozenOpts.max_time), "frozen.max_time", minimum=1),
        max_population=_expect_int(
            fr.get("max_population", FrozenOpts.max_population),
            "frozen.max_population", minimum=1,
        ),
        censor_threshold=_expect_number(
            fr.get("censor_threshold", FrozenOpts.censor_threshold),
            "frozen.censor_threshold", positive=True,
        ),
    )

    th = _expect_mapping(raw.get("thresholds", {}), "thresholds")
    thresholds = Thresholds(
        sigma_margin=_expect_number(
            th.get("sigma_margin", Thresholds.sigma_margin),
            "thresholds.sigma_margin", positive=True,
        ),
    )

    return ExperimentConfig(
        environment=env, seed=seed, lyapunov=lyap, spectral=spec_opts,
        simulate=sim_opts, frozen=frozen_opts, thresholds=thresholds,
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
# Section builders and the stage computations behind them


def _seeds_for(config: ExperimentConfig) -> dict:
    s = config.seed
    return {
        "master": s,
        "environment": derive_seed(s, 1),
        "lyapunov": derive_seed(s, 2),
        "simulate": derive_seed(s, 3),
        "frozen": derive_seed(s, 4),
        "supermartingale": derive_seed(s, 5),
    }


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


def _interval_section(interval) -> dict:
    if interval.is_empty:
        return {"empty": True}
    return {"empty": False, "lo": interval.lo, "hi": interval.hi}


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


def _regime_section(report) -> dict:
    return {
        "regime": report.regime,
        "vanishing_direction": report.vanishing_direction,
        "lambda_set": _interval_section(report.lambda_set),
        "drift": report.drift,
        "gamma1": _estimate_section(report.gamma1),
        "margin": report.margin,
    }


def _survival_section(est) -> dict:
    return {
        "mode": est.mode,
        "trials": est.trials,
        "global_freq": est.global_freq,
        "global_stderr": est.global_stderr,
        "local_proxy_freq": est.local_proxy_freq,
        "local_proxy_stderr": est.local_proxy_stderr,
    }


def _frozen_section(profile) -> dict:
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


def _classify(config: ExperimentConfig):
    return criteria.classify_environment(
        config.environment, seed=_seeds_for(config)["lyapunov"],
        steps=config.lyapunov.steps, replicas=config.lyapunov.replicas,
        sigma_margin=config.thresholds.sigma_margin,
    )


def _exponent(config: ExperimentConfig, kind: str, salt: int | None = None, lam=None):
    """Top exponent of one matrix family, seeded by the lyapunov seed or a salt of it."""
    seed = _seeds_for(config)["lyapunov"]
    return lyapunov.top_lyapunov(
        config.environment, kind, steps=config.lyapunov.steps, replicas=config.lyapunov.replicas,
        seed=seed if salt is None else derive_seed(seed, salt), lam=lam,
    )


def _rho_sweep(config: ExperimentConfig):
    return spectral.rho_sweep(
        config.environment, _seeds_for(config)["environment"], config.spectral.n_values
    )


def _simulate(config: ExperimentConfig):
    seeds = _seeds_for(config)
    return simulator.survival_probabilities(
        config.environment, trials=config.simulate.trials, horizon=config.simulate.horizon,
        cap=config.simulate.cap, mode=config.simulate.mode,
        env_seed=seeds["environment"], seed=seeds["simulate"],
    )


def _frozen_profile(config: ExperimentConfig):
    seeds = _seeds_for(config)
    return simulator.frozen_mean_profile(
        config.environment, seeds["environment"], config.frozen.levels,
        config.frozen.trials_per_level, seed=seeds["frozen"],
        max_time=config.frozen.max_time, max_population=config.frozen.max_population,
        censor_threshold=config.frozen.censor_threshold,
    )


# ---------------------------------------------------------------------------
# Cross-check table


def _row(name, lhs, rhs, tolerance, passed, note=None) -> dict:
    sigma = None
    if passed is not None and tolerance not in (None, 0.0):
        sigma = 3.0 * abs(lhs - rhs) / tolerance if tolerance > 0 else math.inf
    return {
        "identity": name,
        "lhs": lhs,
        "rhs": rhs,
        "tolerance": tolerance,
        "sigma_distance": sigma,
        "verdict": "skipped" if passed is None else ("pass" if passed else "fail"),
        "note": note,
    }


def _skipped(name, note) -> dict:
    return _row(name, None, None, None, None, note)


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


def run_crosscheck(
    config: ExperimentConfig, quiet: bool = False, survival=None, regime=None,
    sweep=None, profile=None,
) -> tuple[list[dict], dict]:
    """All identity checks on one config; returns (rows, sections).

    A survival estimate, regime, rho sweep or frozen profile the caller
    already computed from this config may be passed to avoid recomputing it.
    """
    env = config.environment
    seeds = _seeds_for(config)
    rows: list[dict] = []
    sections: dict = {}

    interval = criteria.lambda_feasible_set(env)
    drift = criteria.expected_log_drift(env)

    def say(msg):
        if not quiet:
            print(msg)

    # classifier verdict (computes the one exponent its branch needs)
    if regime is None:
        regime = _classify(config)
    sections["regime"] = _regime_section(regime)
    say(f"crosscheck: regime {regime.regime} ({regime.vanishing_direction})")

    if interval.is_empty:
        rows.append(_skipped("conjugacy_identity", "no feasible lambda"))
        rows.append(_skipped("exponent_shift", "no feasible lambda"))
        rows.append(_skipped("lambda_independence", "no feasible lambda"))
        rows.append(_skipped("supermartingale_monotone", "no feasible lambda"))
    else:
        gamma = regime.gamma1
        if gamma is None or gamma.matrix_kind != "A":
            gamma = _exponent(config, "A", 11)
        lam_mid = math.sqrt(interval.lo * interval.hi)
        # conjugacy of the raw and nonnegative families at a feasible lambda
        residual = max(lyapunov.conjugacy_residual(m, lam_mid) for m in env.state_moments)
        scale = max(float(np.abs(lyapunov.build_A(m)).max()) for m in env.state_moments)
        tol = 1e-9 * (1.0 + scale)
        rows.append(_row("conjugacy_identity", residual, 0.0, tol, residual <= tol,
                         f"lambda={lam_mid:.6g}"))

        gamma_lam_mid = _exponent(config, "A_lambda", 12, lam_mid)
        shift = gamma_lam_mid.value + math.log(lam_mid)
        tol = _identity_tol(math.hypot(gamma.stderr, gamma_lam_mid.stderr), config.lyapunov.steps)
        rows.append(_row("exponent_shift", gamma.value, shift, tol,
                         abs(gamma.value - shift) <= tol, f"lambda={lam_mid:.6g}"))

        if interval.hi / interval.lo > 1.0 + 1e-9:
            log_lo, log_hi = math.log(interval.lo), math.log(interval.hi)
            lam_a = math.exp(log_lo + 0.35 * (log_hi - log_lo))
            lam_b = math.exp(log_lo + 0.70 * (log_hi - log_lo))
            est_a = _exponent(config, "A_lambda", 13, lam_a)
            est_b = _exponent(config, "A_lambda", 14, lam_b)
            fa = math.log(lam_a) + lyapunov.second_exponent_via_det(env, lam_a, est_a.value)
            fb = math.log(lam_b) + lyapunov.second_exponent_via_det(env, lam_b, est_b.value)
            tol = _identity_tol(math.hypot(est_a.stderr, est_b.stderr), config.lyapunov.steps)
            rows.append(_row("lambda_independence", fa, fb, tol, abs(fa - fb) <= tol,
                             f"lambda_a={lam_a:.6g} lambda_b={lam_b:.6g}"))
        else:
            rows.append(_skipped("lambda_independence", "feasible set is a single point"))

        trace_trials = min(config.simulate.trials, 10_000)
        trace_horizon = min(config.simulate.horizon, 60)
        trace = simulator.supermartingale_trace(
            env, seeds["environment"], lam_mid, trace_trials, trace_horizon,
            seed=seeds["supermartingale"],
        )
        sections["supermartingale"] = {
            "lambda": lam_mid, "trials": trace_trials, "horizon": trace_horizon,
            "mean_h": list(trace.mean_h),
        }
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(
                trace.diff_stderr > 0.0,
                trace.diff_mean / trace.diff_stderr,
                np.where(trace.diff_mean > 0.0, np.inf, 0.0),
            )
        worst = float(np.max(z)) if len(z) else 0.0
        rows.append(_row("supermartingale_monotone", worst, 0.0, 3.0, worst <= 3.0,
                         f"lambda={lam_mid:.6g}, max paired-increment z-score"))

    # Monte Carlo survival vs verdict
    if survival is None:
        survival = _simulate(config)
    sections["survival"] = _survival_section(survival)
    say(f"crosscheck: simulated global survival {survival.global_freq:.4f}")

    if regime.regime == criteria.INCONCLUSIVE:
        rows.append(_skipped("survival_concordance", "verdict inconclusive"))
        rows.append(_skipped("local_global_coincidence", "verdict inconclusive"))
    elif regime.regime == criteria.GLOBAL_EXTINCTION:
        rows.append(_row("survival_concordance", survival.global_freq, 0.0, 0.01,
                         survival.global_freq <= 0.01, "extinction verdict"))
        rows.append(_row("local_global_coincidence", survival.local_proxy_freq, 0.0, 0.01,
                         survival.local_proxy_freq <= 0.01, "local dies with global"))
    elif regime.regime == criteria.STRONG_LOCAL_SURVIVAL:
        rows.append(_row("survival_concordance", survival.global_freq, 1.0, 0.95,
                         survival.global_freq > 0.05, "survival verdict: freq must exceed 0.05"))
        tol = 3.0 * math.hypot(survival.global_stderr, survival.local_proxy_stderr)
        rows.append(_row("local_global_coincidence", survival.global_freq,
                         survival.local_proxy_freq, tol,
                         abs(survival.global_freq - survival.local_proxy_freq) <= tol,
                         "strong local survival: the two events coincide"))
    else:  # global survival with local extinction
        rows.append(_row("survival_concordance", survival.global_freq, 1.0, 0.95,
                         survival.global_freq > 0.05, "survival verdict: freq must exceed 0.05"))
        rows.append(_row("local_global_coincidence", survival.local_proxy_freq, 0.0, 0.01,
                         survival.local_proxy_freq <= 0.01, "local extinction despite survival"))

    # freezing construction (right-vanishing branch only)
    if regime.vanishing_direction == "right" and not interval.is_empty:
        if profile is None:
            profile = _frozen_profile(config)
        sections["frozen_profile"] = _frozen_section(profile)
        target = drift - gamma.value
        tol = 3.0 * math.hypot(profile.log_average_stderr, gamma.stderr)
        rows.append(_row("frozen_log_mean", profile.log_average, target, tol,
                         abs(profile.log_average - target) <= tol,
                         "mean log frozen count vs drift minus top exponent"))

        if not profile.flagged_levels:
            sigma_inc = profile.log_average_stderr * math.sqrt(len(profile.levels))
            slope, slope_se = _ols_slope_and_se(profile.log_partial_sums(), sigma_inc)
            tol = 3.0 * math.hypot(slope_se, gamma.stderr)
            rows.append(_row("frozen_slope", slope, target, tol, abs(slope - target) <= tol,
                             "regression slope of the log relay-product"))
        else:
            rows.append(_skipped("frozen_slope", "flagged zero-mean levels"))

        rel = np.where(profile.level_means > 0,
                       profile.level_stderrs / np.maximum(profile.level_means, 1e-300), 0.0)
        bound = interval.hi * (1.0 + 3.0 * rel)
        excess = float(np.max(profile.level_means - bound))
        rows.append(_row("per_level_bound", excess, 0.0, 0.0, excess <= 0.0,
                         "level means bounded by the top feasible lambda"))
    else:
        rows.append(_skipped("frozen_log_mean", "not in the right-vanishing branch"))
        rows.append(_skipped("frozen_slope", "not in the right-vanishing branch"))
        rows.append(_skipped("per_level_bound", "not in the right-vanishing branch"))

    # spectral sweep vs criterion
    if sweep is None:
        sweep = _rho_sweep(config)
    sections["rho_sweep"] = [[n, r] for n, r in sweep]
    max_rho = max(r for _, r in sweep)
    if interval.is_empty:
        rows.append(_row("spectral_criterion", max_rho, 1.0, 1e-8, max_rho > 1.0 + 1e-8,
                         "local survival: some truncation must exceed 1"))
    else:
        rows.append(_row("spectral_criterion", max_rho, 1.0, 1e-8, max_rho <= 1.0 + 1e-8,
                         "local extinction: every truncation stays below 1"))

    return rows, sections


# ---------------------------------------------------------------------------
# CSV writers


def _write_csv(path: str, header: list[str], rows) -> None:
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


def _write_series(outdir: str, sections: dict) -> list[str]:
    written = []
    if "rho_sweep" in sections:
        path = os.path.join(outdir, "rho_sweep.csv")
        _write_csv(path, ["N", "rho"], sections["rho_sweep"])
        written.append(path)
    if "survival_outcomes" in sections:
        path = os.path.join(outdir, "survival.csv")
        _write_csv(
            path,
            ["trial", "status", "extinction_time", "last_origin_visit"],
            sections["survival_outcomes"],
        )
        written.append(path)
    if "frozen_profile" in sections:
        fp = sections["frozen_profile"]
        path = os.path.join(outdir, "frozen_profile.csv")
        ln_f = 0.0
        rows = []
        for k, m in zip(fp["levels"], fp["level_means"]):
            ln_f = ln_f + math.log(m) if m > 0 else math.nan
            rows.append([k, m, ln_f])
        _write_csv(path, ["k", "m_k", "ln_f_k"], rows)
        written.append(path)
    if "supermartingale" in sections:
        path = os.path.join(outdir, "supermartingale.csv")
        rows = [[n, v] for n, v in enumerate(sections["supermartingale"]["mean_h"])]
        _write_csv(path, ["n", "mean_h"], rows)
        written.append(path)
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
    seeds = _seeds_for(config)
    report: dict = {
        "tool": "brwre",
        "subcommand": subcommand,
        "config_sha256": config.sha256,
        "seeds": seeds,
    }
    sections: dict = {}
    status = EXIT_OK

    def say(msg):
        if not quiet:
            print(msg)

    try:
        conditions = validate_conditions(config.environment)
        report["conditions"] = _conditions_section(conditions)
        if not conditions.ok:
            say("conditions: FAILED")
            status = EXIT_CONDITIONS
        elif subcommand in ("validate",):
            say("conditions: ok")

        regime = sweep = survival = profile = None
        if status == EXIT_OK and subcommand in ("classify", "all"):
            regime = _classify(config)
            report["regime"] = _regime_section(regime)
            say(f"regime: {regime.regime} (vanishing {regime.vanishing_direction})")
            if strict and regime.regime == criteria.INCONCLUSIVE:
                status = EXIT_INCONCLUSIVE

        if status == EXIT_OK and subcommand in ("lyapunov", "all"):
            # the classifier's right-vanishing branch already drew this estimate
            est_a = regime.gamma1 if regime is not None else None
            if est_a is None or est_a.matrix_kind != "A":
                est_a = _exponent(config, "A")
            est_t = _exponent(config, "A_tilde", 1)
            report["lyapunov"] = {
                "gamma1": _estimate_section(est_a),
                "gamma1_tilde": _estimate_section(est_t),
            }
            say(f"gamma1 = {est_a.value:.6f} +- {est_a.stderr:.2e}")

        if status == EXIT_OK and subcommand in ("spectral", "all"):
            sweep = _rho_sweep(config)
            sections["rho_sweep"] = [[n, r] for n, r in sweep]
            report["rho_sweep"] = sections["rho_sweep"]
            say(f"rho sweep: {sweep[-1][1]:.6f} at N={sweep[-1][0]}")

        if status == EXIT_OK and subcommand in ("simulate", "all"):
            survival = _simulate(config)
            report["survival"] = _survival_section(survival)
            sections["survival_outcomes"] = [
                [i, o.status, o.extinction_time, o.last_origin_visit]
                for i, o in enumerate(survival.outcomes)
            ]
            say(f"global survival frequency: {survival.global_freq:.4f}")

        if status == EXIT_OK and subcommand in ("frozen", "all"):
            if criteria.vanishing_direction(config.environment) == "right":
                profile = _frozen_profile(config)
                sections["frozen_profile"] = _frozen_section(profile)
                report["frozen_profile"] = sections["frozen_profile"]
                say(f"frozen log-average: {profile.log_average:.5f}")
            else:
                report["frozen_profile"] = {
                    "skipped": "freezing construction needs the right-vanishing branch"
                }

        if status == EXIT_OK and subcommand in ("crosscheck", "all"):
            rows, extra = run_crosscheck(config, quiet=quiet, survival=survival, regime=regime,
                                         sweep=sweep, profile=profile)
            report["crosscheck"] = rows
            for key in ("regime", "rho_sweep", "survival", "frozen_profile", "supermartingale"):
                if key in extra and key not in report:
                    report[key] = extra[key]
            sections.update(extra)
            n_fail = sum(r["verdict"] == "fail" for r in rows)
            say(f"crosscheck: {len(rows)} rows, {n_fail} failing")
            if strict and report.get("regime", {}).get("regime") == criteria.INCONCLUSIVE:
                status = EXIT_INCONCLUSIVE

    except criteria.ConditionError as exc:
        report["conditions"] = _conditions_section(exc.report)
        status = EXIT_CONDITIONS
    except (ConfigError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL

    report_path = os.path.join(outdir, "report.json")
    with open(report_path, "w") as fh:
        fh.write(dumps_report(report))
    say(f"wrote {report_path}")
    if fmt in ("csv", "both"):
        for path in _write_series(outdir, sections):
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
