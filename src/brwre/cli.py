"""Experiment orchestration: config in, reports and plot-ready series out.

Subcommands: validate, classify, lyapunov, spectral, simulate, frozen,
crosscheck, all.  Every run reads one JSON config, writes report.json
into the output directory, and optionally CSV series.  Reports are
byte-reproducible for identical configs: all randomness is derived from
the config seed, and `json` and `csv` write each float as its shortest
round-trip repr, which reads back as the same double.  Exponents are exact
and draw nothing, so the lyapunov seed and budget only echo into the report.
Config, emitter, closed-form verdicts and closed-form exponents (one state,
or a tight point) need no numpy; stages import it on first use.

No stage runs a thread pool.  numpy's bundled OpenBLAS starts one when numpy
loads, and its idle workers spin: about 0.13 s of CPU per `all` on a 2-core
machine, for 2x2 products that need no BLAS thread.  So `main` pins it to one
thread (OPENBLAS_NUM_THREADS=1) before any stage imports numpy, unless the
caller already set the variable; reports never depend on the setting.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from collections import namedtuple
from functools import cached_property
from typing import NamedTuple

from . import criteria
from .envmodel import (
    EnvironmentLaw,
    OffspringLaw,
    OffspringVector,
    derive_seed,
    validate_conditions,
)
if "numpy" in sys.modules:  # numpy already loaded: import the array modules now, not mid-run
    from . import lyapunov, simulator, spectral

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONDITIONS = 2
EXIT_INCONCLUSIVE = 3


class ConfigError(ValueError):
    """Malformed experiment config; message names the offending field path."""


# ---------------------------------------------------------------------------
# Config schema: each options record holds its defaults, and _RULES, read by
# _parse_opts, each int option's minimum and mode's allowed values; every other
# option is a float that must be positive, numpy holds every int option but the
# seed as an int64, and derive_seed reads the seed as 64 bits

_INT64_MAX = 2**63 - 1


class LyapunovOpts(NamedTuple):
    steps: int = 100_000
    replicas: int = 32


class SpectralOpts(NamedTuple):
    n_values: tuple[int, ...] = (1, 2, 4, 8, 16, 32)


class SimulateOpts(NamedTuple):
    trials: int = 10_000
    horizon: int = 400
    cap: int = 1_000_000
    mode: str = "quenched"


class FrozenOpts(NamedTuple):
    levels: int = 20
    trials_per_level: int = 10_000
    max_time: int = 5_000
    max_population: int = 1_000_000
    censor_threshold: float = 0.01


class Thresholds(NamedTuple):
    sigma_margin: float = 3.0


_RULES = {
    LyapunovOpts: {"steps": 1_000, "replicas": 2},
    SimulateOpts: {"trials": 100, "horizon": 1, "cap": 1, "mode": ("quenched", "annealed")},
    FrozenOpts: {"levels": 1, "trials_per_level": 1, "max_time": 1, "max_population": 1},
}


class ExperimentConfig(NamedTuple):
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
    _expect_known_keys(raw, ("states",), path)
    states_raw = _expect_list(raw.get("states"), f"{path}.states")
    if not states_raw:
        raise ConfigError(f"{path}.states: needs at least one state")
    states = []
    for i, state in enumerate(states_raw):
        spath = f"{path}.states[{i}]"
        state = _expect_mapping(state, spath)
        _expect_known_keys(state, ("weight", "atoms"), spath)
        weight = _expect_number(state.get("weight"), f"{spath}.weight", positive=True)
        atoms_raw = _expect_list(state.get("atoms"), f"{spath}.atoms")
        atoms = []
        for j, atom in enumerate(atoms_raw):
            apath = f"{spath}.atoms[{j}]"
            atom = _expect_mapping(atom, apath)
            _expect_known_keys(atom, ("p", "v"), apath)
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
    """One options section: each field of `cls` from `raw` or its default, checked by _RULES."""
    raw = _expect_mapping(raw, section)
    _expect_known_keys(raw, cls._fields, section)
    values, rules = {}, _RULES.get(cls, {})
    for name, default in cls._field_defaults.items():
        value, path, rule = raw.get(name, default), f"{section}.{name}", rules.get(name)
        if isinstance(rule, int):
            value = _expect_int(value, path, minimum=rule, maximum=_INT64_MAX)
        elif rule:
            if value not in rule:
                expected = " or ".join(repr(c) for c in rule)
                raise ConfigError(f"{path}: expected {expected}, got {value!r}")
        else:
            value = _expect_number(value, path, positive=True)
        values[name] = value
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

    _expect_known_keys(raw, set(ExperimentConfig._fields) - {"sha256"}, "config")

    env = _parse_environment(raw.get("environment"))
    seed = _expect_int(raw.get("seed", 0), "seed", minimum=0, maximum=2**64 - 1)
    lyap = _parse_opts(LyapunovOpts, raw.get("lyapunov", {}), "lyapunov")

    sp = _expect_mapping(raw.get("spectral", {}), "spectral")
    _expect_known_keys(sp, ("n_values", "tol"), "spectral")  # an old config's tol is ignored
    n_values_raw = sp.get("n_values", list(SpectralOpts._field_defaults["n_values"]))
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

    BRWRE_THREADS is not read; results never depend on a worker count.  `main`
    also pins numpy's OpenBLAS pool to one thread unless OPENBLAS_NUM_THREADS is
    already set, since its idle workers only spin; the BLAS thread count never
    changes a report either.
    """
    return 1


# ---------------------------------------------------------------------------
# Report encoding: json and csv write each float as its shortest round-trip repr


def _plain(value):
    """A numpy array or scalar as Python lists and numbers; anything else is an error."""
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps_report(report: dict) -> str:
    return json.dumps(report, default=_plain) + "\n"


# ---------------------------------------------------------------------------
# Stage estimates and the report sections built from them


class Stages:
    """The estimates of one config, each computed on first use and then reused:
    a section reads the same whichever subcommand writes it, and the exponent
    is computed at most once per run.  The lyapunov seed is reported, but no
    exponent reads it."""

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
        }

    @cached_property
    def regime(self):
        """The classifier's verdict; its statistical branch reads one exponent."""
        return criteria.classify(self.env, lambda: self.gamma,
                                 sigma_margin=self.config.thresholds.sigma_margin)

    @cached_property
    def gamma(self):
        """gamma(A), the top exponent; the mirror law's is gamma(A) - drift (see lyapunov)."""
        return criteria.top_exponent(self.env, steps=self.config.lyapunov.steps,
                                     replicas=self.config.lyapunov.replicas)

    @cached_property
    def sweep(self):
        from . import spectral
        return spectral.rho_sweep(self.env, self.seeds["environment"], self.config.spectral.n_values)

    @cached_property
    def survival(self):
        """Survival trials; with a nonempty feasible set the same run records the
        supermartingale trace at its geometric midpoint, so every subcommand
        that writes the survival section fails where that trace overflows."""
        from . import simulator
        sim = self.config.simulate
        return simulator.survival_probabilities(
            self.env, trials=sim.trials, horizon=sim.horizon, cap=sim.cap, mode=sim.mode,
            env_seed=self.seeds["environment"], seed=self.seeds["simulate"],
            lam=criteria.lambda_feasible_set(self.env).midpoint,
        )

    @cached_property
    def profile(self):
        """Frozen mean profile, or None outside the right-vanishing branch."""
        if criteria.vanishing_direction(self.env) != "right":
            return None
        from . import simulator
        fr = self.config.frozen
        return simulator.frozen_mean_profile(
            self.env, self.seeds["environment"], fr.levels, fr.trials_per_level,
            seed=self.seeds["frozen"], max_time=fr.max_time, max_population=fr.max_population,
            censor_threshold=fr.censor_threshold,
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
    return None if est is None else est._asdict()


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
    if st.env.n_states > 1 and criteria.lambda_feasible_set(st.env).is_empty:
        return {"skipped": "no feasible lambda: a law of several states has no certified "
                           "exponent, and the verdict reads none"}
    gamma = st.gamma
    say(f"gamma1 = {gamma.value:.6f} +- {gamma.stderr:.2e}")
    tilde = gamma._replace(value=gamma.value - criteria.expected_log_drift(st.env),
                           matrix_kind="A_tilde")
    return {"gamma1": _estimate_section(gamma), "gamma1_tilde": _estimate_section(tilde)}


def _rho_sweep_section(st: Stages, say) -> list:
    say(f"rho sweep: {st.sweep[-1][1]:.6f} at N={st.sweep[-1][0]}")
    return st.sweep


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
    return profile._asdict()


def _crosscheck_section(st: Stages, say) -> list[dict]:
    rows = run_crosscheck(st)
    n_fail = sum(r["verdict"] == "fail" for r in rows)
    say(f"crosscheck: {len(rows)} rows, {n_fail} failing")
    return rows


def _supermartingale_section(st: Stages, say) -> dict | None:
    trace = st.survival.trace
    return None if trace is None else {"lambda": trace.lam, "trials": trace.trials,
                                       "horizon": trace.horizon, "mean_h": trace.mean_h}


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


# A check returns a skip note or a Comparison: d = lhs - rhs passes "within" if |d| <= tolerance,
# "at_most" if d <= tolerance, "above" if d > tolerance; sigmas: tolerance is 3 combined stderrs.
Comparison = namedtuple("Comparison", "lhs rhs tolerance rule note sigmas", defaults=(False,))


def _exponent_shift(st: Stages):
    iv = criteria.lambda_feasible_set(st.env)
    if iv.is_empty:
        return "no feasible lambda"
    from . import lyapunov
    # gamma(A) = gamma(A_lambda) + ln lambda at every feasible lambda: the word
    # sum of A_lambda at a lambda between lo and the midpoint, where a word-sum
    # gamma(A) is not read (on a point set, the point itself)
    lam, gamma = math.sqrt(iv.lo * iv.midpoint), st.gamma
    value, half = lyapunov.word_sum(st.env, lam)
    # the two error bounds (0 in closed form), and a few ulps of each term for
    # the rounding of the closed forms, the shift's log and sum
    tol = (gamma.stderr + half + 8.0 * sys.float_info.epsilon
           * (1.0 + abs(gamma.value) + abs(value) + abs(math.log(lam))))
    return Comparison(gamma.value, value + math.log(lam), tol, "within", f"lambda={lam:.6g}")


def _supermartingale_monotone(st: Stages):
    import numpy as np
    trace = st.survival.trace
    if trace is None:
        return "no feasible lambda"
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(trace.diff_stderr > 0.0, trace.diff_mean / trace.diff_stderr,
                     np.where(trace.diff_mean > 0.0, np.inf, 0.0))
    worst = float(np.max(z)) if len(z) else 0.0
    note = f"lambda={trace.lam:.6g}, max paired-increment z-score"
    return Comparison(worst, 0.0, 3.0, "at_most", note, sigmas=True)


def _survival_concordance(st: Stages):
    regime, freq = st.regime.regime, st.survival.global_freq
    if regime == criteria.INCONCLUSIVE:
        return "verdict inconclusive"
    if regime == criteria.GLOBAL_EXTINCTION:
        return Comparison(freq, 0.0, 0.01, "at_most", "extinction verdict")
    return Comparison(freq, 0.0, 0.05, "above", "survival verdict: freq must exceed 0.05")


def _local_global_coincidence(st: Stages):
    regime, sv = st.regime.regime, st.survival
    if regime == criteria.INCONCLUSIVE:
        return "verdict inconclusive"
    if regime == criteria.STRONG_LOCAL_SURVIVAL:
        tol = 3.0 * math.hypot(sv.global_stderr, sv.local_proxy_stderr)
        note = "strong local survival: the two events coincide"
        return Comparison(sv.global_freq, sv.local_proxy_freq, tol, "within", note, sigmas=True)
    note = ("local dies with global" if regime == criteria.GLOBAL_EXTINCTION
            else "local extinction despite survival")
    return Comparison(sv.local_proxy_freq, 0.0, 0.01, "at_most", note)


def _frozen_log_mean(st: Stages):
    profile = st.profile
    if profile is None:
        return "not in the right-vanishing branch"
    if profile.log_average_stderr == 0.0:  # at most one unflagged level, or equal means
        return "no spread across unflagged levels to bound the log-average"
    gamma = st.gamma
    tol = 3.0 * math.hypot(profile.log_average_stderr, gamma.stderr)
    return Comparison(profile.log_average, st.regime.drift - gamma.value, tol, "within",
                      "mean log frozen count vs drift minus top exponent", sigmas=True)


def _per_level_bound(st: Stages):
    import numpy as np
    profile = st.profile
    if profile is None:
        return "not in the right-vanishing branch"
    rel = np.where(profile.level_means > 0,
                   profile.level_stderrs / np.maximum(profile.level_means, 1e-300), 0.0)
    bound = st.regime.lambda_set.hi * (1.0 + 3.0 * rel)
    excess = float(np.max(profile.level_means - bound))
    return Comparison(excess, 0.0, 0.0, "at_most", "level means bounded by the top feasible lambda")


def _spectral_criterion(st: Stages):
    from . import spectral
    max_rho = max(r for _, r in st.sweep)
    if st.regime.lambda_set.is_empty:
        rule, note = "above", "local survival: some truncation must exceed 1"
    else:
        rule, note = "at_most", "local extinction: every truncation stays below 1"
    return Comparison(max_rho, 1.0, spectral.root_error_bound(st.env), rule, note)


# The rows in report order, as (identity, check).
CROSSCHECKS = (
    ("exponent_shift", _exponent_shift),
    ("supermartingale_monotone", _supermartingale_monotone),
    ("survival_concordance", _survival_concordance),
    ("local_global_coincidence", _local_global_coincidence),
    ("frozen_log_mean", _frozen_log_mean),
    ("per_level_bound", _per_level_bound),
    ("spectral_criterion", _spectral_criterion),
)


def run_crosscheck(st: Stages) -> list[dict]:
    """Every CROSSCHECKS row on the estimates of one config, as report rows; only a
    3-stderr row with a positive tolerance has a distance in sigmas, 3|d|/tolerance."""
    rows = []
    for name, check in CROSSCHECKS:
        c = check(st)
        row = {"identity": name, "lhs": None, "rhs": None, "tolerance": None,
               "sigma_distance": None, "verdict": "skipped", "note": c}
        if isinstance(c, Comparison):
            d, tol = c.lhs - c.rhs, c.tolerance
            passed = {"within": abs(d) <= tol, "at_most": d <= tol, "above": d > tol}[c.rule]
            row.update(lhs=c.lhs, rhs=c.rhs, tolerance=tol, note=c.note,
                       sigma_distance=3.0 * abs(d) / tol if c.sigmas and tol > 0.0 else None,
                       verdict="pass" if passed else "fail")
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# CSV writers


def _write_csv(outdir: str, name: str, header: list[str], rows) -> str:
    path = os.path.join(outdir, name)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _write_series(outdir: str, report: dict, st: Stages) -> list[str]:
    written = []
    if "rho_sweep" in report:
        written.append(_write_csv(outdir, "rho_sweep.csv", ["N", "rho"], report["rho_sweep"]))
    if "survival" in report:
        from . import simulator
        written.append(_write_csv(
            outdir, "survival.csv", ["trial", "status", "extinction_time", "last_origin_visit"],
            ([i, o.status, o.end_time if o.status == simulator.EXTINCT else None,
              o.last_origin_visit] for i, o in enumerate(st.survival.outcomes)),
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
    except (ValueError, RuntimeError, ArithmeticError) as exc:
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
    # numpy is not loaded yet: with OpenBLAS's default pool, its idle workers
    # spun ~0.13 s of CPU per `all` (2 cores), beyond the run's wall time
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        return run(args.config, args.subcommand, outdir=args.out, fmt=args.format,
                   strict=args.strict, quiet=args.quiet)
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
