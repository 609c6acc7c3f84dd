import collections
import json
import math
import os
import re
import subprocess
import sys
import time
import types

import numpy as np
import pytest

from brwre import cli, criteria, lyapunov, simulator, spectral
from brwre.cli import (
    EXIT_CONDITIONS,
    EXIT_INCONCLUSIVE,
    EXIT_INTERNAL,
    EXIT_OK,
    ConfigError,
    dumps_report,
    load_config,
    main,
    run,
)
from laws import SRC, environment, write_config


@pytest.fixture
def no_blas_setting(monkeypatch):
    """OPENBLAS_NUM_THREADS unset for the test and restored after it: `main` sets it
    in this process's environment."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "")  # records the value to restore
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")


STRONG_LOCAL_ENV = environment("strong-local")
TWO_STATE_RIGHT_ENV = environment("two-state")
TWO_STATE_LEFT_ENV = environment("two-state-left")
BOTH_ENV = environment("both")
TIE_ENV = environment("tie")
THIN_ENV = environment("thin")

# one law per classifier branch, named by its vanishing direction
BRANCH_LAWS = pytest.mark.parametrize("environment, direction", [
    pytest.param(TWO_STATE_RIGHT_ENV, "right", id="right"),
    pytest.param(TWO_STATE_LEFT_ENV, "left", id="left"),
    pytest.param(BOTH_ENV, "both", id="both"),
    pytest.param(STRONG_LOCAL_ENV, "none", id="none"),
])


# -- config parsing ----------------------------------------------------------


def test_load_config_defaults(tmp_path):
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps({"environment": STRONG_LOCAL_ENV}))
    cfg = load_config(str(path))
    assert cfg.seed == 0
    assert cfg.lyapunov.steps == 100_000
    assert cfg.simulate.mode == "quenched"
    assert cfg.frozen.levels == 20
    assert len(cfg.sha256) == 64
    # derive_seed reads the seed as 64 bits, so the largest one still loads
    path.write_text(json.dumps({"environment": STRONG_LOCAL_ENV, "seed": 2**64 - 1}))
    assert load_config(str(path)).seed == 2**64 - 1


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        ({"seed": -1}, "seed"),
        ({"lyapunov": {"steps": 10}}, "lyapunov.steps"),
        ({"simulate": {"mode": "sideways"}}, "simulate.mode"),
        ({"spectral": {"n_values": [4, 2]}}, "spectral.n_values"),
        ({"thresholds": {"sigma_margin": -2}}, "thresholds.sigma_margin"),
        ({"bogus": 1}, "config.bogus"),
        ({"thresholds": {"sigma_margin": float("nan")}}, "thresholds.sigma_margin"),
        ({"thresholds": {"sigma_margin": float("inf")}}, "thresholds.sigma_margin"),
        ({"frozen": {"censor_threshold": float("nan")}}, "frozen.censor_threshold"),
        ({"thresholds": {"sigma_margin": 10**400}}, "thresholds.sigma_margin"),
        ({"lyapunov": {"steps": 10**30}}, "lyapunov.steps"),
        ({"spectral": {"n_values": [1, 2**63]}}, "spectral.n_values[1]"),
        ({"spectral": {"n_values": [1], "tols": 1e-3}}, "spectral.tols"),
        ({"environment": {"states": [{"weight": 1.0, "atoms": [{"p": 1.0, "v": [2**63, 0, 0]}]}]}},
         "environment.states[0].atoms[0].v[0]: must be <= 9223372036854775807"),
        ({"seed": 2**64 + 7}, "seed: must be <= 18446744073709551615, got 18446744073709551623"),
        ({"environment": {**STRONG_LOCAL_ENV, "mode": "annealed"}}, "environment.mode: unknown field"),
        ({"environment": {"states": [{**STRONG_LOCAL_ENV["states"][0], "wieght": 1.0}]}},
         "environment.states[0].wieght: unknown field"),
        ({"environment": {"states": [{"weight": 1.0,
                                      "atoms": [{"p": 1.0, "v": [1, 1, 1], "prob": 1.0}]}]}},
         "environment.states[0].atoms[0].prob: unknown field"),
        ({"environment": []}, "environment: expected an object, got list"),
        ({"environment": {"states": {}}}, "environment.states: expected an array, got dict"),
        ({"simulate": {"trials": 1.5}}, "simulate.trials: expected an integer, got 1.5"),
        ({"environment": {"states": [{"weight": "half", "atoms": [{"p": 1.0, "v": [1, 1, 1]}]}]}},
         "environment.states[0].weight: expected a number, got 'half'"),
        ({"environment": {"states": [{"weight": 1.0, "atoms": [{"p": 1.5, "v": [1, 1, 1]}]}]}},
         "environment.states[0].atoms: atom probability 1.5 outside (0, 1]"),
        ({"environment": {"states": [{"weight": 1.5, "atoms": [{"p": 1.0, "v": [1, 1, 1]}]}]}},
         "environment.states: state weight 1.5 outside (0, 1]"),
    ],
)
def test_load_config_names_offending_field(tmp_path, overrides, fragment):
    path = write_config(tmp_path, **overrides)
    with pytest.raises(ConfigError, match=re.escape(fragment)):
        load_config(path)


# (section, field, default, rule) of every option; the rule is the field's entry
# in cli._RULES, a minimum or the allowed values (load_config checks n_values itself)
OPTION_FIELDS = [
    pytest.param(section, name, default, cli._RULES.get(cls, {}).get(name),
                 id=f"{section}.{name}")
    for section, cls in (("lyapunov", cli.LyapunovOpts), ("spectral", cli.SpectralOpts),
                         ("simulate", cli.SimulateOpts), ("frozen", cli.FrozenOpts),
                         ("thresholds", cli.Thresholds))
    for name, default in cls._field_defaults.items()
]


@pytest.mark.parametrize("section, name, default, rule", OPTION_FIELDS)
def test_option_defaults_and_bounds(tmp_path, section, name, default, rule):
    def load(value=None):
        options = {} if value is None else {name: value}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"environment": STRONG_LOCAL_ENV, section: options}))
        return getattr(getattr(load_config(str(path)), section), name)

    assert load() == default
    field_path = f"{section}.{name}"
    if isinstance(rule, int):
        minimum, top = rule, 2**63 - 1  # numpy holds the value as an int64
        assert load(minimum) == minimum and load(top) == top
        bad = [(minimum - 1, f"{field_path}: must be >= {minimum}, got {minimum - 1}"),
               (top + 1, f"{field_path}: must be <= {top}, got {top + 1}")]
    elif rule:
        assert [load(c) for c in rule] == list(rule)
        bad = [("sideways", f"{field_path}: expected 'quenched' or 'annealed', got 'sideways'")]
    elif name == "n_values":
        bad = [([], "spectral.n_values: must be a nonempty strictly increasing array")]
    else:  # a float option: any positive value, but not zero
        assert load(1e-300) == 1e-300
        bad = [(0, f"{field_path}: must be positive, got 0.0")]
    for value, message in bad:
        with pytest.raises(ConfigError) as excinfo:
            load(value)
        assert str(excinfo.value) == message


def test_validate_rejects_unknown_section_key(tmp_path, capsys, no_blas_setting):
    path = write_config(tmp_path, simulate={"trails": 5})
    assert main(["validate", "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert "simulate.trails: unknown field" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_load_config_flags_bad_atom(tmp_path):
    env = {"states": [{"weight": 1.0, "atoms": [{"p": 0.5, "v": [1, 0]}]}]}
    path = write_config(tmp_path, environment=env)
    with pytest.raises(ConfigError, match=r"environment\.states\[0\]\.atoms\[0\]\.v"):
        load_config(path)


def test_load_config_flags_bad_probability_sum(tmp_path):
    env = {
        "states": [
            {"weight": 1.0, "atoms": [{"p": 0.5, "v": [1, 0, 1]}, {"p": 0.4, "v": [0, 0, 0]}]}
        ]
    }
    path = write_config(tmp_path, environment=env)
    with pytest.raises(ConfigError, match=r"states\[0\]\.atoms"):
        load_config(path)


def test_missing_config_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.json"))
    (tmp_path / "truncated.json").write_text('{"seed": ')
    with pytest.raises(ConfigError, match="config is not valid JSON"):
        load_config(str(tmp_path / "truncated.json"))


def test_run_rejects_an_unknown_subcommand(tmp_path, capsys):
    # main's argparse never passes one; run is also called directly
    assert run(write_config(tmp_path), "bogus", outdir=str(tmp_path)) == EXIT_INTERNAL
    assert "unknown subcommand 'bogus'" in capsys.readouterr().err


# -- JSON emitter ------------------------------------------------------------


def test_dumps_report_formats():
    text = dumps_report(
        {"a": 1.0, "b": float("inf"), "c": [1, 2.5], "d": None, "e": True, "s": 'x"y'}
    )
    assert '"a": 1' in text
    assert '"b": Infinity' in text
    assert '"c": [1, 2.5]' in text
    assert '"d": null' in text
    assert '"e": true' in text
    assert '"s": "x\\"y"' in text
    parsed = json.loads(text)
    assert parsed["a"] == 1.0 and parsed["b"] == float("inf")


def test_dumps_report_17_digits():
    text = dumps_report({"x": 0.1 + 0.2})
    assert "0.30000000000000004" in text


def test_dumps_report_numpy_values():
    assert dumps_report({"a": np.arange(3), "b": np.float32(0.5), "c": np.int64(2)}) == (
        '{"a": [0, 1, 2], "b": 0.5, "c": 2}\n')
    with pytest.raises(TypeError, match="cannot serialize object"):
        dumps_report({"x": object()})


@BRANCH_LAWS
def test_report_round_trips_through_json(tmp_path, environment, direction):
    path = write_config(tmp_path, environment=environment)
    assert run(path, "all", outdir=str(tmp_path / "out"), quiet=True) == EXIT_OK
    text = (tmp_path / "out" / "report.json").read_text()
    report = json.loads(text)
    assert dumps_report(report) == text
    # an integral float reads back as a float, not an int
    row = next(r for r in report["crosscheck"] if r["identity"] == "spectral_criterion")
    assert type(row["rhs"]) is float and row["rhs"] == 1.0


def test_csv_cells_are_round_trip_reprs(tmp_path):
    cli._write_csv(str(tmp_path), "t.csv", ["a", "b", "c"],
                   [[1, 0.416, None], [2, math.nan, "x"], [3, np.float64(0.1) + 0.2, -math.inf]])
    assert (tmp_path / "t.csv").read_text() == (
        "a,b,c\n1,0.416,\n2,nan,x\n3,0.30000000000000004,-inf\n")


# -- subcommands -------------------------------------------------------------


def test_validate_ok(tmp_path, capsys):
    path = write_config(tmp_path)
    code = run(path, "validate", outdir=str(tmp_path / "out"))
    assert code == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["conditions"]["ok"] is True
    assert report["config_sha256"]
    assert set(report["seeds"]) == {
        "master", "environment", "lyapunov", "simulate", "frozen",
    }


def test_validate_condition_failure_exits_two(tmp_path):
    path = write_config(tmp_path, environment=environment("no-right"))
    code = run(path, "validate", outdir=str(tmp_path / "out"), quiet=True)
    assert code == EXIT_CONDITIONS
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["conditions"]["ok"] is False
    assert any(v["condition"] == "E" for v in report["conditions"]["violations"])


def test_classify_strong_local(tmp_path):
    path = write_config(tmp_path, environment=STRONG_LOCAL_ENV)
    out = tmp_path / "out"
    code = run(path, "classify", outdir=str(out), quiet=True)
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["regime"]["regime"] == "StrongLocalSurvival"
    assert report["regime"]["lambda_set"]["empty"] is True


# a random environment has a finite margin, so an absurd sigma threshold
# forces the statistical branch to stay undecided
INCONCLUSIVE = dict(environment=TWO_STATE_RIGHT_ENV, thresholds={"sigma_margin": 1e18})


def test_classify_strict_inconclusive_exits_three(tmp_path):
    path = write_config(tmp_path, **INCONCLUSIVE)
    code = run(path, "classify", outdir=str(tmp_path / "out"), strict=True, quiet=True)
    assert code == EXIT_INCONCLUSIVE
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["regime"]["regime"] == "Inconclusive"


def test_classify_without_strict_keeps_exit_zero(tmp_path):
    path = write_config(tmp_path, **INCONCLUSIVE)
    assert run(path, "classify", outdir=str(tmp_path / "out"), quiet=True) == EXIT_OK


def _sections(out):
    report = json.loads((out / "report.json").read_text())
    return [k for k in report if k == "conditions" or k in cli.SECTIONS], report


def test_all_strict_stops_at_an_inconclusive_verdict(tmp_path):
    path = write_config(tmp_path, **INCONCLUSIVE)
    strict, plain = tmp_path / "strict", tmp_path / "plain"
    assert run(path, "all", outdir=str(strict), strict=True, quiet=True) == EXIT_INCONCLUSIVE
    sections, report = _sections(strict)
    assert sections == ["conditions", "regime"]
    assert report["regime"]["regime"] == "Inconclusive"
    assert run(path, "all", outdir=str(plain), quiet=True) == EXIT_OK
    assert _sections(plain)[0] == ["conditions", *cli.SECTIONS]


def test_crosscheck_strict_still_writes_its_rows(tmp_path):
    path = write_config(tmp_path, **INCONCLUSIVE)
    out = tmp_path / "out"
    assert run(path, "crosscheck", outdir=str(out), strict=True, quiet=True) == EXIT_INCONCLUSIVE
    sections, report = _sections(out)
    assert sections == ["conditions", *cli.SUBCOMMAND_SECTIONS["crosscheck"]]
    rows = {r["identity"]: r for r in report["crosscheck"]}
    assert list(rows) == [name for name, _ in cli.CROSSCHECKS]
    for name in ("survival_concordance", "local_global_coincidence"):
        assert (rows[name]["verdict"], rows[name]["note"]) == ("skipped", "verdict inconclusive")


def test_malformed_config_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"environment": {"states": []}}')
    code = run(str(path), "classify", outdir=str(tmp_path / "out"), quiet=True)
    assert code == 1
    assert "environment.states" in capsys.readouterr().err


def test_simulate_writes_csv(tmp_path):
    # at horizon 20 some surviving trials stay below STOP_POPULATION: every status comes up
    path = write_config(tmp_path, simulate={"trials": 200, "horizon": 20, "cap": 100_000})
    out = tmp_path / "out"
    code = run(path, "simulate", outdir=str(out), fmt="both", quiet=True)
    assert code == EXIT_OK
    lines = (out / "survival.csv").read_text().splitlines()
    assert lines[0] == ("trial,status,extinction_time,last_origin_visit,stop_time,"
                        "global_prob,local_prob")
    assert len(lines) == 201
    report = json.loads((out / "report.json").read_text())
    assert 0.0 <= report["survival"]["global_freq"] <= 1.0
    # the rows are the survival run's: rerun it as the survival stage does, each
    # trial capped at min(STOP_POPULATION, cap) on the shared environment, where a
    # capped trial is Stopped
    env, seeds = load_config(path).environment, report["seeds"]
    batch = simulator.run_batch(
        env, seeds["environment"], np.zeros(200, np.int64), 1, 20,
        (seeds["environment"], seeds["simulate"]), cap=min(simulator.STOP_POPULATION, 100_000),
        log_lam=math.log(criteria.lambda_feasible_set(env).midpoint))
    rows = [line.split(",") for line in lines[1:]]
    assert [r[1] for r in rows] == [simulator.STOPPED if s == simulator.CAP_REACHED else s
                                     for s in batch.status.tolist()]
    assert {r[1] for r in rows} == {simulator.EXTINCT, simulator.STOPPED,
                                    simulator.ALIVE_AT_HORIZON}
    for (trial, status, extinction_time, last_origin_visit, stop_time, g, local), end, last in zip(
            rows, batch.end_time.tolist(), batch.last_origin_visit.tolist()):
        assert extinction_time == (str(end) if status == simulator.EXTINCT else "")
        assert stop_time == (str(end) if status == simulator.STOPPED else "")
        assert last_origin_visit == str(last)
        if status == simulator.STOPPED:  # its exact conditional probabilities
            assert 0.0 <= float(local) <= float(g) <= 1.0
        else:  # settled: 0 or 1
            alive = status != simulator.EXTINCT
            assert (g, local) == (str(float(alive)), str(float(alive and 2 * last >= 20)))
    g = np.array([float(r[5]) for r in rows])
    assert report["survival"]["global_freq"] == pytest.approx(g.mean(), rel=1e-12)


def test_spectral_writes_series(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert run(path, "spectral", outdir=str(out), fmt="both", quiet=True) == EXIT_OK
    lines = (out / "rho_sweep.csv").read_text().splitlines()
    assert lines[0] == "N,rho"
    assert len(lines) == 4
    rhos = [float(line.split(",")[1]) for line in lines[1:]]
    assert rhos == sorted(rhos)


def test_frozen_subcommand_writes_profile(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert run(path, "frozen", outdir=str(out), fmt="both", quiet=True) == EXIT_OK
    lines = (out / "frozen_profile.csv").read_text().splitlines()
    assert lines[0] == "k,m_k,ln_f_k"
    assert len(lines) == 5


def test_frozen_skipped_outside_right_branch(tmp_path):
    path = write_config(tmp_path, environment=STRONG_LOCAL_ENV)
    out = tmp_path / "out"
    assert run(path, "frozen", outdir=str(out), quiet=True) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert "skipped" in report["frozen_profile"]


def test_crosscheck_all_rows_pass(tmp_path):
    path = write_config(
        tmp_path,
        lyapunov={"steps": 20000, "replicas": 4},
        simulate={"trials": 1500, "horizon": 200, "cap": 1000000, "mode": "quenched"},
        frozen={"levels": 6, "trials_per_level": 4000},
    )
    out = tmp_path / "out"
    code = run(path, "crosscheck", outdir=str(out), fmt="both", quiet=True)
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    rows = {r["identity"]: r for r in report["crosscheck"]}
    expected = [
        "exponent_shift", "supermartingale_monotone",
        "survival_concordance", "local_global_coincidence",
        "frozen_log_mean", "per_level_bound", "spectral_criterion",
    ]
    assert list(rows) == expected
    failing = [n for n, r in rows.items() if r["verdict"] == "fail"]
    assert failing == []
    for r in rows.values():
        assert r["verdict"] in ("pass", "skipped")
        assert "tolerance" in r
    assert (out / "supermartingale.csv").exists()


@pytest.mark.parametrize("overrides, feasible", [
    pytest.param({"environment": STRONG_LOCAL_ENV}, False, id="empty-feasible-set"),
    pytest.param({}, True, id="nonempty-feasible-set"),
])
def test_spectral_criterion_tolerance_is_the_solver_bound(tmp_path, overrides, feasible):
    path = write_config(tmp_path, **overrides)
    assert run(path, "crosscheck", outdir=str(tmp_path / "cc"), quiet=True) == EXIT_OK
    report = json.loads((tmp_path / "cc" / "report.json").read_text())
    assert report["regime"]["lambda_set"]["empty"] != feasible
    row = next(r for r in report["crosscheck"] if r["identity"] == "spectral_criterion")
    assert row["verdict"] == "pass"
    assert row["tolerance"] == spectral.root_error_bound(load_config(path).environment)


def test_roundoff_rows_have_no_sigma_distance(tmp_path):
    path = write_config(tmp_path)
    assert run(path, "crosscheck", outdir=str(tmp_path / "cc"), quiet=True) == EXIT_OK
    report = json.loads((tmp_path / "cc" / "report.json").read_text())
    rows = {r["identity"]: r for r in report["crosscheck"]}
    for name in ("per_level_bound", "spectral_criterion"):
        assert rows[name]["verdict"] == "pass"
        assert rows[name]["sigma_distance"] is None
    # exponent_shift's gamma(A) is closed-form, so its tolerance is the word sum's
    # half-width and a few ulps of its terms, and survival_concordance's is a
    # fixed frequency: no sigmas
    row, env = rows["exponent_shift"], load_config(path).environment
    iv = criteria.lambda_feasible_set(env)
    lam = math.sqrt(iv.lo * iv.midpoint)
    value, half = lyapunov.word_sum(env, lam)
    assert (row["rhs"], row["note"]) == (value + math.log(lam), f"lambda={lam:.6g}")
    assert row["tolerance"] == half + 8.0 * sys.float_info.epsilon * (
        1.0 + abs(row["lhs"]) + abs(value) + abs(math.log(lam)))
    # a power of one matrix contracts: the README law's row is tight to 1.5e-13,
    # so a closed form off by 1e-9 fails it
    assert row["tolerance"] < 1e-9
    for name in ("exponent_shift", "survival_concordance"):
        assert rows[name]["verdict"] == "pass"
        assert rows[name]["sigma_distance"] is None
    # a row tested against 3 stderr keeps its distance in sigmas
    row = rows["frozen_log_mean"]
    assert row["sigma_distance"] == pytest.approx(
        3.0 * abs(row["lhs"] - row["rhs"]) / row["tolerance"], rel=1e-12)


def _one_row(monkeypatch, result):
    """The report row run_crosscheck makes of one check that returns `result`."""
    monkeypatch.setattr(cli, "CROSSCHECKS", (("edge", lambda st: result),))
    [row] = cli.run_crosscheck(None)
    return row


@pytest.mark.parametrize("lhs, rule, verdict", [
    # d = lhs - 1 against a tolerance of 0.25: every d and tolerance here is exact
    (1.25, "within", "pass"), (0.75, "within", "pass"), (1.5, "within", "fail"),
    (0.5, "within", "fail"),
    (1.25, "at_most", "pass"), (0.0, "at_most", "pass"), (1.5, "at_most", "fail"),
    (1.25, "above", "fail"), (1.5, "above", "pass"), (0.0, "above", "fail"),
])
def test_each_rule_at_and_past_its_tolerance(monkeypatch, lhs, rule, verdict):
    row = _one_row(monkeypatch, cli.Comparison(lhs, 1.0, 0.25, rule, "edge", sigmas=True))
    assert row == {"identity": "edge", "lhs": lhs, "rhs": 1.0, "tolerance": 0.25,
                   "sigma_distance": 12.0 * abs(lhs - 1.0), "verdict": verdict, "note": "edge"}


@pytest.mark.parametrize("result, sigma_distance", [
    (cli.Comparison(0.5, 0.5, 0.0, "within", "zero tolerance", sigmas=True), None),
    (cli.Comparison(0.5, 0.0, 0.25, "within", "a bound, not 3 stderr"), None),
    (cli.Comparison(0.5, 0.0, 0.25, "within", "3 stderr", sigmas=True), 6.0),
])
def test_sigma_distance_only_on_positive_3_stderr_tolerances(monkeypatch, result, sigma_distance):
    assert _one_row(monkeypatch, result)["sigma_distance"] == sigma_distance


def test_skipped_row_has_only_its_note(monkeypatch):
    assert _one_row(monkeypatch, "stage missing") == {
        "identity": "edge", "lhs": None, "rhs": None, "tolerance": None,
        "sigma_distance": None, "verdict": "skipped", "note": "stage missing"}


@pytest.mark.parametrize("regime, survived, verdict", [
    # at 200 trials, a survival verdict needs more than 10 survivors (freq > 0.05)
    # and an extinction verdict at most 2 (freq <= 0.01)
    (criteria.GLOBAL_SURVIVAL_LOCAL_EXTINCTION, 10, "fail"),
    (criteria.GLOBAL_SURVIVAL_LOCAL_EXTINCTION, 11, "pass"),
    (criteria.STRONG_LOCAL_SURVIVAL, 10, "fail"),
    (criteria.GLOBAL_EXTINCTION, 2, "pass"),
    (criteria.GLOBAL_EXTINCTION, 3, "fail"),
])
def test_survival_concordance_at_its_threshold(monkeypatch, regime, survived, verdict):
    st = types.SimpleNamespace(regime=types.SimpleNamespace(regime=regime),
                               survival=types.SimpleNamespace(global_freq=survived / 200))
    monkeypatch.setattr(cli, "CROSSCHECKS", (("survival_concordance", cli._survival_concordance),))
    [row] = cli.run_crosscheck(st)
    assert (row["lhs"], row["verdict"]) == (survived / 200, verdict)


def test_zero_stderr_tolerance_has_no_sigma_distance(tmp_path):
    # every particle has three children, so both survival events are sure, both
    # frequencies read 1 with zero stderr, and the row's 3-stderr tolerance is 0
    sure = {"states": [{"weight": 1.0, "atoms": [{"p": 1.0, "v": [1, 1, 1]}]}]}
    path = write_config(tmp_path, environment=sure)
    assert run(path, "crosscheck", outdir=str(tmp_path / "cc"), quiet=True) == EXIT_OK
    report = json.loads((tmp_path / "cc" / "report.json").read_text())
    assert report["regime"]["regime"] == "StrongLocalSurvival"
    row = next(r for r in report["crosscheck"] if r["identity"] == "local_global_coincidence")
    assert (row["tolerance"], row["verdict"], row["sigma_distance"]) == (0, "pass", None)


def test_all_computes_each_stage_once(tmp_path, monkeypatch):
    calls = collections.Counter()
    for module, name in ((criteria, "classify"), (spectral, "rho_sweep"),
                         (simulator, "survival_probabilities"),
                         (simulator, "frozen_mean_profile"), (simulator, "supermartingale_trace")):
        def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    assert run(write_config(tmp_path), "all", outdir=str(tmp_path / "out"), quiet=True) == EXIT_OK
    assert calls == {"classify": 1, "rho_sweep": 1,
                     "survival_probabilities": 1, "frozen_mean_profile": 1}


@BRANCH_LAWS
@pytest.mark.parametrize("subcommand", ["lyapunov", "crosscheck", "all"])
def test_all_draws_each_exponent_once(tmp_path, monkeypatch, subcommand, environment, direction):
    calls = []
    original = criteria.top_exponent

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # gamma(A), closed-form or a word sum, goes through the one entry point
    monkeypatch.setattr(criteria, "top_exponent", counted)
    path = write_config(tmp_path, environment=environment)
    assert criteria.vanishing_direction(load_config(path).environment) == direction
    assert run(path, subcommand, outdir=str(tmp_path / "out"), quiet=True) == EXIT_OK
    # once, but for crosscheck on an empty feasible set: no row and no verdict reads it
    assert len(calls) == int(subcommand != "crosscheck" or direction != "none"), calls


@pytest.mark.parametrize("environment, method", [
    pytest.param(TWO_STATE_RIGHT_ENV, "word_sum", id="right"),
    pytest.param(TWO_STATE_LEFT_ENV, "word_sum", id="left"),
    pytest.param(BOTH_ENV, "word_sum", id="both"),
    pytest.param(STRONG_LOCAL_ENV, "closed_form", id="none"),
    # two states, tight at their one feasible lambda: a triangular closed form
    pytest.param(TIE_ENV, "closed_form", id="point"),
    # an interior set too thin for the budget's table: the cap's bracket
    pytest.param(THIN_ENV, "word_sum", id="thin"),
])
def test_each_family_reads_its_declared_method(tmp_path, environment, method):
    path = write_config(tmp_path, environment=environment)
    assert run(path, "all", outdir=str(tmp_path / "out"), quiet=True) == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    config = load_config(path)
    env = config.environment
    est = criteria.top_exponent(env, steps=config.lyapunov.steps,
                                replicas=config.lyapunov.replicas)
    assert est.method == method
    gamma = est._asdict()
    # the mirror exponent is gamma(A) - drift, read off the same estimate
    tilde = {**gamma, "value": gamma["value"] - criteria.expected_log_drift(env),
             "matrix_kind": "A_tilde"}
    assert report["lyapunov"] == {"gamma1": gamma, "gamma1_tilde": tilde}
    # the classifier reads the section's estimate of A on both statistical branches
    direction = criteria.vanishing_direction(env)
    expected = gamma if direction in ("right", "left") else None
    assert report["regime"]["gamma1"] == expected
    # exponent_shift reads the word sum of A_lambda between the feasible set's lower
    # end and its geometric midpoint, where a word-sum gamma(A) is not read (on
    # the tie's point set, the point itself)
    row = next(r for r in report["crosscheck"] if r["identity"] == "exponent_shift")
    iv = criteria.lambda_feasible_set(env)
    if iv.is_empty:
        assert row["verdict"] == "skipped"
        return
    lam = math.sqrt(iv.lo * iv.midpoint)
    value, half = lyapunov.word_sum(env, lam)
    assert (row["lhs"], row["rhs"]) == (gamma["value"], value + math.log(lam))
    # the two error bounds and a few ulps of each term
    ulps = 8.0 * sys.float_info.epsilon * (
        1.0 + abs(gamma["value"]) + abs(value) + abs(math.log(lam)))
    assert row["tolerance"] == gamma["stderr"] + half + ulps
    assert row["verdict"] == "pass"


@pytest.mark.parametrize("environment", [BOTH_ENV, TWO_STATE_RIGHT_ENV], ids=["both", "right"])
def test_all_draws_no_replicas_with_an_interior_feasible_set(tmp_path, environment):
    # no exponent is drawn: the seed and the lyapunov budget leave it as it is,
    # and only the budget's echo moves
    reports = []
    for name, seed, steps, replicas in (("a", 7, 5_000, 4), ("b", 8, 1_000, 2)):
        path = write_config(tmp_path, f"{name}.json", environment=environment, seed=seed,
                            lyapunov={"steps": steps, "replicas": replicas})
        assert run(path, "all", outdir=str(tmp_path / name), quiet=True) == EXIT_OK
        reports.append(json.loads((tmp_path / name / "report.json").read_text()))
    a, b = (r["lyapunov"]["gamma1"] for r in reports)
    assert a["method"] == "word_sum"
    assert a == {**b, "steps": 5_000, "replicas": 4}
    assert reports[0]["regime"]["margin"] == reports[1]["regime"]["margin"]


def test_lyapunov_section_is_skipped_without_a_feasible_lambda(tmp_path):
    path = write_config(tmp_path, environment=environment("empty-two-state"))
    for subcommand in ("lyapunov", "all"):
        assert run(path, subcommand, outdir=str(tmp_path / subcommand), quiet=True) == EXIT_OK
        report = json.loads((tmp_path / subcommand / "report.json").read_text())
        assert list(report["lyapunov"]) == ["skipped"]
    assert report["regime"]["regime"] == "StrongLocalSurvival"
    row = next(r for r in report["crosscheck"] if r["identity"] == "exponent_shift")
    assert row["verdict"] == "skipped"


@pytest.mark.parametrize("environment", [TWO_STATE_RIGHT_ENV, TWO_STATE_LEFT_ENV, BOTH_ENV],
                         ids=["right", "left", "both"])
@pytest.mark.parametrize("mutated", [False, True])
def test_exponent_shift_catches_a_wrong_A_lambda(tmp_path, monkeypatch, environment, mutated):
    # b x 1.001 breaks gamma(A_lambda) + ln lambda = gamma(A), by 2e-5 to 9e-5
    # between the row's two lambdas, against bounds of 2e-10 to 2e-7
    original = lyapunov.build_A_lambda

    def build(m, lam):
        (a, b), (c, _) = original(m, lam)
        b *= 1.001
        return np.array([[a, b], [c, 1.0 + b]])

    if mutated:
        monkeypatch.setattr(lyapunov, "build_A_lambda", build)
    path = write_config(tmp_path, environment=environment)
    assert run(path, "crosscheck", outdir=str(tmp_path / "out"), quiet=True) == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    row = next(r for r in report["crosscheck"] if r["identity"] == "exponent_shift")
    assert row["verdict"] == ("fail" if mutated else "pass")
    if not mutated:
        assert abs(row["lhs"] - row["rhs"]) <= 1e-11


@BRANCH_LAWS
def test_library_and_cli_agree_on_every_branch(tmp_path, environment, direction):
    path = write_config(tmp_path, environment=environment)
    assert run(path, "classify", outdir=str(tmp_path / "out"), quiet=True) == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    config = load_config(path)
    rep = criteria.classify_environment(
        config.environment, seed=report["seeds"]["lyapunov"], steps=config.lyapunov.steps,
        replicas=config.lyapunov.replicas, sigma_margin=config.thresholds.sigma_margin)
    assert rep.vanishing_direction == direction
    gamma1 = None if rep.gamma1 is None else rep.gamma1._asdict()
    assert (report["regime"]["regime"], report["regime"]["margin"], report["regime"]["gamma1"]) == (
        rep.regime, rep.margin, gamma1)


@BRANCH_LAWS
def test_subcommand_sections_match_all(tmp_path, monkeypatch, environment, direction):
    calls = collections.Counter()
    for module, name in ((criteria, "classify"), (spectral, "rho_sweep"),
                         (simulator, "survival_probabilities"),
                         (simulator, "frozen_mean_profile")):
        def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    path = write_config(tmp_path, environment=environment)
    reports = {}
    for subcommand in cli.SUBCOMMANDS:
        calls.clear()
        out = tmp_path / subcommand
        assert run(path, subcommand, outdir=str(out), quiet=True) == EXIT_OK
        reports[subcommand] = json.loads((out / "report.json").read_text())
        if subcommand in ("crosscheck", "all"):
            # every stage runs once, and the branch-specific ones only on their branch;
            # the survival run records the supermartingale trace, so the stage graph
            # never calls supermartingale_trace
            assert calls == collections.Counter({
                "classify": 1, "rho_sweep": 1, "survival_probabilities": 1,
                "frozen_mean_profile": int(direction == "right"), "supermartingale_trace": 0,
            })
    full = reports["all"]
    assert full["regime"]["vanishing_direction"] == direction
    # the rows keep the table's order, which perfbench's self-check indexes
    assert [r["identity"] for r in full["crosscheck"]] == [c[0] for c in cli.CROSSCHECKS]
    assert "frozen_profile" in reports["crosscheck"]
    for subcommand, report in reports.items():
        assert list(report) == [key for key in full if key in report]
        for key, section in report.items():
            if key != "subcommand":
                assert section == full[key], (subcommand, key)


def test_simulate_and_all_run_where_the_trace_outgrows_the_guard(tmp_path, monkeypatch,
                                                                  capsys):
    # in annealed mode on several states, trace trials reach the exact-integer guard
    # before the trace horizon: the guard caps them as the cap would, and each
    # reads its exact conditional mean from then on, so both subcommands that
    # record the trace exit 0 and write the same survival section
    monkeypatch.setattr(simulator, "_HARD_COUNT", 40)
    path = write_config(tmp_path, environment=TWO_STATE_RIGHT_ENV,
                        simulate={"trials": 200, "horizon": 60, "cap": 100_000, "mode": "annealed"})
    reports = {}
    for subcommand in ("simulate", "all"):
        out = tmp_path / subcommand
        assert run(path, subcommand, outdir=str(out), fmt="both", quiet=True) == EXIT_OK
        assert capsys.readouterr().err == ""
        reports[subcommand] = json.loads((out / "report.json").read_text())
    survival = reports["simulate"]["survival"]
    assert survival == reports["all"]["survival"]
    statuses = [line.split(",")[1] for line in
                (tmp_path / "simulate" / "survival.csv").read_text().splitlines()[1:]]
    assert simulator.CAP_REACHED in statuses


def test_a_collapsed_product_is_a_run_error(tmp_path, monkeypatch, capsys, no_blas_setting):
    # criteria raises FloatingPointError where a matrix product collapses to zero;
    # run reports it as a stage error, so it never reaches main's last-resort guard
    def collapsed(m):
        raise FloatingPointError("matrix product collapsed to zero")

    monkeypatch.setattr(criteria, "constant_exponent", collapsed)
    out = tmp_path / "out"
    assert main(["classify", "--config", write_config(tmp_path), "--out", str(out),
                 "--quiet"]) == EXIT_INTERNAL
    assert capsys.readouterr().err == "error: matrix product collapsed to zero\n"
    assert not (out / "report.json").exists()


def test_frozen_stage_follows_the_classifier_branch(tmp_path):
    path = write_config(tmp_path, environment=environment("near-critical"))
    assert run(path, "all", outdir=str(tmp_path / "all"), quiet=True) == EXIT_OK
    report = json.loads((tmp_path / "all" / "report.json").read_text())
    regime = report["regime"]
    assert (regime["regime"], regime["vanishing_direction"]) == ("GlobalExtinction", "both")
    assert regime["lambda_set"]["lo"] > 1.0 + criteria.FEASIBILITY_TOL
    assert "skipped" in report["frozen_profile"]
    frozen_rows = [r for r in report["crosscheck"]
                   if r["identity"] in ("frozen_log_mean", "per_level_bound")]
    assert [r["verdict"] for r in frozen_rows] == ["skipped"] * 2


@pytest.mark.parametrize("overrides, means", [
    # 1 is the documented minimum of frozen.levels
    pytest.param({"frozen": {"levels": 1}}, [1.2758], id="one-level"),
    pytest.param({"frozen": {"levels": 4, "trials_per_level": 1}, "seed": 9}, [0, 2, 2, 2],
                 id="equal-unflagged-means"),
    # gamma's stderr alone would bound the row, with no environment noise in it
    pytest.param({"frozen": {"levels": 1}, "environment": TWO_STATE_RIGHT_ENV}, [1.4668],
                 id="one-level-two-state"),
    # every level flagged: the log-average is NaN, with no warning (the suite's
    # filter turns one into an error that run() does not catch)
    pytest.param({"frozen": {"levels": 1, "trials_per_level": 1}, "seed": 3}, [0],
                 id="all-flagged"),
])
def test_frozen_log_mean_skips_without_level_spread(tmp_path, overrides, means):
    path = write_config(tmp_path, **overrides)
    assert run(path, "all", outdir=str(tmp_path / "all"), quiet=True) == EXIT_OK
    report = json.loads((tmp_path / "all" / "report.json").read_text())
    profile = report["frozen_profile"]
    assert profile["level_means"] == means
    assert math.isnan(profile["log_average"]) == (max(means) == 0)
    assert profile["log_average_stderr"] == 0.0
    row = next(r for r in report["crosscheck"] if r["identity"] == "frozen_log_mean")
    assert (row["verdict"], row["note"]) == (
        "skipped", "no spread across unflagged levels to bound the log-average")


def test_double_root_lost_to_rounding_is_feasible(tmp_path):
    path = write_config(tmp_path, environment=environment("double-root"), lyapunov={"steps": 2000},
                        spectral={"n_values": [1, 2, 4, 8, 16, 32, 64]})
    assert run(path, "all", outdir=str(tmp_path / "all"), quiet=True) == EXIT_OK
    report = json.loads((tmp_path / "all" / "report.json").read_text())
    regime = report["regime"]
    assert (regime["regime"], regime["vanishing_direction"]) == (
        "GlobalSurvivalLocalExtinction", "right")
    assert regime["lambda_set"]["lo"] == regime["lambda_set"]["hi"] == pytest.approx(1 / 0.7)
    # a power of one matrix: its exponent is ln of the double root, exactly
    assert regime["gamma1"]["value"] == pytest.approx(math.log(1 / 0.7), rel=1e-12)
    row = next(r for r in report["crosscheck"] if r["identity"] == "spectral_criterion")
    assert row["verdict"] == "pass" and row["lhs"] < 1.0


def test_tie_lost_to_rounding_is_feasible(tmp_path):
    path = write_config(tmp_path, environment=TIE_ENV,
                        spectral={"n_values": [1, 2, 4, 8, 16, 32, 64]})
    assert run(path, "all", outdir=str(tmp_path / "all"), quiet=True) == EXIT_OK
    report = json.loads((tmp_path / "all" / "report.json").read_text())
    regime = report["regime"]
    assert (regime["regime"], regime["vanishing_direction"]) == (
        "GlobalSurvivalLocalExtinction", "right")
    assert regime["lambda_set"] == {"empty": False, "lo": 2.0413575105853745,
                                    "hi": 2.0413575105853745}
    row = next(r for r in report["crosscheck"] if r["identity"] == "spectral_criterion")
    assert row["verdict"] == "pass" and row["lhs"] < 1.0


def test_crosscheck_draws_no_exponent_without_feasible_lambda(tmp_path, monkeypatch):
    calls = []
    original = criteria.top_exponent

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # STRONG_LOCAL_ENV has one state: its exponent never reaches lyapunov.top_lyapunov
    monkeypatch.setattr(criteria, "top_exponent", counted)
    path = write_config(tmp_path, environment=STRONG_LOCAL_ENV)
    assert run(path, "crosscheck", outdir=str(tmp_path / "cc"), quiet=True) == EXIT_OK
    report = json.loads((tmp_path / "cc" / "report.json").read_text())
    assert report["regime"]["regime"] == "StrongLocalSurvival"
    assert calls == []


def test_spectral_tol_is_ignored(tmp_path):
    # the solver has no tolerance: spectral.tol is accepted and ignored
    with_tol = write_config(tmp_path, "with.json", spectral={"n_values": [1, 2, 4], "tol": 1e-3})
    without = write_config(tmp_path, "without.json", spectral={"n_values": [1, 2, 4]})
    assert load_config(with_tol).spectral == load_config(without).spectral
    for name, path in (("with", with_tol), ("without", without)):
        assert run(path, "spectral", outdir=str(tmp_path / name), quiet=True) == EXIT_OK
    with_report = json.loads((tmp_path / "with" / "report.json").read_text())
    without_report = json.loads((tmp_path / "without" / "report.json").read_text())
    assert with_report["rho_sweep"] == without_report["rho_sweep"]


def test_main_pins_openblas_to_one_thread_unless_set(tmp_path, no_blas_setting, monkeypatch):
    path = write_config(tmp_path)
    assert main(["validate", "--config", path, "--out", str(tmp_path / "unset"), "--quiet"]) == EXIT_OK
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    assert main(["validate", "--config", path, "--out", str(tmp_path / "set"), "--quiet"]) == EXIT_OK
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"


def cli_process(args, tmp_path, **env) -> tuple[int, float, float]:
    """`python -m brwre.cli ARGS` in a fresh interpreter: (exit code, CPU s, wall s).

    The child's environment is this one's without OPENBLAS_NUM_THREADS, plus `env`.
    CPU is user plus system time from wait4, as perfbench/run.py reads it."""
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child_env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    child_env.update(env)
    start = time.perf_counter()
    pid = subprocess.Popen([sys.executable, "-m", "brwre.cli", *args, "--quiet"],
                           env=child_env, cwd=tmp_path).pid
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), usage.ru_utime + usage.ru_stime, wall


def test_strict_sets_the_exit_code_of_a_process(tmp_path):
    # --strict reaches `run` only through `main`'s argument parsing: `classify --strict`
    # and `all --strict` exit 3 on an Inconclusive verdict, and `all --strict` stops
    # there, while `all` without it runs every stage and exits 0
    path = write_config(tmp_path, **INCONCLUSIVE)
    for sub, flags, code in (("classify", ["--strict"], EXIT_INCONCLUSIVE),
                             ("all", ["--strict"], EXIT_INCONCLUSIVE), ("all", [], EXIT_OK)):
        out = tmp_path / f"{sub}{''.join(flags)}"
        assert cli_process([sub, "--config", path, "--out", str(out), *flags], tmp_path)[0] == code
    assert "crosscheck" not in json.loads((tmp_path / "all--strict" / "report.json").read_text())
    assert "crosscheck" in json.loads((tmp_path / "all" / "report.json").read_text())


def test_all_runs_on_one_thread(tmp_path):
    # with OpenBLAS's default pool, its idle workers spun ~0.13 s of CPU beyond the
    # wall time of `all` on 2 cores; pinned, the process's CPU is its one thread's
    code, cpu, wall = cli_process(["all", "--config", write_config(tmp_path),
                                   "--out", str(tmp_path / "out")], tmp_path)
    assert code == EXIT_OK
    assert cpu <= wall + 0.05, (cpu, wall)


def test_report_is_independent_of_the_blas_thread_count(tmp_path):
    # THIN_ENV's exponent is the capped word table's word sum, whose state_p @ end1
    # in lyapunov._bracket is the largest BLAS call of any stage
    path = write_config(tmp_path, environment=THIN_ENV)
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        code, _, _ = cli_process(["classify", "--config", path, "--out", str(out)], tmp_path,
                                 OPENBLAS_NUM_THREADS=threads)
        assert code == EXIT_OK
        reports.append((out / "report.json").read_bytes())
    assert json.loads(reports[0])["regime"]["gamma1"]["method"] == "word_sum"
    assert reports[0] == reports[1]


def test_thread_setting_is_ignored(tmp_path, monkeypatch):
    path = write_config(tmp_path)
    assert run(path, "all", outdir=str(tmp_path / "unset"), quiet=True) == EXIT_OK
    monkeypatch.setenv("BRWRE_THREADS", "not-a-number")
    assert cli.worker_count() == 1
    assert run(path, "all", outdir=str(tmp_path / "set"), quiet=True) == EXIT_OK
    unset = (tmp_path / "unset" / "report.json").read_bytes()
    assert unset == (tmp_path / "set" / "report.json").read_bytes()


def test_report_byte_reproducibility(tmp_path):
    path = write_config(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run(path, "classify", outdir=str(out1), quiet=True) == EXIT_OK
    assert run(path, "classify", outdir=str(out2), quiet=True) == EXIT_OK
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_main_entrypoint(tmp_path, no_blas_setting):
    path = write_config(tmp_path, environment=STRONG_LOCAL_ENV)
    code = main(["classify", "--config", path, "--out", str(tmp_path / "out"), "--quiet"])
    assert code == EXIT_OK
