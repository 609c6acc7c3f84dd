import collections
import dataclasses
import json
import re

import pytest

from brwre import cli, criteria, lyapunov, simulator, spectral
from brwre.cli import (
    EXIT_CONDITIONS,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    ConfigError,
    dumps_report,
    load_config,
    main,
    run,
)


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "environment": {
            "states": [
                {
                    "weight": 1.0,
                    "atoms": [
                        {"p": 0.6, "v": [2, 0, 0]},
                        {"p": 0.05, "v": [0, 0, 1]},
                        {"p": 0.35, "v": [0, 0, 0]},
                    ],
                }
            ]
        },
        "seed": 7,
        "lyapunov": {"steps": 5000, "replicas": 4},
        "spectral": {"n_values": [1, 2, 4], "tol": 1e-10},
        "simulate": {"trials": 200, "horizon": 60, "cap": 100000, "mode": "quenched"},
        "frozen": {"levels": 4, "trials_per_level": 500},
        "thresholds": {"sigma_margin": 3.0},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


STRONG_LOCAL_ENV = {
    "states": [
        {"weight": 1.0, "atoms": [{"p": 0.5, "v": [1, 1, 1]}, {"p": 0.5, "v": [0, 0, 0]}]}
    ]
}

TWO_STATE_RIGHT_ENV = {
    "states": [
        {"weight": 0.5, "atoms": [{"p": 0.7, "v": [2, 0, 0]}, {"p": 0.05, "v": [0, 0, 1]},
                                  {"p": 0.25, "v": [0, 0, 0]}]},
        {"weight": 0.5, "atoms": [{"p": 0.45, "v": [2, 0, 0]}, {"p": 0.08, "v": [0, 0, 1]},
                                  {"p": 0.47, "v": [0, 0, 0]}]},
    ]
}

# TWO_STATE_RIGHT_ENV reflected: every offspring vector reversed
TWO_STATE_LEFT_ENV = {
    "states": [
        {"weight": 0.5, "atoms": [{"p": 0.7, "v": [0, 0, 2]}, {"p": 0.05, "v": [1, 0, 0]},
                                  {"p": 0.25, "v": [0, 0, 0]}]},
        {"weight": 0.5, "atoms": [{"p": 0.45, "v": [0, 0, 2]}, {"p": 0.08, "v": [1, 0, 0]},
                                  {"p": 0.47, "v": [0, 0, 0]}]},
    ]
}

# a state and its reflection: 1 is feasible, so the verdict is closed-form
# GlobalExtinction in both directions
BOTH_ENV = {
    "states": [
        {"weight": 0.5, "atoms": [{"p": 0.3, "v": [2, 0, 0]}, {"p": 0.15, "v": [0, 0, 1]},
                                  {"p": 0.55, "v": [0, 0, 0]}]},
        {"weight": 0.5, "atoms": [{"p": 0.15, "v": [1, 0, 0]}, {"p": 0.3, "v": [0, 0, 2]},
                                  {"p": 0.55, "v": [0, 0, 0]}]},
    ]
}

# one law per classifier branch, named by its vanishing direction
BRANCH_LAWS = pytest.mark.parametrize("environment, direction", [
    pytest.param(TWO_STATE_RIGHT_ENV, "right", id="right"),
    pytest.param(TWO_STATE_LEFT_ENV, "left", id="left"),
    pytest.param(BOTH_ENV, "both", id="both"),
    pytest.param(STRONG_LOCAL_ENV, "none", id="none"),
])

# 1 feasible within the membership tolerance although the lower root
# exceeds 1 + tol (see tests/test_criteria.py::NEAR_CRITICAL_RIGHT)
NEAR_CRITICAL_ENV = {
    "states": [
        {"weight": 1.0, "atoms": [{"p": 0.35 + 2.5e-10, "v": [2, 0, 0]}, {"p": 0.3, "v": [0, 0, 1]},
                                  {"p": 0.35 - 2.5e-10, "v": [0, 0, 0]}]}
    ]
}

NO_RIGHT_ENV = {
    "states": [
        {"weight": 1.0, "atoms": [{"p": 0.7, "v": [1, 0, 0]}, {"p": 0.3, "v": [0, 2, 0]}]}
    ]
}


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
    ],
)
def test_load_config_names_offending_field(tmp_path, overrides, fragment):
    path = write_config(tmp_path, **overrides)
    with pytest.raises(ConfigError, match=re.escape(fragment)):
        load_config(path)


OPTION_FIELDS = [
    pytest.param(section, fld, id=f"{section}.{fld.name}")
    for section, cls in (("lyapunov", cli.LyapunovOpts), ("spectral", cli.SpectralOpts),
                         ("simulate", cli.SimulateOpts), ("frozen", cli.FrozenOpts),
                         ("thresholds", cli.Thresholds))
    for fld in dataclasses.fields(cls)
]


@pytest.mark.parametrize("section, fld", OPTION_FIELDS)
def test_option_defaults_and_bounds(tmp_path, section, fld):
    def load(value=None):
        options = {} if value is None else {fld.name: value}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"environment": STRONG_LOCAL_ENV, section: options}))
        return getattr(getattr(load_config(str(path)), section), fld.name)

    assert load() == fld.default
    field_path = f"{section}.{fld.name}"
    if "minimum" in fld.metadata:
        minimum, top = fld.metadata["minimum"], 2**63 - 1  # numpy holds the value as an int64
        assert load(minimum) == minimum and load(top) == top
        bad = [(minimum - 1, f"{field_path}: must be >= {minimum}, got {minimum - 1}"),
               (top + 1, f"{field_path}: must be <= {top}, got {top + 1}")]
    elif "choices" in fld.metadata:
        assert [load(c) for c in fld.metadata["choices"]] == list(fld.metadata["choices"])
        bad = [("sideways", f"{field_path}: expected 'quenched' or 'annealed', got 'sideways'")]
    elif fld.name == "n_values":
        bad = [([], "spectral.n_values: must be a nonempty strictly increasing array")]
    else:  # a float option: any positive value, but not zero
        assert load(1e-300) == 1e-300
        bad = [(0, f"{field_path}: must be positive, got 0.0")]
    for value, message in bad:
        with pytest.raises(ConfigError) as excinfo:
            load(value)
        assert str(excinfo.value) == message


def test_validate_rejects_unknown_section_key(tmp_path, capsys):
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


# -- subcommands -------------------------------------------------------------


def test_validate_ok(tmp_path, capsys):
    path = write_config(tmp_path)
    code = run(path, "validate", outdir=str(tmp_path / "out"))
    assert code == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["conditions"]["ok"] is True
    assert report["config_sha256"]
    assert set(report["seeds"]) == {
        "master", "environment", "lyapunov", "simulate", "frozen", "supermartingale",
    }


def test_validate_condition_failure_exits_two(tmp_path):
    path = write_config(tmp_path, environment=NO_RIGHT_ENV)
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


TWO_STATE_ENV = {
    "states": [
        {
            "weight": 0.5,
            "atoms": [
                {"p": 0.7, "v": [2, 0, 0]},
                {"p": 0.05, "v": [0, 0, 1]},
                {"p": 0.25, "v": [0, 0, 0]},
            ],
        },
        {
            "weight": 0.5,
            "atoms": [
                {"p": 0.45, "v": [2, 0, 0]},
                {"p": 0.08, "v": [0, 0, 1]},
                {"p": 0.47, "v": [0, 0, 0]},
            ],
        },
    ]
}


def test_classify_strict_inconclusive_exits_three(tmp_path):
    # a random environment has a finite margin, so an absurd sigma threshold
    # forces the statistical branch to stay undecided
    path = write_config(tmp_path, environment=TWO_STATE_ENV, thresholds={"sigma_margin": 1e18})
    code = run(path, "classify", outdir=str(tmp_path / "out"), strict=True, quiet=True)
    assert code == EXIT_INCONCLUSIVE
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["regime"]["regime"] == "Inconclusive"


def test_classify_without_strict_keeps_exit_zero(tmp_path):
    path = write_config(tmp_path, environment=TWO_STATE_ENV, thresholds={"sigma_margin": 1e18})
    assert run(path, "classify", outdir=str(tmp_path / "out"), quiet=True) == EXIT_OK


def test_malformed_config_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"environment": {"states": []}}')
    code = run(str(path), "classify", outdir=str(tmp_path / "out"), quiet=True)
    assert code == 1
    assert "environment.states" in capsys.readouterr().err


def test_simulate_writes_csv(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    code = run(path, "simulate", outdir=str(out), fmt="both", quiet=True)
    assert code == EXIT_OK
    lines = (out / "survival.csv").read_text().splitlines()
    assert lines[0] == "trial,status,extinction_time,last_origin_visit"
    assert len(lines) == 201
    report = json.loads((out / "report.json").read_text())
    assert 0.0 <= report["survival"]["global_freq"] <= 1.0


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
        "conjugacy_identity", "exponent_shift", "lambda_independence",
        "supermartingale_monotone", "survival_concordance", "local_global_coincidence",
        "frozen_log_mean", "frozen_slope", "per_level_bound", "spectral_criterion",
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
    for name in ("conjugacy_identity", "per_level_bound", "spectral_criterion"):
        assert rows[name]["verdict"] == "pass"
        assert rows[name]["sigma_distance"] is None
    # a row tested against 3 stderr keeps its distance in sigmas
    row = rows["exponent_shift"]
    assert row["sigma_distance"] == pytest.approx(
        3.0 * abs(row["lhs"] - row["rhs"]) / row["tolerance"], rel=1e-12)


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
    for module, name in ((criteria, "classify_environment"), (spectral, "rho_sweep"),
                         (simulator, "survival_probabilities"),
                         (simulator, "frozen_mean_profile")):
        def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    assert run(write_config(tmp_path), "all", outdir=str(tmp_path / "out"), quiet=True) == EXIT_OK
    assert calls == {"classify_environment": 1, "rho_sweep": 1,
                     "survival_probabilities": 1, "frozen_mean_profile": 1}


@BRANCH_LAWS
@pytest.mark.parametrize("subcommand", ["lyapunov", "crosscheck", "all"])
def test_all_draws_each_exponent_once(tmp_path, monkeypatch, subcommand, environment, direction):
    calls = collections.Counter()
    original = lyapunov.top_lyapunov

    def counted(envlaw, matrix_kind, *args, **kwargs):
        calls[matrix_kind, kwargs.get("lam")] += 1
        return original(envlaw, matrix_kind, *args, **kwargs)

    monkeypatch.setattr(lyapunov, "top_lyapunov", counted)
    path = write_config(tmp_path, environment=environment)
    assert criteria.vanishing_direction(load_config(path).environment) == direction
    assert run(path, subcommand, outdir=str(tmp_path / "out"), quiet=True) == EXIT_OK
    assert all(n == 1 for n in calls.values()), calls
    if subcommand == "lyapunov":
        assert set(calls) == {("A", None), ("A_tilde", None)}


@BRANCH_LAWS
def test_subcommand_sections_match_all(tmp_path, monkeypatch, environment, direction):
    calls = collections.Counter()
    for module, name in ((criteria, "classify_environment"), (spectral, "rho_sweep"),
                         (simulator, "survival_probabilities"),
                         (simulator, "frozen_mean_profile"), (simulator, "supermartingale_trace")):
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
            # every stage runs once, and the branch-specific ones only on their branch
            assert calls == collections.Counter({
                "classify_environment": 1, "rho_sweep": 1, "survival_probabilities": 1,
                "frozen_mean_profile": int(direction == "right"),
                "supermartingale_trace": int(direction != "none"),
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


def test_frozen_stage_follows_the_classifier_branch(tmp_path):
    path = write_config(tmp_path, environment=NEAR_CRITICAL_ENV)
    assert run(path, "all", outdir=str(tmp_path / "all"), quiet=True) == EXIT_OK
    report = json.loads((tmp_path / "all" / "report.json").read_text())
    regime = report["regime"]
    assert (regime["regime"], regime["vanishing_direction"]) == ("GlobalExtinction", "both")
    assert regime["lambda_set"]["lo"] > 1.0 + criteria.FEASIBILITY_TOL
    assert "skipped" in report["frozen_profile"]
    frozen_rows = [r for r in report["crosscheck"]
                   if r["identity"] in ("frozen_log_mean", "frozen_slope", "per_level_bound")]
    assert [r["verdict"] for r in frozen_rows] == ["skipped"] * 3


def test_all_with_one_frozen_level_skips_the_slope(tmp_path):
    # 1 is the documented minimum of frozen.levels; a regression slope needs two
    path = write_config(tmp_path, frozen={"levels": 1})
    assert run(path, "all", outdir=str(tmp_path / "all"), quiet=True) == EXIT_OK
    report = json.loads((tmp_path / "all" / "report.json").read_text())
    assert report["frozen_profile"]["levels"] == [1]
    row = next(r for r in report["crosscheck"] if r["identity"] == "frozen_slope")
    assert (row["verdict"], row["note"]) == ("skipped", "slope needs two or more levels")


def test_crosscheck_draws_no_exponent_without_feasible_lambda(tmp_path, monkeypatch):
    calls = []
    original = lyapunov.top_lyapunov

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(lyapunov, "top_lyapunov", counted)
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


def test_main_entrypoint(tmp_path):
    path = write_config(tmp_path, environment=STRONG_LOCAL_ENV)
    code = main(["classify", "--config", path, "--out", str(tmp_path / "out"), "--quiet"])
    assert code == EXIT_OK
