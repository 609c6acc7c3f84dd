import collections
import json

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
    ],
)
def test_load_config_names_offending_field(tmp_path, overrides, fragment):
    path = write_config(tmp_path, **overrides)
    with pytest.raises(ConfigError, match=fragment.replace(".", r"\.")):
        load_config(path)


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
    expected = {
        "conjugacy_identity", "exponent_shift", "lambda_independence",
        "supermartingale_monotone", "survival_concordance", "local_global_coincidence",
        "frozen_log_mean", "frozen_slope", "per_level_bound", "spectral_criterion",
    }
    assert set(rows) == expected
    failing = [n for n, r in rows.items() if r["verdict"] == "fail"]
    assert failing == []
    for r in rows.values():
        assert r["verdict"] in ("pass", "skipped")
        assert "tolerance" in r
    assert (out / "supermartingale.csv").exists()


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


def test_all_report_unchanged_by_stage_reuse(tmp_path, monkeypatch):
    path = write_config(tmp_path)
    assert run(path, "all", outdir=str(tmp_path / "reuse"), quiet=True) == EXIT_OK
    original = cli.run_crosscheck
    monkeypatch.setattr(cli, "run_crosscheck",
                        lambda config, quiet=False, **_: original(config, quiet))
    assert run(path, "all", outdir=str(tmp_path / "fresh"), quiet=True) == EXIT_OK
    reuse = (tmp_path / "reuse" / "report.json").read_bytes()
    assert reuse == (tmp_path / "fresh" / "report.json").read_bytes()


def test_all_draws_each_exponent_once(tmp_path, monkeypatch):
    calls = collections.Counter()
    original = lyapunov.top_lyapunov

    def counted(envlaw, matrix_kind, *args, **kwargs):
        calls[matrix_kind, kwargs["seed"]] += 1
        return original(envlaw, matrix_kind, *args, **kwargs)

    monkeypatch.setattr(lyapunov, "top_lyapunov", counted)
    path = write_config(tmp_path, environment=TWO_STATE_RIGHT_ENV)
    assert run(path, "all", outdir=str(tmp_path / "all"), quiet=True) == EXIT_OK
    report = json.loads((tmp_path / "all" / "report.json").read_text())
    assert report["regime"]["vanishing_direction"] == "right"
    assert ("A", report["seeds"]["lyapunov"]) in calls
    assert set(calls.values()) == {1}
    # the lyapunov stage reuses the classifier's estimate: same section as a fresh run
    assert run(path, "lyapunov", outdir=str(tmp_path / "fresh"), quiet=True) == EXIT_OK
    fresh = json.loads((tmp_path / "fresh" / "report.json").read_text())
    assert report["lyapunov"] == fresh["lyapunov"]


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
