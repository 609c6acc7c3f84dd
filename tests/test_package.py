"""The package's lazy exports, and which subcommands run without numpy.

The import checks run in a fresh interpreter, since this suite's conftest
imports numpy.
"""
import importlib
import json
import os
import subprocess
import sys

import pytest

import brwre
from laws import SRC, environment

# the array modules: only a stage that computes on arrays loads them
ARRAY_MODULES = ("numpy", "brwre.lyapunov", "brwre.spectral", "brwre.simulator")


def loaded_after(code: str, tmp_path, modules=ARRAY_MODULES) -> dict:
    """{module: loaded?} for `modules` once `code` ran in a fresh interpreter."""
    script = f"{code}\nimport json, sys\nprint(json.dumps({{m: m in sys.modules for m in {modules!r}}}))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_package_and_cli_loads_no_array_module(tmp_path):
    assert not any(loaded_after("import brwre, brwre.cli", tmp_path).values())


def run_code(law, subcommands, tmp_path) -> str:
    """Code that runs each subcommand in-process on tests/laws.py's `law` and asserts
    it exits 0."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "environment": environment(law), "seed": 3, "lyapunov": {"steps": 2000, "replicas": 4},
        "simulate": {"trials": 200, "horizon": 60}, "frozen": {"levels": 5, "trials_per_level": 200},
    }))
    runs = [(str(config), sub, str(tmp_path / sub)) for sub in subcommands]
    return (f"import brwre.cli\nfor path, sub, out in {runs!r}:\n"
            f"    assert brwre.cli.run(path, sub, outdir=out, quiet=True) == 0, sub")


def test_closed_form_verdict_runs_without_numpy(tmp_path):
    code = run_code("both", ("validate", "classify"), tmp_path)
    assert not any(loaded_after(code, tmp_path).values())
    report = json.loads((tmp_path / "classify" / "report.json").read_text())
    assert (report["regime"]["regime"], report["regime"]["vanishing_direction"]) == (
        "GlobalExtinction", "both")


def test_closed_form_start_up_loads_no_dataclasses_inspect_or_numpy(tmp_path):
    # records are NamedTuples, so neither dataclasses, which generates each class's
    # methods by exec at import, nor the inspect module it imports is loaded
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"environment": environment("readme")}))
    code = "import brwre.cli\n" + "".join(
        f"assert brwre.cli.main([{sub!r}, '--config', {str(config)!r}, '--out', "
        f"{str(tmp_path / sub)!r}, '--quiet']) == 0\n" for sub in ("validate", "classify"))
    assert loaded_after(code, tmp_path, ("dataclasses", "inspect", "numpy")) == {
        "dataclasses": False, "inspect": False, "numpy": False}
    report = json.loads((tmp_path / "classify" / "report.json").read_text())
    assert report["regime"]["gamma1"]["method"] == "closed_form"


def test_tie_verdict_runs_without_numpy(tmp_path):
    # two states tight at their one feasible lambda: the exponent is the point's closed form
    code = run_code("tie", ("classify",), tmp_path)
    assert not any(loaded_after(code, tmp_path).values())
    report = json.loads((tmp_path / "classify" / "report.json").read_text())
    assert report["regime"]["gamma1"]["method"] == "closed_form"


@pytest.mark.parametrize("law, direction", [("readme", "right"), ("one-state-left", "left")],
                         ids=["right", "left"])
def test_one_state_statistical_verdict_runs_without_numpy(tmp_path, law, direction):
    code = run_code(law, ("classify",), tmp_path)
    assert not any(loaded_after(code, tmp_path).values())
    report = json.loads((tmp_path / "classify" / "report.json").read_text())
    assert (report["regime"]["regime"], report["regime"]["vanishing_direction"]) == (
        "GlobalSurvivalLocalExtinction", direction)
    assert report["regime"]["gamma1"]["stderr"] == 0


def test_statistical_verdict_loads_the_exponent_module(tmp_path):
    code = run_code("two-state", ("classify",), tmp_path)
    loaded = loaded_after(code, tmp_path)
    assert loaded["numpy"] and loaded["brwre.lyapunov"], loaded
    report = json.loads((tmp_path / "classify" / "report.json").read_text())
    assert report["regime"]["vanishing_direction"] == "right"
    assert report["regime"]["gamma1"]["matrix_kind"] == "A"


def test_a_process_holding_numpy_loads_no_module_during_a_run(tmp_path):
    # with numpy already paid for, importing cli loads the array modules at once, so
    # code that patches or snapshots brwre's modules around `run` sees a fixed set
    code = ("import numpy, sys\nimport brwre.cli\n"
            "before = sorted(m for m in sys.modules if m.startswith('brwre'))\n"
            + run_code("readme", ("all",), tmp_path)
            + "\nassert sorted(m for m in sys.modules if m.startswith('brwre')) == before, before")
    assert all(loaded_after(code, tmp_path).values())


def test_every_export_is_its_defining_module_attribute():
    assert len(brwre.__all__) == len(set(brwre.__all__)) == 34
    for name in brwre.__all__:
        obj = getattr(brwre, name)
        assert obj.__module__.startswith("brwre."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    assert brwre.expected_log_drift.__module__ == "brwre.criteria"


def test_dir_lists_the_exports():
    assert set(brwre.__all__) <= set(dir(brwre))
    assert "__version__" in dir(brwre)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_an_export'"):
        brwre.not_an_export
    assert not hasattr(brwre, "np")
