"""Golden verdicts: the machine-independent fields of `all` on the CLI fixtures.

golden_verdicts.json records `all` on named laws of tests/laws.py, quenched
and annealed, at tests/laws.py's write_config sizes: the exit code, the
section list, the regime, the vanishing direction, the lambda set, the
drift, and each cross-check row's identity and verdict.  Floats compare
at 1e-12 relative.  Report bytes stay out, since an unpinned numpy or libm can
move a float or a binomial draw.  Failing rows are recorded as they are, so a
fix shows up as a golden change.  A change that moves an entry regenerates
the file and lists the moved entries:

    PYTHONPATH=src python tests/test_golden.py
"""
import json
import math
import pathlib
import tempfile

import pytest

from brwre.cli import run
from laws import SIZES, environment, write_config

GOLDEN = pathlib.Path(__file__).with_name("golden_verdicts.json")

# each golden environment's law in tests/laws.py; "default" is write_config's own
ENVIRONMENTS = {"default": "readme", "strong_local": "strong-local", "two_state_right": "two-state",
                "two_state_left": "two-state-left", "both": "both",
                "near_critical": "near-critical", "no_right": "no-right"}
RUNS = [f"{env}/{mode}" for env in ENVIRONMENTS for mode in ("quenched", "annealed")]


def verdict_record(tmp_path: pathlib.Path, name: str) -> dict:
    """The golden fields of `all` on run `name`, "<environment>/<mode>"."""
    env, mode = name.split("/")
    # write_config's simulate section in the given mode
    path = write_config(tmp_path, environment=environment(ENVIRONMENTS[env]),
                        simulate={**SIZES["simulate"], "mode": mode})
    code = run(path, "all", outdir=str(tmp_path / "out"), quiet=True)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    regime = report.get("regime", {})
    return {
        "exit": code,
        "sections": list(report),
        **{key: regime.get(key) for key in ("regime", "vanishing_direction", "lambda_set", "drift")},
        "rows": [[r["identity"], r["verdict"]] for r in report.get("crosscheck", [])],
    }


def _matches(got, want) -> bool:
    if isinstance(want, float):
        return isinstance(got, float) and math.isclose(got, want, rel_tol=1e-12)
    if isinstance(want, dict):
        return isinstance(got, dict) and list(got) == list(want) and all(
            _matches(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_matches, got, want))
    return got == want


def test_golden_lists_every_run():
    assert list(json.loads(GOLDEN.read_text())) == RUNS


@pytest.mark.parametrize("name", RUNS)
def test_all_matches_golden_verdicts(tmp_path, name):
    want = json.loads(GOLDEN.read_text())[name]
    got = verdict_record(tmp_path, name)
    assert _matches(got, want), (got, want)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        records = {}
        for i, name in enumerate(RUNS):
            (pathlib.Path(tmp) / str(i)).mkdir()
            records[name] = verdict_record(pathlib.Path(tmp) / str(i), name)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
