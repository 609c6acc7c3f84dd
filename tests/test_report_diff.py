"""tools/report_diff.py's field comparison, which moves get a scale in stderrs, and its configs."""
import importlib.util
import json
import pathlib

import pytest

from brwre.cli import EXIT_INCONCLUSIVE, EXIT_OK, run
from laws import WORKLOAD_LAWS, environment

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "report_diff.py"
_spec = importlib.util.spec_from_file_location("report_diff", TOOL)
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)


def profile(means, stderrs):
    return {"frozen_profile": {"levels": list(range(1, len(means) + 1)), "level_means": means,
                               "level_stderrs": stderrs, "log_average": 0.5,
                               "log_average_stderr": 0.1}}


def test_moved_level_means_get_their_move_in_combined_stderrs():
    base = profile([1.0, 2.0, 3.0], [0.3, 0.4, 0.0])
    here = profile([1.0, 2.5, 3.5], [0.3, 0.3, 0.0])
    assert report_diff.moved(base, here, "report.json") == [
        "report.json.frozen_profile.level_means[1]: 2.0 -> 2.5 (+1.00 combined stderrs)",
        "report.json.frozen_profile.level_means[2]: 3.0 -> 3.5 (stderr 0)",
        "report.json.frozen_profile.level_stderrs[1]: 0.4 -> 0.3",
    ]


def test_a_list_that_changes_length_gets_no_scale():
    base, here = profile([1.0, 2.0], [0.3, 0.4]), profile([1.0, 2.0, 3.0], [0.3, 0.4, 0.5])
    assert report_diff.moved(base, here, "r")[:3] == [
        "r.frozen_profile.levels: length 2 -> 3",
        "r.frozen_profile.level_means: length 2 -> 3",
        "r.frozen_profile.level_stderrs: length 2 -> 3",
    ]


def test_scalar_moves_keep_their_scale():
    base, here = profile([1.0], [0.1]), profile([1.0], [0.1])
    here["frozen_profile"]["log_average"] = 0.8
    assert report_diff.moved(base, here, "r") == [
        "r.frozen_profile.log_average: 0.5 -> 0.8 (+2.12 combined stderrs)"]
    a = {"value": 1.0, "stderr": 0.3, "kind": "A"}
    b = {"value": 1.4, "stderr": 0.4, "kind": "A"}
    assert report_diff.moved(a, b, "g") == ["g.value: 1.0 -> 1.4 (+0.80 combined stderrs)",
                                            "g.stderr: 0.3 -> 0.4"]
    # a string sibling that moved names another estimand: no scale
    assert report_diff.moved(a, {**b, "kind": "A_tilde"}, "g")[0] == "g.value: 1.0 -> 1.4"


def test_the_strict_pass_has_an_inconclusive_law(tmp_path):
    # --strict acts on the subcommands that write the verdict, and one law stays
    # Inconclusive, so the strict pass compares exit code 3 and a cut `all`
    assert report_diff.STRICT_SUBCOMMANDS == ("classify", "crosscheck", "all")
    config = report_diff.write_configs(tmp_path)["inconclusive"]
    out = tmp_path / "out"
    assert run(str(config), "classify", outdir=str(out), strict=True, quiet=True) == EXIT_INCONCLUSIVE


# the classify verdict, (regime, vanishing direction), of each harness config
VERDICTS = {name: verdict for names, verdict in (
    (("gw-right-1", "gw-right-2", "two-state-annealed-1", "two-state-annealed-2", "readme-example",
      "tie", "ln-2", "double-root"), ("GlobalSurvivalLocalExtinction", "right")),
    (("two-state-left", "one-state-left"), ("GlobalSurvivalLocalExtinction", "left")),
    (("near-critical", "lyapunov-analytic-1", "lyapunov-analytic-2"), ("GlobalExtinction", "both")),
    (("thin",), ("GlobalExtinction", "right")),
    (("counterexample",), ("GlobalExtinction", "left")),
    (("spectral-near-one", "strong-local", "empty-two-state"), ("StrongLocalSurvival", "none")),
    (("inconclusive",), ("Inconclusive", "right")),
) for name in names}


@pytest.fixture(scope="module")
def harness_configs(tmp_path_factory):
    return report_diff.write_configs(tmp_path_factory.mktemp("configs"))


@pytest.mark.parametrize("name", VERDICTS)
def test_each_harness_config_keeps_its_verdict(harness_configs, name, tmp_path):
    # a config dropped or renamed fails every case, a verdict moved its own
    assert sorted(harness_configs) == sorted(VERDICTS)
    assert run(str(harness_configs[name]), "classify", outdir=str(tmp_path), quiet=True) == EXIT_OK
    regime = json.loads((tmp_path / "report.json").read_text())["regime"]
    assert (regime["regime"], regime["vanishing_direction"]) == VERDICTS[name]


def test_the_benchmark_copies_of_the_laws_match_the_registry():
    # perfbench/workloads.py keeps its own atoms until the benchmark reads tests/laws.py:
    # GW_RIGHT_ATOMS, TWO_STATE_A/B and MIRROR_RIGHT/LEFT, from which it builds each
    # workload's environment
    for workload, name in WORKLOAD_LAWS.items():
        assert report_diff.workloads.WORKLOADS[workload]["environment"] == environment(name), workload
