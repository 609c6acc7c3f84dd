"""tools/report_diff.py's field comparison: which moves get a scale in stderrs."""
import importlib.util
import pathlib

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
