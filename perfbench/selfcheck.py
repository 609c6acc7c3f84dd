"""Self-checks of the benchmark itself.

    python3 -m pytest -q perfbench/selfcheck.py

They run tiny versions of every workload through the correctness gate,
compare the tracer's counters with direct calls, and check that the
tracer leaves brwre's modules as it found them.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))
from brwre import envmodel, lyapunov, simulator, spectral  # noqa: E402
from brwre.envmodel import EnvironmentLaw, law_from_atoms  # noqa: E402

# Divides the canonical sizes far below the benchmark's factors; the
# config minimums (100 trials, 1000 steps) then take over.
TINY = 1000

TWO_STATE = EnvironmentLaw([(0.5, law_from_atoms(workloads.TWO_STATE_A)),
                            (0.5, law_from_atoms(workloads.TWO_STATE_B))])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_passes_gate(name, tmp_path):
    bench = run.Bench(name, 3, tmp_path, reference=None, scale=TINY)
    for kind in ("validate", "classify", "all", "all"):
        bench.op(kind)
    run.Gate.check_repeats(bench.ops)
    assert [op.problems for op in bench.ops] == [[]] * 4


def test_gate_rejects_wrong_outputs(tmp_path):
    bench = run.Bench("gw-right", 3, tmp_path, reference=None, scale=TINY)
    op = bench.op("all")
    report = json.loads(op.report)
    report["regime"]["vanishing_direction"] = "left"
    report["survival"]["global_freq"] = 0.9
    report["crosscheck"][0]["verdict"] = "fail"
    bad = run.Op("all", report=json.dumps(report).encode())
    bench.gate.check(bad)
    assert len(bad.problems) == 3
    run.Gate.check_repeats([op, bad])
    assert bad.problems[-1] == "report.json differs from the first repeat"


def test_union_length():
    assert tracer.union_length([0.0, 1.0, 5.0], [2.0, 3.0, 6.0]) == 4.0
    assert tracer.union_length([0.0, 0.5], [4.0, 1.0]) == 4.0


def test_counters_match_direct_calls():
    kwargs = dict(trials=200, horizon=60, mode="annealed", env_seed=5, seed=6, n_workers=2)
    direct = simulator.survival_probabilities(TWO_STATE, **kwargs)
    direct_gamma = lyapunov.top_lyapunov(TWO_STATE, "A", steps=2000, replicas=8, n_workers=2)
    t = tracer.Tracer()
    with t.installed():
        traced = simulator.survival_probabilities(TWO_STATE, **kwargs)
        gamma = lyapunov.top_lyapunov(TWO_STATE, "A", steps=2000, replicas=8, n_workers=2)
        spectral.rho_sweep(TWO_STATE, 5, [1, 2, 4])
    table = t.table()
    assert traced == direct and gamma == direct_gamma
    surv = table["simulator.survival_probabilities"]
    assert surv["generations"] == sum(o.end_time for o in direct.outcomes)
    assert surv["censored"] == sum(o.status == simulator.CAP_REACHED for o in direct.outcomes)
    assert table["lyapunov.top_lyapunov"]["matrices"] == 2000 * 8
    assert table["spectral.spectral_radius"]["rows"] == 3 + 5 + 9
    # every state_indices call comes from a trial step or a window
    assert table["envmodel.state_indices"]["sites"] > surv["generations"]
    for name, row in table.items():
        assert -1e-9 <= row["self_s"] <= row["s"] + 1e-9, name
    # run_trial ran on two workers: summed child time may exceed the parent's
    # span, but self time subtracts their union, not their sum
    assert surv["self_s"] < 0.5 * surv["s"]


def test_recomputation_counts_outermost_repeat_only():
    t = tracer.Tracer()
    with t.installed():
        from brwre import criteria
        for _ in range(2):
            criteria.classify_environment(TWO_STATE, seed=1, steps=1000, replicas=4)
        lyapunov.top_lyapunov(TWO_STATE, "A", steps=1000, replicas=4, seed=1)
    # second classify repeats (its inner top_lyapunov is not counted again);
    # the direct call repeats the first classify's inner call
    assert t.recomputed_calls == 2
    assert t.recomputed_s > 0.0


def test_wrappers_restore_module_attributes():
    before = run.module_snapshot()
    original = envmodel.state_indices
    with pytest.raises(RuntimeError):
        with tracer.Tracer().installed():
            assert simulator.state_indices is envmodel.state_indices
            assert envmodel.state_indices is not original
            raise RuntimeError("leave the block early")
    assert envmodel.state_indices is original
    assert run.module_snapshot() == before


def test_benchmark_metrics_name_wrapped_spans():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    t = tracer.Tracer()
    with t.installed():
        wrapped = {f.__module__.rsplit(".", 1)[1] + "." + f.__name__
                   for m in tracer.MODULES for f in vars(sys.modules[f"brwre.{m}"]).values()
                   if hasattr(f, "__wrapped__")}
    special = {"cli.recomputed_calls", "cli.recomputed_s", "trace_overhead"}
    for metric in spec["per_layer"]:
        if metric["name"] not in special:
            assert metric["name"].rsplit(".", 1)[0] in wrapped, metric["name"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "gw-right", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
