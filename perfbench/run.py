"""brwre benchmark: `brwre all` end to end on one workload, or a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload gw-right --seed 1 --seconds 55 --trace 0

--trace 0 measures fresh CLI processes, one at a time, with BRWRE_THREADS
unset (the default users get).  For about --seconds it runs rounds of one
`brwre all --quiet` and a few `brwre classify` and `brwre validate`, all
on the config generated from --seed (see `Bench`).  The medians
over rounds are all_s, verdict_s, setup_s (the validate process: start-up,
imports, config parse, standing checks, report write), and the CPU time
and peak RSS of the `all` process.

--trace 1 first runs the same untraced rounds for --seconds, then runs
`cli.run(config, "all")` once in this process with every public brwre
function wrapped by perfbench/tracer.py, and reports the per-layer metrics
listed in BENCHMARK.json.

Every process, and the traced run, is an operation that the correctness
gate checks (see `Gate`).  A summary lists each metric with its unit and
error_rate, the share of operations the gate rejected; the last line of
standard output is one JSON object: correct, attempted, failed and the
metrics.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# The whole run must end well inside 180 s; no child may run past this.
HARD_LIMIT_S = 170.0
# The short processes are noisier than `all`; each round runs several.
SHORT_REPEATS = 3
# gw-right survival must lie within this many of its own stderrs of the
# exact Galton-Watson survival probability.
GW_SIGMAS = 4.0


# ---------------------------------------------------------------------------
# Child processes


@dataclass
class Proc:
    status: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "BRWRE_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(subcommand: str, config: Path, outdir: Path, deadline: float) -> Proc:
    """One `brwre SUBCOMMAND` process: wall time, and CPU and RSS from wait4."""
    cmd = [sys.executable, "-m", "brwre.cli", subcommand, "--config", str(config),
           "--out", str(outdir), "--quiet"]
    done: dict = {}

    def reap(pid):
        _, status, usage = os.wait4(pid, 0)
        done["end"] = time.perf_counter()
        done["status"], done["usage"] = status, usage

    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL, cwd=ROOT)
    reaper = threading.Thread(target=reap, args=(proc.pid,))
    reaper.start()
    reaper.join(max(0.0, deadline - time.perf_counter()))
    if reaper.is_alive():
        proc.kill()
        reaper.join()
    proc.returncode = os.waitstatus_to_exitcode(done["status"])
    usage = done["usage"]
    return Proc(
        status=proc.returncode,
        wall_s=done["end"] - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    )


# ---------------------------------------------------------------------------
# Correctness gate


def gw_survival(atoms) -> float:
    """1 - smallest fixed point of the offspring-total generating function."""
    totals: dict = {}
    for p, v in atoms:
        totals[sum(v)] = totals.get(sum(v), 0.0) + p
    q = 0.0
    for _ in range(100_000):
        nxt = sum(p * q**k for k, p in totals.items())
        if abs(nxt - q) < 1e-15:
            break
        q = nxt
    return 1.0 - q


# Statistical outputs compared against perfbench/reference.json.  The floor
# stands in for a stderr that is exactly 0: a frequency of 0 out of n trials,
# or an exponent of a constant environment, resolved to O(1/steps).
def _survival_stat(r):
    s = r["survival"]
    return s["global_freq"], s["global_stderr"], 1.0 / s["trials"]


def _gamma1_stat(r):
    g = r["lyapunov"]["gamma1"]
    return g["value"], g["stderr"], 20.0 / g["steps"]


def _log_average_stat(r):
    f = r.get("frozen_profile", {})
    if "log_average" not in f:
        return None
    return f["log_average"], f["log_average_stderr"], 0.0


STATS = {"global_freq": _survival_stat, "gamma1.value": _gamma1_stat,
         "log_average": _log_average_stat}


def statistics_of(report: dict) -> dict:
    """{stat: (value, stderr, floor)} for the stats this report carries."""
    out = {}
    for name, extract in STATS.items():
        got = extract(report)
        if got is not None:
            out[name] = got
    return out


@dataclass
class Op:
    """One checked operation: a CLI process, or the traced in-process run."""

    kind: str  # the subcommand whose report it wrote
    traced: bool = False
    problems: list = field(default_factory=list)
    report: bytes | None = None
    proc: Proc | None = None


class Gate:
    """Decides whether one operation's outputs are correct.

    A `validate` must find the standing conditions met; `classify` and `all`
    must give the workload's regime and direction; `all` must have no
    failing cross-check row, gw-right's survival frequency must match the
    exact Galton-Watson value, and every statistical output must match
    perfbench/reference.json within its `sigmas` times the combined stderr.
    Finally every report of one subcommand must be byte-identical to the
    first.
    """

    def __init__(self, workload: str, reference: dict | None):
        self.workload = workloads.WORKLOADS[workload]
        self.name = workload
        self.reference = reference

    def check(self, op: Op) -> None:
        if op.proc is not None and op.proc.status != 0:
            op.problems.append(f"exit status {op.proc.status}")
        if op.report is None:
            op.problems.append("no report.json")
            return
        try:
            report = json.loads(op.report)
        except json.JSONDecodeError as exc:
            op.problems.append(f"report.json is not JSON: {exc}")
            return
        try:
            self._check_report(op.kind, report, op.problems)
        except (KeyError, TypeError) as exc:
            op.problems.append(f"report.json lacks {exc!r}")

    def _check_report(self, kind, report, problems) -> None:
        if not report["conditions"]["ok"]:
            problems.append("standing conditions failed")
        if kind == "validate":
            return
        got = (report["regime"]["regime"], report["regime"]["vanishing_direction"])
        if got != self.workload["regime"]:
            problems.append(f"regime {got}, expected {self.workload['regime']}")
        if kind != "all":
            return
        failing = [r["identity"] for r in report["crosscheck"] if r["verdict"] == "fail"]
        if failing:
            problems.append(f"cross-check rows fail: {failing}")
        exact = self.workload.get("exact_survival_atoms")
        if exact is not None:
            s = report["survival"]
            target = gw_survival(exact)
            if abs(s["global_freq"] - target) > GW_SIGMAS * s["global_stderr"]:
                problems.append(f"global_freq {s['global_freq']} vs exact {target:.6f}")
        ref = (self.reference or {}).get("workloads", {}).get(self.name)
        if ref is not None:
            sigmas = self.reference["sigmas"]
            for stat, (value, se, floor) in statistics_of(report).items():
                if stat not in ref:
                    problems.append(f"{stat} has no reference value")
                    continue
                r = ref[stat]
                tol = sigmas * math.hypot(se, r["stderr"]) + floor
                if abs(value - r["value"]) > tol:
                    problems.append(f"{stat} {value} vs reference {r['value']} (tol {tol:.3g})")

    @staticmethod
    def check_repeats(ops: list) -> None:
        """Every report must equal the first one of its subcommand."""
        first: dict = {}
        for op in ops:
            if op.report is None:
                continue
            want = first.setdefault(op.kind, op.report)
            if op.report != want:
                op.problems.append("report.json differs from the first repeat")


# ---------------------------------------------------------------------------
# The two kinds of run


def machine() -> dict:
    def cache(index):
        path = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
        try:
            return path.read_text().strip()
        except OSError:
            return None

    import numpy
    cli = importlib.import_module("brwre.cli")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "worker_count": cli.worker_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "l2": cache(2),
        "l3": cache(3),
    }


class Bench:
    """The operations of one run, all on the config generated from its seed.

    Rounds repeat the same config, so every report of a subcommand must be
    byte-identical to the first, and the medians over rounds average out
    the machine's noise, not differences between inputs.
    """

    def __init__(self, workload: str, seed: int, work: Path, reference: dict | None,
                 scale: int | None = None):
        self.work = work
        self.config = work / "config.json"
        workloads.write_config(self.config, workload, seed, scale)
        self.gate = Gate(workload, reference)
        self.ops: list[Op] = []
        self.deadline = time.perf_counter() + HARD_LIMIT_S

    def op(self, kind: str) -> Op:
        outdir = self.work / f"{kind}-{len(self.ops)}"
        op = Op(kind)
        op.proc = run_cli(kind, self.config, outdir, self.deadline)
        path = outdir / "report.json"
        if path.is_file():
            op.report = path.read_bytes()
        shutil.rmtree(outdir, ignore_errors=True)
        self.gate.check(op)
        self.ops.append(op)
        return op

    def rounds(self, seconds: float) -> dict:
        """Rounds of one `all` and SHORT_REPEATS each of `classify` and
        `validate` for about `seconds` (at least two rounds, so that every
        run compares repeats); returns the processes of each subcommand."""
        start = time.perf_counter()
        done: dict = {"all": [], "classify": [], "validate": []}
        while time.perf_counter() < self.deadline:
            done["all"].append(self.op("all").proc)
            for _ in range(SHORT_REPEATS):
                done["classify"].append(self.op("classify").proc)
                done["validate"].append(self.op("validate").proc)
            n = len(done["all"])
            if n >= 2 and (time.perf_counter() - start) * (n + 1) / n > seconds:
                break
        return done

    def end_to_end(self, seconds: float) -> tuple[dict, dict]:
        self.op("validate")  # compiles bytecode; gated, not timed
        procs = self.rounds(seconds)
        Gate.check_repeats(self.ops)
        return {
            "all_s": median(p.wall_s for p in procs["all"]),
            "verdict_s": median(p.wall_s for p in procs["classify"]),
            "setup_s": median(p.wall_s for p in procs["validate"]),
            "cpu_s": median(p.cpu_s for p in procs["all"]),
            "peak_rss_mb": median(p.peak_rss_mb for p in procs["all"]),
        }, {kind: len(p) for kind, p in procs.items()}

    def traced(self, seconds: float, layer_names: list) -> tuple[dict, dict]:
        """Untraced rounds for `seconds`, then one traced run in this process."""
        from tracer import Tracer

        self.op("validate")
        procs = self.rounds(seconds)
        all_s = median(p.wall_s for p in procs["all"])

        cli = importlib.import_module("brwre.cli")
        before = module_snapshot()
        tracer = Tracer()
        outdir = self.work / "traced"
        op = Op("all", traced=True)
        with tracer.installed():
            status = cli.run(str(self.config), "all", outdir=str(outdir), quiet=True)
        path = outdir / "report.json"
        op.report = path.read_bytes() if path.is_file() else None
        self.gate.check(op)
        if status != 0:
            op.problems.append(f"cli.run returned {status}")
        if module_snapshot() != before:
            op.problems.append("tracer left brwre module attributes changed")
        self.ops.append(op)
        Gate.check_repeats(self.ops)
        samples = {kind: len(p) for kind, p in procs.items()}
        return layer_metrics(tracer, all_s, layer_names), {**samples, "traced": 1}


def module_snapshot() -> dict:
    """id of every attribute of every brwre module, to spot leftover patches."""
    return {
        name: {k: id(v) for k, v in vars(mod).items()}
        for name, mod in sys.modules.items()
        if name == "brwre" or name.startswith("brwre.")
    }


DERIVED = {
    "us_per_generation": ("generations", 1e6),
    "ns_per_site": ("sites", 1e9),
    "ns_per_matrix": ("matrices", 1e9),
}


def layer_metrics(tracer, all_s: float, names: list) -> dict:
    """Values of the named per-layer metrics from one traced run."""
    table = tracer.table()
    out = {}
    for name in names:
        if name == "cli.recomputed_calls":
            value = tracer.recomputed_calls
        elif name == "cli.recomputed_s":
            value = tracer.recomputed_s
        elif name == "trace_overhead":
            value = table["cli.run"]["s"] / all_s
        else:
            span, kind = name.rsplit(".", 1)
            row = table.get(span, {})
            if kind in DERIVED:
                counter, per = DERIVED[kind]
                value = row["s"] * per / row[counter] if row.get(counter) else 0.0
            else:
                value = row.get(kind, 0)
        out[name] = value
    return out


def median(values) -> float:
    return statistics.median(list(values))


# ---------------------------------------------------------------------------


def nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=nonnegative, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "brwre" / "cli.py").is_file():
        print(f"perfbench: no brwre sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else None

    os.environ.pop("BRWRE_THREADS", None)
    sys.path.insert(0, str(SRC))
    import brwre
    if Path(brwre.__file__).resolve().parent != SRC / "brwre":
        print(f"perfbench: imported brwre from {brwre.__file__}, not {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        bench = Bench(args.workload, args.seed, work, reference)
        if args.trace:
            metric_specs = spec["per_layer"]
            values, samples = bench.traced(args.seconds, [m["name"] for m in metric_specs])
        else:
            metric_specs = spec["end_to_end"]
            values, samples = bench.end_to_end(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(bench.ops)
    failed = sum(bool(op.problems) for op in bench.ops)
    for i, op in enumerate(bench.ops):
        for problem in op.problems:
            what = f"{op.kind}{' traced' if op.traced else ''}"
            print(f"FAILED op {i} ({what}): {problem}", file=sys.stderr)

    print(f"workload {args.workload} seed {args.seed} samples {samples}")
    print(f"machine {json.dumps(machine())}")
    metrics = {}
    for m in metric_specs:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<52} {values[m['name']]:>14.6g} {m['unit']}")
    print(f"  {'error_rate':<52} {failed / attempted:>14.6g} ratio ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
