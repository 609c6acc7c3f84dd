"""Record the reference outputs and the machine the benchmark was set on.

Run from the repository root, at the commit whose outputs become the
reference:

    python3 perfbench/calibrate.py

For each workload of BENCHMARK.json it runs `brwre all` on the configs
the benchmark generates for seeds 0..SEEDS-1 and writes
perfbench/reference.json: for each statistical output the mean over those
configs and the standard error of that mean.  A later commit
passes the gate when its value on any config lies within `sigmas` times
the combined stderr of this mean.  It also writes perfbench/machine.json,
the machine, versions, commit and workload scale factors of the record.
"""
from __future__ import annotations

import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run
import workloads

SEEDS = 10
SIGMAS = 5.0


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="calibrate-", dir=run.WORK))
    reference = {"sigmas": SIGMAS, "seeds": SEEDS, "workloads": {}}
    try:
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for name in [w["name"] for w in spec["workloads"]]:
            samples: dict = {}
            for seed in range(SEEDS):
                bench = run.Bench(name, seed, work, reference=None)
                op = bench.op("all")
                if op.problems:
                    print(f"{name} seed {seed}: {op.problems}", file=sys.stderr)
                    return 1
                for stat, (value, _, _) in run.statistics_of(json.loads(op.report)).items():
                    samples.setdefault(stat, []).append(value)
            reference["workloads"][name] = {
                stat: {"value": statistics.fmean(v),
                       "stderr": statistics.stdev(v) / math.sqrt(len(v))}
                for stat, v in samples.items()
            }
            print(name, reference["workloads"][name])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True).stdout.strip()
    record = {
        **run.machine(),
        "commit": commit or None,
        "date": time.strftime("%Y-%m-%d"),
        "workloads": {name: {k: w[k] for k in ("scale", "why", "dropped") if k in w}
                      for name, w in workloads.WORKLOADS.items()},
    }
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    (run.REFERENCE.parent / "machine.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
