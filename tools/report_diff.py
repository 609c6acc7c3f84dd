"""Compare the outputs of two brwre trees, run by run.

    python tools/report_diff.py --base REV

Checks REV out into a temporary git worktree, removed afterwards, and runs
every subcommand with `--format both` there and in this working tree, each
as a fresh `python -m brwre.cli` process.  The configs are the perfbench
workloads at seeds 1 and 2 (scale 50), the README's example config, and
one law on each classifier branch the workloads miss (`BRANCH_LAWS`), so
that every branch of the classifier is run, the README law mirrored (a
one-state left branch), a law with 1 feasible only within the membership
tolerance, and two laws whose feasible set is a point that rounding would
lose: a one-state double root and a tie between two states' intervals.

For each run it prints whether the exit code, stdout (with the output
directory normalized), stderr, report.json and each CSV match; a file
matches byte for byte or by value.  By value, floats compare by
`float.hex`, and an int equal to a float counts as equal.  It lists the
fields that moved, and exits 1 on any difference but a byte difference
between value-identical files.  Cross-check rows are matched by their
identity, so a row that only one side has is one line; a moved field with
a sibling stderr (`value` and `stderr`, `x_freq` or `x` and `x_stderr`),
and a moved element of a list with a sibling list of stderrs (`x_means`
and `x_stderrs`), also gives its move in combined stderrs of the two
sides, unless a string sibling such as `matrix_kind` moved with it.
`--base HEAD` on a clean tree checks that every output is
byte-reproducible across processes.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import workloads  # noqa: E402
from brwre.cli import SUBCOMMANDS  # noqa: E402

SEEDS = (1, 2)
SCALE = 50
SHOWN = 10  # moved fields listed per file


def _mirrored(atoms):
    return [(p, v[::-1]) for p, v in atoms]


# the left-vanishing and strong-local-survival branches, the one-state left
# branch, and the near-critical law and point feasible sets of
# tests/test_cli.py (NEAR_CRITICAL_ENV, DOUBLE_ROOT_ENV, TIE_ENV), as
# (weight, atoms) states, run at the sizes of tests/test_cli.py's write_config
BRANCH_LAWS = {
    "two-state-left": ((0.5, _mirrored(workloads.TWO_STATE_A)),
                       (0.5, _mirrored(workloads.TWO_STATE_B))),
    "one-state-left": ((1.0, _mirrored(workloads.GW_RIGHT_ATOMS)),),
    "near-critical": ((1.0, [(0.35 + 2.5e-10, (2, 0, 0)), (0.3, (0, 0, 1)),
                             (0.35 - 2.5e-10, (0, 0, 0))]),),
    "strong-local": ((1.0, [(0.5, (1, 1, 1)), (0.5, (0, 0, 0))]),),
    "double-root": ((1.0, [(0.35714285714285715, (2, 0, 0)), (0.35, (0, 0, 1)),
                           (0.2928571428571428, (0, 0, 0))]),),
    "tie": ((0.5, [(0.22876745398945247, (2, 0, 0)), (0.15567852502198387, (0, 0, 1)),
                   (0.45807180434299477, (0, 1, 0)), (0.15748221664556894, (0, 0, 0))]),
            (0.5, [(0.365148052060621, (2, 0, 0)), (0.10784449955877619, (0, 0, 1)),
                   (0.4221005981018707, (0, 1, 0)), (0.10490685027873214, (0, 0, 0))])),
}
BRANCH_SIZES = {
    "seed": 7, "lyapunov": {"steps": 5000, "replicas": 4}, "spectral": {"n_values": [1, 2, 4]},
    "simulate": {"trials": 200, "horizon": 60, "cap": 100_000},
    "frozen": {"levels": 4, "trials_per_level": 500},
}


def write_configs(directory: Path) -> dict[str, Path]:
    """The compared configs by name, written into `directory`."""
    configs = {}
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            path = directory / f"{name}-{seed}.json"
            workloads.write_config(path, name, seed, scale=SCALE)
            configs[path.stem] = path
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```json\n(.*?)```", readme[readme.index("Example config:"):], re.S)
    configs["readme-example"] = directory / "readme-example.json"
    configs["readme-example"].write_text(block.group(1))
    for name, states in BRANCH_LAWS.items():
        configs[name] = directory / f"{name}.json"
        configs[name].write_text(json.dumps({"environment": workloads._states(*states),
                                             **BRANCH_SIZES}))
    return configs


def run(tree: Path, subcommand: str, config: Path, out: Path) -> dict:
    """One CLI process of `tree`: its exit code, normalized output and files."""
    proc = subprocess.run(
        [sys.executable, "-m", "brwre.cli", subcommand, "--config", str(config),
         "--out", str(out), "--format", "both"],
        capture_output=True, text=True, cwd=out.parent,
        env={**os.environ, "PYTHONPATH": str(tree / "src")},
    )
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return {"exit code": proc.returncode, "stdout": proc.stdout.replace(str(out), "<out>"),
            "stderr": proc.stderr, "files": files}


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse(name: str, blob: bytes):
    """A report as its JSON value, a CSV as its rows of numbers and strings."""
    text = blob.decode()
    if name.endswith(".json"):
        return json.loads(text)
    return [[_cell(c) for c in row] for row in csv.reader(io.StringIO(text))]


def _same(a, b) -> bool:
    """Floats by float.hex, an int equal to a float counting as equal; the rest by type and value."""
    if {type(a), type(b)} in ({float}, {int, float}):
        return float(a).hex() == float(b).hex()
    return type(a) is type(b) and a == b


def _rows(items: list) -> dict | None:
    """A list of cross-check rows as {identity: row}, or None for any other list."""
    if items and all(isinstance(r, dict) and "identity" in r for r in items):
        return {r["identity"]: r for r in items}
    return None


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _stderr_key(key: str) -> str:
    """The sibling holding key's stderr: `value` -> `stderr`, `x_means` ->
    `x_stderrs`, `x_freq` or `x` -> `x_stderr`."""
    if key == "value":
        return "stderr"
    if key.endswith("_means"):
        return key.removesuffix("_means") + "_stderrs"
    return key.removesuffix("_freq") + "_stderr"


def _in_stderrs(x, y, se_x, se_y) -> str:
    """' (z combined stderrs)' for a moved number x -> y with numeric stderrs, else ''."""
    if not all(_is_number(v) for v in (x, y, se_x, se_y)):
        return ""
    combined = math.hypot(se_x, se_y)
    return f" ({(y - x) / combined:+.2f} combined stderrs)" if combined else " (stderr 0)"


def _entries(a: dict, b: dict, key: str, path: str) -> list[tuple]:
    """(path, base, here, base stderr, here stderr) of the field key; a list with a
    sibling list of stderrs, all four of one length, gives one entry per element."""
    se = _stderr_key(key)
    x, y, se_x, se_y = a[key], b[key], a.get(se), b.get(se)
    lists = (x, y, se_x, se_y)
    if all(isinstance(v, list) for v in lists) and len({len(v) for v in lists}) == 1:
        return [(f"{path}[{i}]", *e) for i, e in enumerate(zip(*lists))]
    return [(path, *lists)]


def moved(a, b, path: str) -> list[str]:
    """The fields at which two parsed documents differ, as 'path: base -> here'."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = [] if list(a) == list(b) else [f"{path}: keys {list(a)} -> {list(b)}"]
        # a string sibling that moved (a matrix kind, a mode) names another
        # estimand, so no move in the dict gets a scale
        scaled = not any(isinstance(v, str) and b.get(k) != v for k, v in a.items())
        for k in a:
            entries = _entries(a, b, k, f"{path}.{k}") if k in b else []
            for where, x, y, se_x, se_y in entries:
                fields = moved(x, y, where)
                if fields and scaled:
                    fields[0] += _in_stderrs(x, y, se_x, se_y)
                out += fields
        return out
    if isinstance(a, list) and isinstance(b, list):
        rows_a, rows_b = _rows(a), _rows(b)
        if rows_a is not None and rows_b is not None:
            out = [f"{path}: row {k} only in base" for k in rows_a if k not in rows_b]
            out += [f"{path}: row {k} only in here" for k in rows_b if k not in rows_a]
            order_a, order_b = [k for k in rows_a if k in rows_b], [k for k in rows_b if k in rows_a]
            if order_a != order_b:
                out.append(f"{path}: row order {order_a} -> {order_b}")
            return out + [m for k in order_a for m in moved(rows_a[k], rows_b[k], f"{path}[{k}]")]
        out = [] if len(a) == len(b) else [f"{path}: length {len(a)} -> {len(b)}"]
        return out + [m for i, (x, y) in enumerate(zip(a, b)) for m in moved(x, y, f"{path}[{i}]")]
    return [] if _same(a, b) else [f"{path}: {a!r} -> {b!r}"]


def compare(base: dict, here: dict) -> tuple[list[str], list[str]]:
    """Per-item verdicts of one run, and the differences that count against it."""
    verdicts, diffs = [], []
    for item in ("exit code", "stdout", "stderr"):
        same = base[item] == here[item]
        verdicts.append(f"{item} {'same' if same else 'DIFFERS'}")
        if not same:
            diffs.append(f"{item}: {base[item]!r} -> {here[item]!r}")
    for name in sorted(base["files"].keys() | here["files"].keys()):
        if name not in base["files"] or name not in here["files"]:
            verdicts.append(f"{name} MISSING")
            diffs.append(f"{name}: only in {'here' if name in here['files'] else 'base'}")
            continue
        a, b = base["files"][name], here["files"][name]
        fields = [] if a == b else moved(parse(name, a), parse(name, b), name)
        verdicts.append(f"{name} {'bytes' if a == b else 'DIFFERS' if fields else 'values'}")
        diffs += fields[:SHOWN] + ([f"{name}: ... {len(fields) - SHOWN} more"]
                                   if len(fields) > SHOWN else [])
    return verdicts, diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    tmp = Path(tempfile.mkdtemp(prefix="report_diff-"))
    base_tree = tmp / "base"
    try:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(base_tree), args.base], check=True)
        (tmp / "configs").mkdir()
        configs = write_configs(tmp / "configs")
        counts = {"bytes": 0, "values": 0, "differ": 0}
        for cname, config in configs.items():
            for sub in SUBCOMMANDS:
                verdicts, diffs = compare(*(
                    run(tree, sub, config, tmp / f"{cname}-{sub}-{side}")
                    for side, tree in (("base", base_tree), ("here", ROOT))))
                counts["differ" if diffs else "values" if any(
                    v.endswith(" values") for v in verdicts) else "bytes"] += 1
                print(f"{cname} {sub}: {', '.join(verdicts)}")
                for d in diffs:
                    print(f"    {d}")
        print(f"{sum(counts.values())} runs against {args.base}: {counts['bytes']} byte-identical, "
              f"{counts['values']} value-identical, {counts['differ']} differ")
        return 1 if counts["differ"] else 0
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(base_tree)],
                       capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
