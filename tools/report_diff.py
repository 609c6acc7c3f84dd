"""Compare the outputs of two brwre trees, run by run.

    python tools/report_diff.py --base REV

Checks REV out into a temporary git worktree, removed afterwards, and runs
every subcommand with `--format both` there and in this working tree, each
as a fresh `python -m brwre.cli` process.  The configs are the perfbench
workloads at seeds 1 and 2 (scale 50), the README's example config, and
the named laws of tests/laws.py in `BRANCH_LAWS`, at `SIZES` there: one on
each classifier branch the workloads miss, and the exponent's other paths;
each law's reason is written with it.  The subcommands that write the
verdict run a second time with `--strict` (`STRICT_SUBCOMMANDS`), which
changes their exit code, and the sections that `all` writes, on an
Inconclusive verdict; `inconclusive`, the two-state law at
`thresholds.sigma_margin` = 1e18, is one.

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

    python tools/report_diff.py --laws FILE [--tree DIR]

instead runs `all` on each law of tests/laws.py at the harness seed and the
config defaults, the sizes users run, with the brwre of DIR (default: this
tree), and writes FILE, a markdown table of
its verdict, its survival estimates and, for each cross-check row, the row's
verdict and lhs.  Each estimate sits beside the exact value of the event it
estimates on the run's environment, from this tree's brwre.exact, and its
distance z from it in its own stderrs.  The table holds no times, so it is
byte-reproducible; tools/laws_at_defaults.md is this tree's.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]
import workloads  # noqa: E402
from laws import LAWS, SIZES, environment, readme_block  # noqa: E402
from brwre.cli import CROSSCHECKS, SUBCOMMAND_SECTIONS, SUBCOMMANDS, load_config  # noqa: E402

SEEDS = (1, 2)
SCALE = 50
SHOWN = 10  # moved fields listed per file
# the subcommands that write the verdict, the only ones --strict acts on
STRICT_SUBCOMMANDS = tuple(s for s, sections in SUBCOMMAND_SECTIONS.items() if "regime" in sections)


# the harness's laws by config name: tests/laws.py names each law and its reason
BRANCH_LAWS = {name: name for name in (
    "two-state-left", "one-state-left", "near-critical", "strong-local", "double-root", "tie",
    "spectral-near-one", "thin", "ln-2", "counterexample", "empty-two-state")} | {
    "inconclusive": "two-state"}
# sections that replace tests/laws.py's SIZES for one law.  spectral-near-one has
# rho_inf = 1.001 and classifies StrongLocalSurvival, but its window roots
# 1.001 cos(pi / (2N + 2)) reach 1 only at N = 35, so its spectral_criterion
# row fails at N = 32 (ROADMAP item 2).  inconclusive's sigma margin leaves its
# verdict Inconclusive, so that the --strict runs exit 3
LAW_SIZES = {"spectral-near-one": {"spectral": {"n_values": [1, 2, 4, 8, 16, 32]}},
             "inconclusive": {"thresholds": {"sigma_margin": 1e18}}}


def write_configs(directory: Path) -> dict[str, Path]:
    """The compared configs by name, written into `directory`."""
    configs = {}
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            path = directory / f"{name}-{seed}.json"
            workloads.write_config(path, name, seed, scale=SCALE)
            configs[path.stem] = path
    configs["readme-example"] = directory / "readme-example.json"
    configs["readme-example"].write_text(readme_block("Example config:", "json"))
    for name, law in BRANCH_LAWS.items():
        configs[name] = directory / f"{name}.json"
        configs[name].write_text(json.dumps({"environment": environment(law), **SIZES,
                                             **LAW_SIZES.get(name, {})}))
    return configs


def run(tree: Path, subcommand: str, config: Path, out: Path, *flags: str) -> dict:
    """One CLI process of `tree`: its exit code, normalized output and files."""
    proc = subprocess.run(
        [sys.executable, "-m", "brwre.cli", subcommand, "--config", str(config),
         "--out", str(out), "--format", "both", *flags],
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


def _z(value: float, exact: float, stderr: float, trials: int) -> str:
    """(value - exact) in stderrs, each stderr no smaller than the binomial one at the
    exact value: where an event is rare the trials may see none of the paths that
    carry it, and their spread says nothing."""
    width = max(stderr, math.sqrt(exact * (1.0 - exact) / trials))
    if width > 0.0:
        return f"{(value - exact) / width:+.1f}"
    return "0" if value == exact else "inf"


def law_table(tree: Path, directory: Path) -> str:
    """The --laws table of `tree`'s `all` runs, with their configs and outputs in `directory`."""
    from brwre import exact
    rows = [name for name, _ in CROSSCHECKS]
    lines = ["| law | verdict | global | exact | z | local | exact | z | "
             + " | ".join(rows) + " |", "|" + "---|" * (8 + len(rows))]
    for name in LAWS:
        config = directory / f"{name}.json"
        config.write_text(json.dumps({"environment": environment(name), "seed": SIZES["seed"]}))
        result = run(tree, "all", config, directory / name)
        if result["exit code"]:
            lines.append(f"| {name} | exit {result['exit code']} |" + " |" * (6 + len(rows)))
            continue
        report = json.loads(result["files"]["report.json"])
        regime, survival = report["regime"], report["survival"]
        parsed = load_config(str(config))
        values = exact.origin_values(parsed.environment, report["seeds"]["environment"],
                                     parsed.simulate.horizon)
        cells = [name, f"{regime['regime']} {regime['vanishing_direction']}"]
        for key, value in zip(("global", "local_proxy"), values):
            freq, stderr = survival[f"{key}_freq"], survival[f"{key}_stderr"]
            cells += [f"{freq:.4g} ± {stderr:.2g}", f"{value:.4g}",
                      _z(freq, value, stderr, survival["trials"])]
        by_row = {r["identity"]: r for r in report["crosscheck"]}
        cells += [by_row[r]["verdict"] if by_row[r]["lhs"] is None
                  else f"{by_row[r]['verdict']} {by_row[r]['lhs']:.4g}" for r in rows]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--base", help="git revision to compare against")
    mode.add_argument("--laws", type=Path, help="write the table of the laws at the defaults")
    parser.add_argument("--tree", type=Path, default=ROOT, help="the tree whose brwre --laws runs")
    args = parser.parse_args(argv)
    tmp = Path(tempfile.mkdtemp(prefix="report_diff-"))
    if args.laws:
        try:
            args.laws.write_text(law_table(args.tree.resolve(), tmp))
            return 0
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    base_tree = tmp / "base"
    try:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(base_tree), args.base], check=True)
        (tmp / "configs").mkdir()
        configs = write_configs(tmp / "configs")
        counts = {"bytes": 0, "values": 0, "differ": 0}
        passes = [(sub, ()) for sub in SUBCOMMANDS]
        passes += [(sub, ("--strict",)) for sub in STRICT_SUBCOMMANDS]
        for cname, config in configs.items():
            for sub, flags in passes:
                label = " ".join((sub, *flags))
                verdicts, diffs = compare(*(
                    run(tree, sub, config, tmp / f"{cname}-{sub}{''.join(flags)}-{side}", *flags)
                    for side, tree in (("base", base_tree), ("here", ROOT))))
                counts["differ" if diffs else "values" if any(
                    v.endswith(" values") for v in verdicts) else "bytes"] += 1
                print(f"{cname} {label}: {', '.join(verdicts)}")
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
