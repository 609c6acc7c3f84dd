"""The named laws of the tests and of tools/report_diff.py's harness, each written once.

A law is a tuple of (weight, atoms) states, an atom a (p, (v_minus, v_zero, v_plus))
pair, and the comment above each law says why it is here.  `environment(name)` reads
a law as a config's `environment` object, `law(name)` as an EnvironmentLaw, and
`write_config` writes a config at the harness sizes.  `readme_block` reads a fenced
block of README.md.  The module imports no numpy, so the harness configs can be
written where it is missing.
"""
import json
import pathlib
import re

from brwre.envmodel import EnvironmentLaw, law_from_atoms

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _mirrored(atoms):
    return [(p, v[::-1]) for p, v in atoms]


def _split(mu_minus, mu_plus):
    """mu_minus on two left children, mu_plus on one right child, the rest on none."""
    return [(mu_minus / 2, (2, 0, 0)), (mu_plus, (0, 0, 1)),
            (1.0 - mu_minus / 2 - mu_plus, (0, 0, 0))]


README = [(0.6, (2, 0, 0)), (0.05, (0, 0, 1)), (0.35, (0, 0, 0))]
TREBLE = [(0.5, (1, 1, 1)), (0.5, (0, 0, 0))]
TWO_STATE = ((0.5, [(0.7, (2, 0, 0)), (0.05, (0, 0, 1)), (0.25, (0, 0, 0))]),
             (0.5, [(0.45, (2, 0, 0)), (0.08, (0, 0, 1)), (0.47, (0, 0, 0))]))

LAWS = {
    # the README example and gw-right's law: one state on the right-vanishing branch
    "readme": ((1.0, README),),
    # the README law reflected: one state on the left-vanishing branch
    "one-state-left": ((1.0, _mirrored(README)),),
    # two states on the right-vanishing branch: the exponent is a word sum
    "two-state": TWO_STATE,
    # the two-state law reflected: the left-vanishing branch
    "two-state-left": tuple((w, _mirrored(atoms)) for w, atoms in TWO_STATE),
    # a state and its reflection, lyapunov-analytic's law: 1 is feasible, GlobalExtinction
    "both": ((0.5, [(0.3, (2, 0, 0)), (0.15, (0, 0, 1)), (0.55, (0, 0, 0))]),
             (0.5, [(0.15, (1, 0, 0)), (0.3, (0, 0, 2)), (0.55, (0, 0, 0))])),
    # an empty feasible set on one state: StrongLocalSurvival, no exponent needed
    "strong-local": ((1.0, TREBLE),),
    # no atom places a child to the right: the conditions fail, exit code 2
    "no-right": ((1.0, [(0.7, (1, 0, 0)), (0.3, (0, 2, 0))]),),
    # 1 is feasible within the membership tolerance although the lower root exceeds 1 + tol
    "near-critical": ((1.0, [(0.35 + 2.5e-10, (2, 0, 0)), (0.3, (0, 0, 1)),
                             (0.35 - 2.5e-10, (0, 0, 0))]),),
    # a double root 1/0.7 whose discriminant rounds to -2.2e-16: a point feasible set
    "double-root": ((1.0, [(0.35714285714285715, (2, 0, 0)), (0.35, (0, 0, 1)),
                           (0.2928571428571428, (0, 0, 0))]),),
    # intervals touching at one lambda whose computed ends cross by 4.4e-16: the tie is kept
    "tie": ((0.5, [(0.22876745398945247, (2, 0, 0)), (0.15567852502198387, (0, 0, 1)),
                   (0.45807180434299477, (0, 1, 0)), (0.15748221664556894, (0, 0, 0))]),
            (0.5, [(0.365148052060621, (2, 0, 0)), (0.10784449955877619, (0, 0, 1)),
                   (0.4221005981018707, (0, 1, 0)), (0.10490685027873214, (0, 0, 0))])),
    # rho_inf = 1.001, but the window roots 1.001 cos(pi / (2N + 2)) reach 1 only at N = 35
    "spectral-near-one": ((1.0, [(0.25025, (2, 0, 0)), (0.25025, (0, 0, 2)),
                                 (0.4995, (0, 0, 0))]),),
    # feasible set [1.065, 1.374], too thin for the word-sum budget: the capped table decides
    "thin": ((0.5, [(0.25, (2, 0, 0)), (0.45, (0, 0, 1)), (0.3, (0, 0, 0))]),
             (0.5, [(0.3, (2, 0, 0)), (0.41, (0, 0, 1)), (0.29, (0, 0, 0))])),
    # intervals [1.2, 2] and [2, 5] meet at 2, a tight point whose exponent is exactly ln 2
    "ln-2": ((0.8, [(0.375, (2, 0, 0)), (0.3125, (0, 0, 1)), (0.3125, (0, 0, 0))]),
             (0.2, [(5 / 7, (2, 0, 0)), (1 / 7, (0, 0, 1)), (1 / 7, (0, 0, 0))])),
    # left branch: the budget's bracket straddles 0, the capped table's gives GlobalExtinction
    "counterexample": ((0.3125, _split(0.43571702493221925, 0.5257654722257137)),
                       (0.6875, _split(0.4189126966337339, 0.5965838110025534))),
    # the README and strong-local states share no feasible lambda: StrongLocalSurvival
    "empty-two-state": ((0.5, README), (0.5, TREBLE)),
}

# the laws perfbench/workloads.py keeps its own copies of, by workload;
# tests/test_report_diff.py pins the copies to these
WORKLOAD_LAWS = {"gw-right": "readme", "two-state-annealed": "two-state", "lyapunov-analytic": "both"}

# the sizes the harness runs each law at, and write_config's
SIZES = {"seed": 7, "lyapunov": {"steps": 5000, "replicas": 4},
         "spectral": {"n_values": [1, 2, 4]},
         "simulate": {"trials": 200, "horizon": 60, "cap": 100_000},
         "frozen": {"levels": 4, "trials_per_level": 500}}


def environment(name: str) -> dict:
    """Law `name` as a config's `environment` object."""
    return {"states": [{"weight": w, "atoms": [{"p": p, "v": list(v)} for p, v in atoms]}
                       for w, atoms in LAWS[name]]}


def law(name: str) -> EnvironmentLaw:
    """Law `name` as an EnvironmentLaw."""
    return EnvironmentLaw([(w, law_from_atoms(atoms)) for w, atoms in LAWS[name]])


def write_config(tmp_path, name="config.json", **overrides) -> str:
    """A config file in `tmp_path`: the README law at the harness sizes, with an explicit
    spectral.tol, simulate.mode and thresholds; each override replaces a whole section."""
    cfg = {"environment": environment("readme"), **SIZES,
           "spectral": {**SIZES["spectral"], "tol": 1e-10},
           "simulate": {**SIZES["simulate"], "mode": "quenched"},
           "thresholds": {"sigma_margin": 3.0}}
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def readme_block(heading: str, lang: str) -> str:
    """The first ```lang block after the line `heading` in README.md."""
    readme = (ROOT / "README.md").read_text()
    return re.search(rf"```{lang}\n(.*?)```", readme[readme.index(heading):], re.S).group(1)
