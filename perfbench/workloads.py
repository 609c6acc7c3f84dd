"""The benchmark's workloads: one brwre experiment config each.

A workload config is a function of its seed alone, and the CLI sees only
the generated JSON file.  Sizes start from the canonical configs, and
simulate.trials and lyapunov.steps are divided by one scale factor per
workload so that `brwre all` fits several times into a run.  Each factor
keeps the layer named in the workload's `why` the dominant one.

frozen.trials_per_level stays at its default of 10000.  The frozen profile
batches its trials, so they cost little, while a smaller count biases the
log of each level mean by O(1/trials) and makes the 3-sigma frozen rows of
the cross-check fail on some seeds.
"""
from __future__ import annotations

import json

GW_RIGHT_ATOMS = [(0.6, (2, 0, 0)), (0.05, (0, 0, 1)), (0.35, (0, 0, 0))]
TWO_STATE_A = [(0.7, (2, 0, 0)), (0.05, (0, 0, 1)), (0.25, (0, 0, 0))]
TWO_STATE_B = [(0.45, (2, 0, 0)), (0.08, (0, 0, 1)), (0.47, (0, 0, 0))]
MIRROR_RIGHT = [(0.3, (2, 0, 0)), (0.15, (0, 0, 1)), (0.55, (0, 0, 0))]
MIRROR_LEFT = [(0.15, (1, 0, 0)), (0.3, (0, 0, 2)), (0.55, (0, 0, 0))]

# config minimums enforced by brwre.cli.load_config
MIN_TRIALS = 100
MIN_STEPS = 1000


def _states(*weighted_atoms):
    return {"states": [
        {"weight": w, "atoms": [{"p": p, "v": list(v)} for p, v in atoms]}
        for w, atoms in weighted_atoms
    ]}


WORKLOADS = {
    "gw-right": {
        "why": "README GW law (GlobalSurvivalLocalExtinction, right): Monte Carlo dominates, "
               "single state so environment hashing short-circuits; every cross-check row runs",
        "regime": ("GlobalSurvivalLocalExtinction", "right"),
        "scale": 5,
        "exact_survival_atoms": GW_RIGHT_ATOMS,
        "environment": _states((1.0, GW_RIGHT_ATOMS)),
        "sizes": {"trials": 10_000, "steps": 100_000},
        "extra": {},
    },
    "two-state-annealed": {
        "why": "two-state law in annealed mode: same regime but environment hashing is busy, "
               "per-state multinomial split and a fresh environment seed per trial",
        "regime": ("GlobalSurvivalLocalExtinction", "right"),
        "scale": 20,
        "environment": _states((0.5, TWO_STATE_A), (0.5, TWO_STATE_B)),
        "sizes": {"trials": 10_000, "steps": 100_000},
        "extra": {"simulate": {"mode": "annealed"}},
        "dropped": "not in BENCHMARK.json: its work depends on the quenched environment "
                   "(in-process all time: IQR 27% of the median over 8 seeds) and its frozen "
                   "cross-check rows fail on about 2% of seeds (frozen_log_mean z-score sd "
                   "1.27 over 30 seeds)",
    },
    "lyapunov-analytic": {
        "why": "closed-form GlobalExtinction: Monte Carlo is idle, Lyapunov products dominate "
               "and the spectral sweep reaches 1025-site windows",
        "regime": ("GlobalExtinction", "both"),
        "scale": 4,
        "environment": _states((0.5, MIRROR_RIGHT), (0.5, MIRROR_LEFT)),
        "sizes": {"trials": 100, "steps": 1_000_000},
        "extra": {"spectral": {"n_values": [2**k for k in range(10)]}},
    },
}


def config(name: str, seed: int, scale: int | None = None) -> dict:
    """The experiment config of workload `name` at `seed`.

    `scale` defaults to the workload's benchmark factor; a larger one gives
    the tiny runs of the self-checks.
    """
    w = WORKLOADS[name]
    f = w["scale"] if scale is None else scale
    sizes = w["sizes"]
    cfg = {
        "environment": w["environment"],
        "seed": seed,
        "lyapunov": {"steps": max(MIN_STEPS, sizes["steps"] // f)},
        "simulate": {"trials": max(MIN_TRIALS, sizes["trials"] // f)},
    }
    for section, values in w["extra"].items():
        cfg[section] = {**cfg.get(section, {}), **values}
    return cfg


def write_config(path, name: str, seed: int, scale: int | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(config(name, seed, scale), fh, indent=1)
