"""Workload definitions: the fixed configs of the three large workloads and
the grid that `small-sweep` draws from.

A config is a plain dict in the shape `equimetric run --config` reads. Its
id names every field the config sets, so one id always
means one config and `refs.json` can be keyed by it.

Sizes are chosen so that one pass over a large workload takes a few
seconds on a 2-core host: a run then holds several passes, and the
reported median is steady against host noise. The stage that dominates
each workload at these sizes is the one that dominates at the ROADMAP
Baseline sizes (measured stage shares agree to within a few points).
"""

from __future__ import annotations

import random

# Parameter order per scenario, as `equimetric.scenarios` lists them.
PARAMS = {
    "circle": ("n", "k"),
    "reflection": ("m", "h"),
    "dihedral": ("n",),
    "disk": ("g",),
    "shift": ("m", "h", "N"),
}

MODES = ("general", "cover", "naive")

# Discrete group-metric scales: the variants inside one small-sweep cell.
# They change the orbital metric's values, not the sizes, so every variant
# of a cell costs about the same and the seed's choice moves the pass time
# little.
SCALES = (0.5, 1.0, 2.0)


def config(name: str, params: dict, mode: str, scale: float = 1.0) -> dict:
    return {
        "scenario": {"name": name, "params": dict(params)},
        "mode": mode,
        "group_metric": {"kind": "discrete", "scale": scale},
    }


def config_id(cfg: dict) -> str:
    sc = cfg["scenario"]
    parts = [sc["name"]] + [f"{k}{sc['params'][k]:g}" for k in PARAMS[sc["name"]]]
    parts.append(cfg["mode"])
    parts.append(f"s{cfg['group_metric']['scale']:g}")
    return "-".join(parts)


# Fixed inputs of the three large workloads.
FIXED = {
    # The only partial action (n=81, |G|=13): ball inclusions, lifted-metric
    # checks and scenario validation dominate; slices and orbital idle.
    "shift-general": [config("shift", {"m": 40, "h": 0.25, "N": 3}, "general")],
    # Orbital checks dominate: many |G|=2 orbits, then one orbit under
    # |G|=64 (coset loops, group-metric left-invariance check).
    "orbital-general": [
        config("reflection", {"m": 25, "h": 1.0}, "general"),
        config("dihedral", {"n": 32}, "general"),
    ],
    # Slice construction and cover small sets dominate; no orbital metric
    # and no ball inclusions run in cover mode.
    "circle-cover": [config("circle", {"n": 80, "k": 4}, "cover")],
}

# Small-sweep cells: (scenario, params). Every cell runs in every mode, and
# each (cell, mode) pair has one variant per scale.
_CELLS = (
    [("circle", {"n": n, "k": k}) for n, k in
     ((6, 2), (8, 4), (9, 3), (12, 3), (12, 4), (16, 4), (18, 6), (20, 4))]
    + [("reflection", {"m": m, "h": 1.0}) for m in (2, 3, 4, 5, 6, 8, 10, 12)]
    + [("dihedral", {"n": n}) for n in (3, 4, 5, 6, 7, 8, 10, 12)]
    + [("disk", {"g": g}) for g in (3, 5, 7)]
    + [("shift", {"m": m, "h": h, "N": N}) for m, h, N in
       ((4, 1.0, 1), (5, 0.5, 1), (6, 1.0, 2), (8, 0.5, 2), (8, 0.25, 1),
        (10, 1.0, 3), (12, 0.5, 2), (12, 0.25, 2))]
)

GRID_CELLS = tuple((name, params, mode) for name, params in _CELLS for mode in MODES)


def grid() -> list:
    """Every config small-sweep can draw."""
    return [config(name, params, mode, s) for name, params, mode in GRID_CELLS for s in SCALES]


def small_sweep(seed: int) -> list:
    """One variant per cell, chosen by the seed, in an order set by the seed."""
    rng = random.Random(seed)
    cfgs = [config(name, params, mode, rng.choice(SCALES)) for name, params, mode in GRID_CELLS]
    rng.shuffle(cfgs)
    return cfgs


WORKLOADS = ("shift-general", "orbital-general", "circle-cover", "small-sweep")


def configs(workload: str, seed: int) -> list:
    if workload == "small-sweep":
        return small_sweep(seed)
    return FIXED[workload]


def all_configs() -> list:
    """Every config any workload can run, for recording references."""
    return [c for cfgs in FIXED.values() for c in cfgs] + grid()
