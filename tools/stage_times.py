"""Per-stage wall time of the pipeline on the ROADMAP Baseline matrices,
printed as a markdown table.

Each stage is one library call, timed with `time.perf_counter`, in the order
`equimetric.cli.run_pipeline` makes them (discrete group metric, scale 1).
Rows run in general mode unless their label ends in "cover". A cover row
builds no orbital metric and runs neither the orbital checks nor the ball
inclusions ("-" in those cells), and its graph stage is the cover small
sets plus their edges. With --repeat k every scenario runs k times and each
cell is the median. Nothing is written to disk.

Usage (from the repository root):
  PYTHONPATH=src python3 tools/stage_times.py [--size 100|400|all] [--repeat k]
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import equimetric as eq
from equimetric.scenarios import shift_acceptance_region

MATRICES = {
    "100": [("circle", {"n": 96, "k": 4}, "general"), ("disk", {"g": 11}, "general"),
            ("reflection", {"m": 50, "h": 1.0}, "general"), ("dihedral", {"n": 24}, "general"),
            ("shift", {"m": 80, "h": 0.25, "N": 3}, "general"),
            ("circle", {"n": 96, "k": 4}, "cover"), ("disk", {"g": 11}, "cover")],
    "400": [("circle", {"n": 384, "k": 4}, "general"), ("reflection", {"m": 200, "h": 1.0}, "general"),
            ("disk", {"g": 21}, "general"), ("shift", {"m": 160, "h": 0.25, "N": 3}, "general"),
            ("dihedral", {"n": 64}, "general"),
            ("circle", {"n": 384, "k": 4}, "cover"), ("disk", {"g": 21}, "cover")],
}
STAGES = ("scenario", "quotient", "slices", "slice checks", "orbital", "orbital checks",
          "graph", "lift", "lift checks", "balls", "pushforward")


def stage_times(name: str, params: dict, mode: str = "general") -> tuple:
    """(n, |G|, seconds per stage) for one run in mode "general" or "cover";
    the stages a mode does not run are left out."""
    times = {}
    clock = time.perf_counter

    def timed(stage, fn, *args, **kwargs):
        t = clock()
        out = fn(*args, **kwargs)
        times[stage] = times.get(stage, 0.0) + clock() - t
        return out

    gs = timed("scenario", eq.generate_scenario, name, params)
    orbits = timed("quotient", eq.compute_orbits, gs)
    quotient = timed("quotient", eq.quotient_metric, gs, orbits)
    family = timed("slices", eq.build_slice_family, gs, quotient)
    timed("slice checks", eq.verify_slice_family, gs, quotient, family)
    d_G = timed("orbital", eq.group_metric, gs.group, "discrete", scale=1.0)
    d_O = None
    if mode == "general":
        d_O = timed("orbital", eq.build_orbital_metric, gs, quotient, family, d_G)
        timed("orbital checks", eq.verify_orbital_properties, gs, quotient, family, d_O, d_G)
    graph = timed("graph", eq.build_allowability_graph, gs, quotient, family=family, d_O=d_O, mode=mode)
    lifted = timed("lift", eq.lift_metric, graph)
    region = None
    if name == "shift":
        region = shift_acceptance_region(params["m"], params["h"], params["N"])
    timed("lift checks", eq.verify_lifted_metric, gs, quotient, lifted, region=region)
    if mode == "general":
        timed("balls", eq.verify_ball_inclusions, gs, quotient, family, d_G, d_O, lifted)
    timed("pushforward", eq.quotient_consistency, gs, quotient, lifted)
    return gs.n_points, gs.group.order, times


def label(name: str, params: dict, mode: str) -> str:
    return f"{name}({', '.join(str(v) for v in params.values())})" + (" cover" if mode == "cover" else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=["100", "400", "all"], default="all")
    parser.add_argument("--repeat", type=int, default=1, help="runs per scenario; cells are medians")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    sizes = ["100", "400"] if args.size == "all" else [args.size]

    print("| scenario | n | \\|G\\| | total | " + " | ".join(STAGES) + " |")
    print("|---" * (4 + len(STAGES)) + "|")
    for size in sizes:
        for name, params, mode in MATRICES[size]:
            runs = [stage_times(name, params, mode) for _ in range(args.repeat)]
            n, order = runs[0][0], runs[0][1]
            cells = [f"{statistics.median(r[2][s] for r in runs):.3f}" if s in runs[0][2] else "-"
                     for s in STAGES]
            total = statistics.median(sum(r[2].values()) for r in runs)
            print(f"| {label(name, params, mode)} | {n} | {order} | {total:.2f} | "
                  + " | ".join(cells) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
