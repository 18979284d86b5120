"""Per-stage wall time of the general-mode pipeline on the ROADMAP Baseline
matrices, printed as a markdown table.

Each stage is one library call, timed with `time.perf_counter`, in the order
`equimetric.cli.run_pipeline` makes them (discrete group metric, scale 1).
With --repeat k every scenario runs k times and each cell is the median.
Nothing is written to disk.

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
    "100": [("circle", {"n": 96, "k": 4}), ("disk", {"g": 11}), ("reflection", {"m": 50, "h": 1.0}),
            ("dihedral", {"n": 24}), ("shift", {"m": 80, "h": 0.25, "N": 3})],
    "400": [("circle", {"n": 384, "k": 4}), ("reflection", {"m": 200, "h": 1.0}), ("disk", {"g": 21}),
            ("shift", {"m": 160, "h": 0.25, "N": 3}), ("dihedral", {"n": 64})],
}
STAGES = ("scenario", "quotient", "slices", "slice checks", "orbital", "orbital checks",
          "graph", "lift", "lift checks", "balls", "pushforward")


def stage_times(name: str, params: dict) -> tuple:
    """(n, |G|, seconds per stage) for one general-mode run."""
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
    d_O = timed("orbital", eq.build_orbital_metric, gs, quotient, family, d_G)
    timed("orbital checks", eq.verify_orbital_properties, gs, quotient, family, d_O, d_G)
    graph = timed("graph", eq.build_allowability_graph, gs, quotient, family=family, d_O=d_O)
    lifted = timed("lift", eq.lift_metric, graph)
    region = None
    if name == "shift":
        region = shift_acceptance_region(params["m"], params["h"], params["N"])
    timed("lift checks", eq.verify_lifted_metric, gs, quotient, lifted, region=region)
    timed("balls", eq.verify_ball_inclusions, gs, quotient, family, d_G, d_O, lifted)
    timed("pushforward", eq.quotient_consistency, gs, quotient, lifted)
    return gs.n_points, gs.group.order, times


def label(name: str, params: dict) -> str:
    return f"{name}({', '.join(str(v) for v in params.values())})"


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
        for name, params in MATRICES[size]:
            runs = [stage_times(name, params) for _ in range(args.repeat)]
            n, order = runs[0][0], runs[0][1]
            cells = [statistics.median(r[2][s] for r in runs) for s in STAGES]
            total = statistics.median(sum(r[2].values()) for r in runs)
            print(f"| {label(name, params)} | {n} | {order} | {total:.2f} | "
                  + " | ".join(f"{c:.3f}" for c in cells) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
