"""Per-stage wall time of the pipeline on the ROADMAP Baseline matrices,
printed as a markdown table.

Each run is one `equimetric.cli.run_pipeline` call (discrete group metric,
scale 1) under `perfbench.spans.Tracer`, and the columns are the per-layer
time names of `perfbench.spans.TIME_METRICS`: the self time of each stage
call, and `cli.glue_s` for the rest of the call. Rows run in general mode
unless their label ends in "cover". A stage that did not run shows "-": a
cover row builds no orbital metric and runs neither the orbital checks nor
the ball inclusions, and no row writes outputs (`cli.write_s`). With
--repeat k every scenario runs k times and each cell is the median.
--size 800 runs circle(768, 4) and disk(29); "all" runs the 100 and 400
matrices only. Nothing is written to disk.

Usage (from the repository root):
  PYTHONPATH=src python3 tools/stage_times.py [--size 100|400|800|all] [--repeat k]
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)  # for perfbench; the library comes from PYTHONPATH

from equimetric import cli  # noqa: E402
from perfbench.spans import GLUE, STAGES, TIME_METRICS, Tracer, self_times  # noqa: E402
from perfbench.workloads import config  # noqa: E402

MATRICES = {
    "100": [("circle", {"n": 96, "k": 4}, "general"), ("disk", {"g": 11}, "general"),
            ("reflection", {"m": 50, "h": 1.0}, "general"), ("dihedral", {"n": 24}, "general"),
            ("shift", {"m": 80, "h": 0.25, "N": 3}, "general"),
            ("circle", {"n": 96, "k": 4}, "cover"), ("disk", {"g": 11}, "cover")],
    "400": [("circle", {"n": 384, "k": 4}, "general"), ("reflection", {"m": 200, "h": 1.0}, "general"),
            ("disk", {"g": 21}, "general"), ("shift", {"m": 160, "h": 0.25, "N": 3}, "general"),
            ("dihedral", {"n": 64}, "general"),
            ("circle", {"n": 384, "k": 4}, "cover"), ("disk", {"g": 21}, "cover")],
    # the n~800 rows, left out of "all": each takes several seconds
    "800": [("circle", {"n": 768, "k": 4}, "general"), ("disk", {"g": 29}, "general")],
}


def stage_times(name: str, params: dict, mode: str = "general") -> tuple:
    """(n, |G|, seconds per per-layer time name) for one run in mode
    "general" or "cover"; the stages the run did not make are left out."""
    cfg = cli.make_config(config(name, params, mode))
    tracer = Tracer()
    with tracer.installed(cli), tracer.config(label(name, params, mode)):
        result = cli.run_pipeline(cfg)
    ran = {STAGES.get(span[2], GLUE) for span in tracer.spans}
    times = {metric: t for metric, t in self_times(tracer.spans).items() if metric in ran}
    return result["gspace"].n_points, result["gspace"].group.order, times


def label(name: str, params: dict, mode: str) -> str:
    return f"{name}({', '.join(str(v) for v in params.values())})" + (" cover" if mode == "cover" else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=["100", "400", "800", "all"], default="all",
                        help="matrix to run; all is 100 and 400")
    parser.add_argument("--repeat", type=int, default=1, help="runs per scenario; cells are medians")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    sizes = ["100", "400"] if args.size == "all" else [args.size]

    print("| scenario | n | \\|G\\| | total | " + " | ".join(TIME_METRICS) + " |")
    print("|---" * (4 + len(TIME_METRICS)) + "|")
    for size in sizes:
        for name, params, mode in MATRICES[size]:
            runs = [stage_times(name, params, mode) for _ in range(args.repeat)]
            n, order = runs[0][0], runs[0][1]
            cells = [f"{statistics.median(r[2][m] for r in runs):.3f}" if m in runs[0][2] else "-"
                     for m in TIME_METRICS]
            total = statistics.median(sum(r[2].values()) for r in runs)
            print(f"| {label(name, params, mode)} | {n} | {order} | {total:.2f} | "
                  + " | ".join(cells) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
