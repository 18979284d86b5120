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
--size 800 runs circle(768, 4), disk(29), shift(320, 0.25, 3) (n = 641,
the only partial action at that size) and circle(768, 4) cover, --size
1600 circle(1536, 4) and disk(41); "all" runs the 100 and 400 matrices
only, and "bench" every matrix, in order.

The host's speed drifts, so rows of different sessions compare only after
normalising: perfbench's fixed reference work (`perfbench/reference.py`)
is timed just before and just after each row, and the "norm" column is
the row's total divided by the mean of those two times (unit "ref", as
perfbench's `run_norm_p50`).

With --json PATH the rows run are also recorded in PATH (the repository
keeps `BENCH_pipeline.json`): the whole matrix, and per row n, |G|, the
median, min and max over the repeats of each stage, of the total and of
the normalised total (`total_norm`), the two reference times (`ref_s`), the
repeat count, the Python and numpy versions, the core count, the commit
(`git rev-parse HEAD`), whether tracked files differ from it (`dirty`),
and a hash of the timed `src/` tree (`src_sha256`). Rows already in PATH
that this run did not make are kept, so one file holds the runs of
several --size values.
Nothing else is written to disk. The committed file is regenerated whole,
every row with its normalised total, by
  PYTHONPATH=src python3 tools/stage_times.py --size bench --repeat 3 --json BENCH_pipeline.json

Usage (from the repository root):
  PYTHONPATH=src python3 tools/stage_times.py [--size 100|400|800|1600|all|bench] [--repeat k] [--json PATH]
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)  # for perfbench; the library comes from PYTHONPATH

from equimetric import cli  # noqa: E402
from perfbench.reference import reference_seconds  # noqa: E402
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
    "800": [("circle", {"n": 768, "k": 4}, "general"), ("disk", {"g": 29}, "general"),
            ("shift", {"m": 320, "h": 0.25, "N": 3}, "general"), ("circle", {"n": 768, "k": 4}, "cover")],
    # the n~1600 rows, left out of "all" as well: each takes over ten seconds
    "1600": [("circle", {"n": 1536, "k": 4}, "general"), ("disk", {"g": 41}, "general")],
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


def spread(values) -> dict:
    """Median, min and max of a row's seconds, to the microsecond."""
    values = list(values)
    return {k: round(v, 6) for k, v in
            (("median", statistics.median(values)), ("min", min(values)), ("max", max(values)))}


def src_sha256(src: str) -> str:
    """sha256 over the sorted paths, relative to src, of src/**/*.py, each
    path followed by a NUL byte and then by the bytes of its file."""
    h = hashlib.sha256()
    paths = glob.glob("**/*.py", root_dir=src, recursive=True)
    for rel in sorted(p.replace(os.sep, "/") for p in paths):
        h.update(rel.encode() + b"\0")
        with open(os.path.join(src, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def environment() -> dict:
    """The facts a timing depends on: versions, cores, the commit checked
    out and whether tracked files differ from it (both None outside a git
    checkout), and the hash of the source tree the library was imported
    from, which names the code timed even before it is committed."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()

    try:
        commit, dirty = git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.CalledProcessError):
        commit = dirty = None
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return {"python": platform.python_version(), "numpy": np.__version__, "cpus": os.cpu_count(),
            "commit": commit, "dirty": dirty, "src_sha256": src_sha256(src)}


def write_json(path: str, rows: dict) -> None:
    """Merge rows (label -> record) into the file at path: the matrix is
    rewritten whole, each row run replaces its old record, and a recorded
    row that left the matrix is dropped."""
    old = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            old = json.load(f)["rows"]
    old.update(rows)
    labels = [label(*row) for size in MATRICES for row in MATRICES[size]]
    out = {"matrix": MATRICES, "rows": {k: old[k] for k in labels if k in old}}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1)
        f.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=[*MATRICES, "all", "bench"], default="all",
                        help="matrix to run; all is 100 and 400, bench every matrix")
    parser.add_argument("--repeat", type=int, default=1, help="runs per scenario; cells are medians")
    parser.add_argument("--json", metavar="PATH", help="also record the rows run in PATH")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    sizes = {"all": ["100", "400"], "bench": list(MATRICES)}.get(args.size, [args.size])

    print("| scenario | n | \\|G\\| | total | norm | " + " | ".join(TIME_METRICS) + " |")
    print("|---" * (5 + len(TIME_METRICS)) + "|")
    env = environment() if args.json else {}
    records = {}
    for size in sizes:
        for name, params, mode in MATRICES[size]:
            before = reference_seconds()
            runs = [stage_times(name, params, mode) for _ in range(args.repeat)]
            ref = (before, reference_seconds())
            totals = [sum(r[2].values()) for r in runs]
            norms = [t / statistics.mean(ref) for t in totals]
            n, order = runs[0][0], runs[0][1]
            cells = [f"{statistics.median(r[2][m] for r in runs):.3f}" if m in runs[0][2] else "-"
                     for m in TIME_METRICS]
            print(f"| {label(name, params, mode)} | {n} | {order} | {statistics.median(totals):.2f} | "
                  f"{statistics.median(norms):.2f} | "
                  + " | ".join(cells) + " |", flush=True)
            records[label(name, params, mode)] = {
                "size": size, "n": n, "group_order": order, "repeat": args.repeat, **env,
                "total_s": spread(totals), "total_norm": spread(norms), "ref_s": [round(t, 6) for t in ref],
                "stages": {m: spread(r[2][m] for r in runs) for m in TIME_METRICS if m in runs[0][2]}}
    if args.json:
        write_json(args.json, records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
