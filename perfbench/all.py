"""Run every workload untraced and print its end-to-end metrics, each with
its unit and sample count, including `failed_frac` and small-sweep's
`config_s_p90`.

Usage: python3 perfbench/all.py [--seed N] [--seconds S]

Each workload runs in its own process, so `peak_rss_mb` is per workload.
`--seconds` defaults to `run_seconds` in BENCHMARK.json. Exits 1 if any
workload's outputs differ from their references.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import bench
import workloads


def main() -> int:
    with open(bench.ROOT / "BENCHMARK.json", "r", encoding="utf-8") as f:
        default_seconds = json.load(f)["run_seconds"]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=default_seconds)
    args = p.parse_args()

    ok = True
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(bench.HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 2
        ok = ok and json.loads(lines[-1])["correct"]
        for line in lines[:-1]:
            print(f"{name:16} {line}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
