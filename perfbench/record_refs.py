"""Record the reference outcome of every config any workload can run.

Usage: python3 perfbench/record_refs.py

Run it only at a commit whose outputs are the accepted ones; measured runs
read `refs.json` and never write it. A config that raises or exits 1 (an
input error) is refused, because a workload must hold no failing operation.
"""

from __future__ import annotations

import json
import sys

import bench
import workloads


def main() -> int:
    cli = bench.import_cli()
    items = bench.prepare(workloads.all_configs())
    refs = {}
    for cid, cfg_path, out_dir in items:
        seconds, code = bench.run_config(cli, cfg_path, out_dir)
        if code not in (0, 2, 3):
            print(f"{cid}: exit {code}; fix the workload grid", file=sys.stderr)
            return 1
        refs[cid] = bench.outcome(out_dir, code)
        print(f"{cid}\texit={code}\t{seconds:.3f}s", flush=True)
    with open(bench.REFS, "w", encoding="utf-8") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(refs)} references to {bench.REFS.relative_to(bench.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
