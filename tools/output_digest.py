"""Digest of every output the CLI gives on a fixed set of configs.

Runs each config of `perfbench.workloads.all_configs()`, plus a few larger
and extra-scale ones, through `equimetric.cli.main(["run", ...])` in this
process, and writes one JSON object keyed by config id: the exit code,
stdout, stderr, the sha256 of rho.csv, quotient.csv, slices.txt and
report.txt (null for a file that was not written), the status of each
check in report.txt as {name: status} (null without a report), so a diff of
two digests names the checks that changed, and the per-layer counters of
`perfbench.spans.config_counts` (edges by kind, small sets, slice sizes,
grid sizes, witnesses), read from a traced run, which the files can hide.
Two trees give the same outputs when their digests are equal.

Usage (from the repository root; PYTHONPATH picks the library under test):
  PYTHONPATH=src python3 tools/output_digest.py OUT.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)  # for perfbench; the library comes from PYTHONPATH

from equimetric import cli  # noqa: E402
from perfbench.spans import Tracer, config_counts  # noqa: E402
from perfbench.workloads import all_configs, config, config_id  # noqa: E402

FILES = ("rho.csv", "quotient.csv", "slices.txt", "report.txt")

EXTRA = (
    [config(name, params, mode) for name, params in
     (("circle", {"n": 96, "k": 4}), ("disk", {"g": 11})) for mode in ("general", "cover")]
    + [config(name, params, "general") for name, params in
       (("reflection", {"m": 50, "h": 1.0}), ("dihedral", {"n": 24}), ("dihedral", {"n": 64}),
        ("shift", {"m": 80, "h": 0.25, "N": 3}), ("shift", {"m": 40, "h": 0.25, "N": 6}))]
    + [config("circle", {"n": 12, "k": 3}, "general", scale=3.0)]
    # the cheapest cover configs whose convexity rounds outgrow one block,
    # so their orbit sets are refuted by diameter rows first
    + [config("circle", params, "cover") for params in ({"n": 160, "k": 4}, {"n": 120, "k": 2})]
)


def digest(cfg: dict) -> dict:
    """Run one config in the current (scratch) directory. Output files are
    removed once hashed, so a config that writes none is not credited with
    the files of the one before."""
    with open("cfg.json", "w", encoding="utf-8") as f:
        json.dump(cfg, f)
    out, err = io.StringIO(), io.StringIO()
    tracer = Tracer()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), tracer.installed(cli):
        code = cli.main(["run", "--config", "cfg.json", "--out", "out"])
    counts = dict(config_counts(tracer.results, "out"))
    files = {}
    checks = None
    for name in FILES:
        path = os.path.join("out", name)
        files[name] = None
        if os.path.exists(path):
            with open(path, "rb") as f:
                data = f.read()
            files[name] = hashlib.sha256(data).hexdigest()
            if name == "report.txt":  # NAME<TAB>STATUS<TAB>..., then a "# pass=.." line
                rows = [line.split("\t") for line in data.decode("utf-8").splitlines()]
                checks = {row[0]: row[1] for row in rows if not row[0].startswith("#")}
            os.remove(path)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files,
            "checks": checks, "counts": counts}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 1
    target = os.path.abspath(argv[0])
    result = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative paths keep any message that names them equal
        try:
            for cfg in all_configs() + EXTRA:
                result[config_id(cfg)] = digest(cfg)
        finally:
            os.chdir(cwd)
    with open(target, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"{len(result)} configs -> {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
