"""Running configs through the real CLI path and checking their outputs.

Each config goes through `equimetric.cli.main(["run", "--config", <cfg>,
"--out", <dir>])` in this process. Its outcome is its exit code, the sha256
of `rho.csv`, `quotient.csv` and `slices.txt`, and the set of check names
whose status is `fail` in `report.txt`. The bytes of `report.txt` are not
compared: its witness lists and advisory lines are expected to change
without changing what fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFS = HERE / "refs.json"
DIGESTED = ("rho.csv", "quotient.csv", "slices.txt")


def import_cli():
    """Import `equimetric.cli` from this checkout's `src/`, never from
    anywhere else on the path."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import equimetric.cli as cli

    if Path(cli.__file__).resolve().parent.parent != src:
        raise ImportError(f"equimetric imported from {cli.__file__}, not from {src}")
    return cli


def prepare(cfgs, workdir: Path = OUT) -> list:
    """Write each config to its own file; returns (id, config path, output dir)."""
    (workdir / "cfg").mkdir(parents=True, exist_ok=True)
    items = []
    for cfg in cfgs:
        cid = workloads.config_id(cfg)
        path = workdir / "cfg" / f"{cid}.json"
        path.write_text(json.dumps(cfg, sort_keys=True) + "\n", encoding="utf-8")
        items.append((cid, str(path), str(workdir / "run" / cid)))
    return items


def run_config(cli, cfg_path: str, out_dir: str, tracer=None, cid=None):
    """Run one config; returns (wall seconds, exit code or None if it raised)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    sink = io.StringIO()
    argv = ["run", "--config", cfg_path, "--out", out_dir]
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.config(cid):
                    code = cli.main(argv)
    except Exception:  # a raising config is a failed config, not a crashed benchmark
        traceback.print_exc()
    return time.perf_counter() - start, code


def _sha256(path: str):
    try:
        with open(path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()
    except FileNotFoundError:
        return None


def _fail_names(path: str) -> list:
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except FileNotFoundError:
        return []
    fields = (line.split("\t") for line in lines if not line.startswith("#"))
    return sorted(f[0] for f in fields if len(f) > 1 and f[1] == "fail")


def outcome(out_dir: str, code) -> dict:
    return {
        "exit": code,
        "sha256": {name: _sha256(os.path.join(out_dir, name)) for name in DIGESTED},
        "fails": _fail_names(os.path.join(out_dir, "report.txt")),
    }


def mismatches(got: dict, ref) -> list:
    """Why an outcome differs from its reference; empty when it matches."""
    if ref is None:
        return ["no reference"]
    if got["exit"] is None:
        return ["cli.main raised"]
    out = []
    if got["exit"] != ref["exit"]:
        out.append(f"exit {got['exit']} != {ref['exit']}")
    for name in DIGESTED:
        if got["sha256"][name] != ref["sha256"][name]:
            out.append(f"{name} differs")
    if got["fails"] != ref["fails"]:
        out.append(f"failing checks {got['fails']} != {ref['fails']}")
    return out


def load_refs() -> dict:
    with open(REFS, "r", encoding="utf-8") as f:
        return json.load(f)


def run_pass(cli, items, refs: dict, tracer=None) -> dict:
    """One pass over a workload's configs. Pass seconds are the sum of the
    per-config wall times; checking outputs happens outside them."""
    times, failed, counts = [], [], Counter()
    for cid, cfg_path, out_dir in items:
        seconds, code = run_config(cli, cfg_path, out_dir, tracer, cid)
        times.append(seconds)
        why = mismatches(outcome(out_dir, code), refs.get(cid))
        if why:
            failed.append((cid, why))
        if tracer is not None:
            counts.update(spans.config_counts(tracer.results, out_dir))
    return {"seconds": sum(times), "config_seconds": times, "failed": failed, "counts": counts}
