"""Pipeline benchmark: runs one workload through `equimetric.cli.main` in
this process, checks every config's outputs against `refs.json`, and
prints the metrics, the last line being one JSON object.

Usage:
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads are listed in `workloads.py`. The loop is closed and single
threaded: one config runs after the previous one returns, `workers` stays 1.
Within `--seconds`, a run makes one warm-up pass (checked, not timed) and
then repeats whole passes over the workload's configs while the next pass
is expected to end in time.

--trace 0 reports the end-to-end metrics:
  run_norm_p50  median over passes of pass seconds (sum of per-config wall
                times) divided by the seconds of the fixed work in
                `reference.py`, timed just before and after that pass
  setup_s       median seconds to `import equimetric.cli` in a fresh process
  peak_rss_mb   peak resident memory of this process
and prints, with sample counts, the wall-clock `run_s_p50`, `failed_frac`
and, where a run holds at least ten configs beyond its 90th percentile,
`config_s_p90`.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (see `spans.py`) plus `trace.overhead_frac`.
Spans and results go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import bench
import reference
import spans
import workloads

_IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import equimetric.cli; "
    "print(repr(time.perf_counter() - t))"
)


def import_seconds() -> float:
    """Seconds to import `equimetric.cli` in a fresh interpreter."""
    src = str(bench.ROOT / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_TIMER], cwd=bench.ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def git_commit() -> str:
    git = bench.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import equimetric
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": equimetric.BACKEND,
        "EQUIMETRIC_BACKEND": os.environ.get("EQUIMETRIC_BACKEND"),
        "commit": git_commit(),
    }


def timed_pass(cli, items, refs, tracer=None) -> dict:
    """One pass with the reference work timed just before and after it."""
    before = reference.reference_seconds()
    res = bench.run_pass(cli, items, refs, tracer)
    res["ref_seconds"] = (before + reference.reference_seconds()) / 2
    res["norm"] = res["seconds"] / res["ref_seconds"]
    return res


def measure(cli, items, refs, seconds: float, traced: bool) -> dict:
    """Everything within `seconds`: a warm-up pass, then passes while the
    next is expected to fit. With `traced`, passes alternate untraced and
    traced; without, a fresh-interpreter import is timed after each pass,
    so set-up samples spread over the run like the passes do."""
    start = time.perf_counter()
    tracer = spans.Tracer() if traced else None
    if not traced:
        import_seconds()  # not counted: fills the file cache
    warm = bench.run_pass(cli, items, refs)
    plain, marked, layer, counts, setup, walls = [], [], [], [], [], []
    failed, attempted = list(warm["failed"]), len(items)
    while True:
        t0 = time.perf_counter()
        if traced and len(plain) > len(marked):
            first = len(tracer.spans)
            with tracer.installed(cli):
                res = timed_pass(cli, items, refs, tracer)
            marked.append(res)
            layer.append(spans.self_times(tracer.spans, first))
            counts.append(spans.pass_counts(res["counts"]))
        else:
            res = timed_pass(cli, items, refs)
            plain.append(res)
        if not traced:
            setup.append(import_seconds())
        walls.append(time.perf_counter() - t0)
        failed += res["failed"]
        attempted += len(items)
        done = plain and (marked or not traced)
        if done and time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    return {"plain": plain, "traced": marked, "layer": layer, "counts": counts, "setup": setup,
            "warm_seconds": warm["seconds"], "failed": failed, "attempted": attempted,
            "tracer": tracer}


def end_to_end(m: dict) -> tuple:
    """Gated metrics, and the ones printed beside them."""
    n = len(m["plain"])
    per_config = [s for p in m["plain"] for s in p["config_seconds"]]
    metrics = {
        "run_norm_p50": (statistics.median(p["norm"] for p in m["plain"]), "ref", f"{n} passes"),
        "setup_s": (statistics.median(m["setup"]), "s", f"{len(m['setup'])} fresh imports"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "1 process"),
    }
    extra = {
        "run_s_p50": (statistics.median(p["seconds"] for p in m["plain"]), "s", f"{n} passes"),
        "ref_s_p50": (statistics.median(p["ref_seconds"] for p in m["plain"]), "s", f"{n} passes"),
        "failed_frac": (len(m["failed"]) / m["attempted"], "ratio",
                        f"{len(m['failed'])}/{m['attempted']} configs"),
    }
    if len(per_config) >= 100:  # ten samples beyond the 90th percentile
        extra["config_s_p90"] = (statistics.quantiles(per_config, n=10)[-1], "s",
                                 f"{len(per_config)} configs")
    return metrics, extra


def per_layer(m: dict) -> dict:
    metrics = {}
    for name in spans.TIME_METRICS:
        metrics[name] = (statistics.median(p[name] for p in m["layer"]), "s",
                         f"{len(m['layer'])} traced passes")
    first = m["counts"][0]
    if any(c != first for c in m["counts"]):
        raise RuntimeError("per-layer counts differ between passes of one run")
    for name, unit in spans.COUNT_METRICS.items():
        metrics[name] = (first[name], unit, "per pass")
    plain = statistics.median(p["norm"] for p in m["plain"])
    traced = statistics.median(p["norm"] for p in m["traced"])
    metrics["trace.overhead_frac"] = ((traced - plain) / plain, "ratio",
                                      f"{len(m['traced'])} traced vs {len(m['plain'])} untraced passes")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    try:
        cli = bench.import_cli()
        refs = bench.load_refs()
    except (ImportError, OSError, ValueError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    cfgs = workloads.configs(args.workload, args.seed)
    items = bench.prepare(cfgs)
    unknown = [cid for cid, _, _ in items if cid not in refs]
    if unknown:
        print(f"error: no reference for {unknown[0]}; see record_refs.py", file=sys.stderr)
        return 2

    env = environment()
    m = measure(cli, items, refs, args.seconds, bool(args.trace))
    if args.trace:
        metrics, extra = per_layer(m), {}
    else:
        metrics, extra = end_to_end(m)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "env": env,
        "configs": [cid for cid, _, _ in items],
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in {**metrics, **extra}.items()},
        "warm_pass_seconds": m["warm_seconds"],
        "passes": [{k: p[k] for k in ("seconds", "ref_seconds", "norm")} for p in m["plain"]],
        "traced_passes": [{k: p[k] for k in ("seconds", "ref_seconds", "norm")} for p in m["traced"]],
        "failed": m["failed"], "attempted": m["attempted"],
    }
    with open(bench.OUT / f"result-{tag}.json", "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)
    if args.trace:
        with open(bench.OUT / f"spans-{tag}.json", "w", encoding="utf-8") as f:
            json.dump({"env": env, "spans": m["tracer"].records(), "counts": m["counts"]}, f)

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(items)} configs")
    for cid, why in m["failed"]:
        print(f"FAILED {cid}: {'; '.join(why)}")
    for name, (value, unit, n) in {**metrics, **extra}.items():
        print(f"{name} {value:.6g} {unit} (n={n})")
    print(json.dumps({
        "correct": not m["failed"],
        "attempted": m["attempted"],
        "failed": len(m["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
