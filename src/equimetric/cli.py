"""Command-line surface: scenario generation, the full pipeline, and file
output.

Commands
  equimetric run --config cfg.json        full pipeline + output files
  equimetric gen --scenario circle --n 12 --k 3 --out cfg.json
  equimetric verify --config cfg.json --only <check-name>

Exit codes: 0 all pass/fail checks pass; 2 some check fails; 3 the lifted
metric is disconnected; 1 input error (bad config, invalid scenario, or a
construction-time validation failure).

Output files (all floats at 9 significant digits, "inf"/"nan" literals,
rows/columns in point-index order, so identical configs produce
byte-identical files):
  rho.csv       lifted metric table, header row of point labels
  quotient.csv  quotient metric table (header of orbit labels) followed by
                the orbit map (header of point labels, one row of orbit ids)
  slices.txt    slice family, per-orbit radii, and the construction log
  report.txt    every check as NAME<TAB>STATUS<TAB>RESIDUAL<TAB>WITNESS,
                then a "# pass=.. fail=.. advisory=.." summary line
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings

import numpy as np

from .errors import ValidationError
from .lift import build_allowability_graph, lift_metric
from .orbital import build_orbital_metric, group_metric, verify_orbital_properties
from .quotient import compute_orbits, quotient_metric
from .report import ADVISORY, FAIL, Report, fmt9, fmt9_lines
from .scenarios import (
    generate_scenario,
    scenario_names,
    scenario_params,
    shift_acceptance_margin,
    shift_acceptance_region,
)
from .slices import build_slice_family, verify_slice_family
from .verify import quotient_consistency, verify_ball_inclusions, verify_lifted_metric

_TOP_KEYS = {
    "scenario", "mode", "group_metric", "quotient_mode", "quotient_table",
    "shrink_factor", "enlargement_factor", "tolerance", "output_dir", "workers",
}
_GM_KEYS = {"kind", "scale", "generators", "path"}

_DEFAULTS = {
    "mode": "general",
    "group_metric": {"kind": "discrete", "scale": 1.0},
    "quotient_mode": "graph",
    "shrink_factor": 1.0,
    "enlargement_factor": 1.0,
    "tolerance": 1e-9,
    "output_dir": ".",
    "workers": 1,
}


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        return make_config(json.load(f))


def make_config(raw) -> dict:
    """A validated config from its JSON object: the defaults with the given
    fields over them."""
    if not isinstance(raw, dict):
        raise ValidationError("InvalidParams", "config must be a JSON object")
    unknown = sorted(set(raw) - _TOP_KEYS)
    if unknown:
        raise ValidationError("InvalidParams", f"unknown config field {unknown[0]!r}")
    if "scenario" not in raw:
        raise ValidationError("InvalidParams", "config requires a 'scenario' field")
    cfg = dict(_DEFAULTS)
    cfg.update(raw)
    return validate_config(cfg)


def validate_config(cfg: dict) -> dict:
    sc = cfg["scenario"]
    if not isinstance(sc, dict) or set(sc) - {"name", "params"} or "name" not in sc:
        raise ValidationError("InvalidParams", "scenario must be {'name': .., 'params': {..}}")
    cfg["scenario"] = sc = dict(sc)  # the caller's object stays as it was
    sc.setdefault("params", {})
    if cfg["mode"] not in ("general", "cover", "naive"):
        raise ValidationError("InvalidParams", f"unknown mode {cfg['mode']!r}")
    gm = cfg["group_metric"]
    if not isinstance(gm, dict) or set(gm) - _GM_KEYS or "kind" not in gm:
        raise ValidationError("InvalidParams", "group_metric must be an object with a 'kind'")
    scale = gm.get("scale", 1.0)
    if isinstance(scale, bool) or not isinstance(scale, (int, float)):
        raise ValidationError("InvalidParams", "group_metric scale must be a number", scale)
    if gm.get("generators") is not None and not isinstance(gm["generators"], list):
        raise ValidationError("InvalidParams", "group_metric generators must be a list", gm["generators"])
    if gm.get("path") is not None and not isinstance(gm["path"], str):
        raise ValidationError("InvalidParams", "group_metric path must be a string", gm["path"])
    if cfg["quotient_mode"] not in ("graph", "isometric", "explicit"):
        raise ValidationError("InvalidParams", f"unknown quotient mode {cfg['quotient_mode']!r}")
    if cfg["quotient_mode"] == "explicit" and not isinstance(cfg.get("quotient_table"), str):
        raise ValidationError("InvalidParams", "explicit quotient mode requires a 'quotient_table' path")
    if not isinstance(cfg["output_dir"], str):
        raise ValidationError("InvalidParams", "output_dir must be a string", cfg["output_dir"])
    # bool is an int subclass: a JSON true would otherwise read as 1.
    for key in ("shrink_factor", "enlargement_factor", "tolerance"):
        v = cfg[key]
        if isinstance(v, float) and not np.isfinite(v):
            raise ValidationError("NonFinite", f"{key} must be finite", v)
        if isinstance(v, bool) or not isinstance(v, (int, float)) or v <= 0:
            raise ValidationError("InvalidParams", f"{key} must be a positive number")
    # Accepted so existing configs keep working; it has no effect.
    if isinstance(cfg["workers"], bool) or not isinstance(cfg["workers"], int) or cfg["workers"] < 1:
        raise ValidationError("InvalidParams", "workers must be a positive integer")
    return cfg


def _load_table(path: str) -> np.ndarray:
    """The table in a CSV file; text that is not rows of numbers of equal
    length is rejected as InvalidParams, with the path as witness. An empty
    file is an empty table, which the metric check rejects by its shape;
    numpy's warning that it holds no data is silenced."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="loadtxt: input contained no data", category=UserWarning)
            return np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError:
        raise ValidationError("InvalidParams", "table file must hold rows of numbers of equal length", path) from None


def run_pipeline(cfg: dict) -> dict:
    """Run the full construction. Returns a result dict with the combined
    report, all intermediate objects, and the exit code."""
    tol = float(cfg["tolerance"])
    mode = cfg["mode"]
    sc = cfg["scenario"]

    gspace = generate_scenario(sc["name"], sc["params"])
    orbits = compute_orbits(gspace)
    qtable = _load_table(cfg["quotient_table"]) if cfg["quotient_mode"] == "explicit" else None
    quotient = quotient_metric(gspace, orbits, mode=cfg["quotient_mode"],
                               table=qtable, tol=tol)

    family = build_slice_family(gspace, quotient, shrink_factor=float(cfg["shrink_factor"]))

    report = Report()
    report.extend(verify_slice_family(gspace, quotient, family))

    gm = cfg["group_metric"]
    d_G = group_metric(
        gspace.group,
        kind=gm["kind"],
        scale=float(gm.get("scale", 1.0)),
        generators=gm.get("generators"),
        table=_load_table(gm["path"]) if gm.get("path") else None,
        tol=tol,
    )

    d_O = None
    if mode == "general":
        d_O = build_orbital_metric(gspace, quotient, family, d_G)
        report.extend(verify_orbital_properties(gspace, quotient, family, d_O, d_G))

    graph = build_allowability_graph(
        gspace, quotient, family=family, d_O=d_O, mode=mode,
        enlargement_factor=float(cfg["enlargement_factor"]), tol=tol,
    )
    lifted = lift_metric(graph, tol=tol)

    region = None
    if sc["name"] == "shift":
        region = shift_acceptance_region(
            int(sc["params"]["m"]), float(sc["params"]["h"]), int(sc["params"]["N"])
        )
    report.extend(verify_lifted_metric(gspace, quotient, lifted, tol=tol, region=region))
    if mode == "general":
        report.extend(verify_ball_inclusions(gspace, quotient, family, d_G, d_O, lifted))
    report.extend(quotient_consistency(gspace, quotient, lifted, tol=tol))

    if sc["name"] == "shift":
        margin = shift_acceptance_margin(float(sc["params"]["h"]), int(sc["params"]["N"]))
        report.add("shift_acceptance_region", ADVISORY,
                   [(f"checks near the boundary (within {fmt9(margin)}) reflect truncation",)])

    if not lifted.connected:
        code = 3
    elif not report.all_pass:
        code = 2
    else:
        code = 0

    return {
        "gspace": gspace, "quotient": quotient, "family": family,
        "group_metric": d_G, "orbital": d_O, "lifted": lifted,
        "report": report, "exit_code": code,
    }


def _labels(gspace):
    labels = gspace.space.labels
    if labels is None:
        labels = tuple(str(i) for i in range(gspace.n_points))
    return labels


def write_outputs(cfg: dict, result: dict) -> None:
    out = cfg["output_dir"]
    os.makedirs(out, exist_ok=True)
    gspace, quotient = result["gspace"], result["quotient"]
    labels = _labels(gspace)

    with open(os.path.join(out, "rho.csv"), "w", encoding="utf-8") as f:
        f.write(",".join(labels) + "\n")
        f.writelines(fmt9_lines(result["lifted"].rho))

    orbit_labels = [labels[x] for x in quotient.representative.tolist()]
    with open(os.path.join(out, "quotient.csv"), "w", encoding="utf-8") as f:
        f.write(",".join(orbit_labels) + "\n")
        f.writelines(fmt9_lines(quotient.d))
        f.write(",".join(labels) + "\n")
        f.write(",".join(map(str, quotient.orbit_of.tolist())) + "\n")

    family = result["family"]
    with open(os.path.join(out, "slices.txt"), "w", encoding="utf-8") as f:
        for q in range(quotient.n_orbits):
            f.write(f"orbit {q} radius {fmt9(family.radius_of_orbit[q])}\n")
        members = [labels[y] for y in family.pairs[1].tolist()]
        bounds = family.offsets.tolist()
        for x in range(gspace.n_points):
            f.write(f"slice {labels[x]}: {','.join(members[bounds[x] : bounds[x + 1]])}\n")
        for rec in family.construction_log:
            f.write("log " + " ".join(f"{k}={v}" for k, v in rec) + "\n")

    write_report(os.path.join(out, "report.txt"), result["report"])


def write_report(path: str, report: Report) -> None:
    counts = report.counts()
    with open(path, "w", encoding="utf-8") as f:
        for line in report.lines():
            f.write(line + "\n")
        f.write(f"# pass={counts['pass']} fail={counts['fail']} advisory={counts['advisory']}\n")


def _apply_overrides(cfg: dict, args) -> dict:
    if args.mode is not None:
        cfg["mode"] = args.mode
    if args.scale is not None:
        cfg["group_metric"] = dict(cfg["group_metric"])
        cfg["group_metric"]["scale"] = args.scale
    if args.tolerance is not None:
        cfg["tolerance"] = args.tolerance
    if args.out is not None:
        cfg["output_dir"] = args.out
    if getattr(args, "workers", None) is not None:
        cfg["workers"] = args.workers
    return validate_config(cfg)


def _add_override_flags(p):
    p.add_argument("--mode", choices=["general", "cover", "naive"])
    p.add_argument("--scale", type=float, help="discrete group-metric scale")
    p.add_argument("--tolerance", type=float)
    p.add_argument("--out", help="output directory override")
    p.add_argument("--workers", type=int, help="accepted for old configs; has no effect")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="equimetric",
                                     description="Invariant metrics on sampled symmetric spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the pipeline and write output files")
    p_run.add_argument("--config", required=True)
    _add_override_flags(p_run)

    p_gen = sub.add_parser("gen", help="write a default config for a scenario")
    p_gen.add_argument("--scenario", required=True, choices=list(scenario_names()))
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--k", type=int)
    p_gen.add_argument("--m", type=int)
    p_gen.add_argument("--h", type=float)
    p_gen.add_argument("--N", type=int)
    p_gen.add_argument("--g", type=int)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--mode", choices=["general", "cover", "naive"])

    p_ver = sub.add_parser("verify", help="run the pipeline and report selected checks")
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--only", help="check name to report (default: all)")
    _add_override_flags(p_ver)

    return parser


def cmd_run(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    result = run_pipeline(cfg)
    write_outputs(cfg, result)
    counts = result["report"].counts()
    print(f"pass={counts['pass']} fail={counts['fail']} advisory={counts['advisory']}")
    return result["exit_code"]


def cmd_gen(args) -> int:
    wanted = scenario_params(args.scenario)
    params = {}
    for name in wanted:
        val = getattr(args, name)
        if val is None:
            raise ValidationError("InvalidParams", f"scenario {args.scenario!r} requires --{name}")
        params[name] = val
    generate_scenario(args.scenario, params)  # validate before writing
    cfg = dict(_DEFAULTS)
    cfg["scenario"] = {"name": args.scenario, "params": params}
    if args.mode is not None:
        cfg["mode"] = args.mode
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(cfg, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}")
    return 0


def cmd_verify(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    result = run_pipeline(cfg)
    report = result["report"]
    if args.only is not None:
        try:
            check = report[args.only]
        except KeyError:
            print(f"unknown check name {args.only!r}", file=sys.stderr)
            return 1
        print(check.line())
        return 2 if check.status == FAIL else 0
    for line in report.lines():
        print(line)
    return result["exit_code"]


# Built on the first call, not at import: the parser does not depend on the
# call, and `import equimetric.cli` stays cheap.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "gen":
            return cmd_gen(args)
        return cmd_verify(args)
    except (ValidationError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
