"""In-memory spans around the stage calls `equimetric.cli.run_pipeline`
makes, and the per-layer counters computed from what those calls return.

Tracing replaces the callables where `equimetric.cli` binds them, so a
traced config runs exactly the code an untraced one does. Nothing under
`src/` is instrumented.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import Counter, defaultdict

import numpy as np

# cli binding -> per-layer time metric (summed self time).
STAGES = {
    "generate_scenario": "scenarios.generate_s",
    "compute_orbits": "quotient.orbits_s",
    "quotient_metric": "quotient.metric_s",
    "build_slice_family": "slices.build_s",
    "verify_slice_family": "slices.verify_s",
    "group_metric": "orbital.group_metric_s",
    "build_orbital_metric": "orbital.build_s",
    "verify_orbital_properties": "orbital.verify_s",
    "build_allowability_graph": "lift.graph_s",
    "lift_metric": "lift.metric_s",
    "verify_lifted_metric": "verify.lifted_s",
    "verify_ball_inclusions": "verify.balls_s",
    "quotient_consistency": "verify.pushforward_s",
    "write_outputs": "cli.write_s",
}
CONFIG_SPAN = "cli.main"
GLUE = "cli.glue_s"  # self time of the config span: config load, validation, report merge

TIME_METRICS = tuple(STAGES.values()) + (GLUE,)

# name -> unit; every counter is a total over one pass.
COUNT_METRICS = {
    "quotient.orbits": "count",
    "slices.rejected_radii": "count",
    "slices.radius_accept_ratio": "ratio",
    "slices.mean_size": "points",
    "orbital.group_order": "count",
    "orbital.eps_grid": "count",
    "orbital.delta_grid": "count",
    "lift.small_sets": "count",
    "lift.edges.slice": "count",
    "lift.edges.orbit": "count",
    "lift.edges.cover": "count",
    "lift.edges.naive": "count",
    "lift.points": "count",
    "verify.ball_grid": "count",
    "verify.witnesses": "count",
    "cli.bytes_written": "bytes",
}
_EDGE_KIND = {"slice": "lift.edges.slice", "orbit": "lift.edges.orbit",
              "cover": "lift.edges.cover", "naive-elementary": "lift.edges.naive"}
_REPORTS = ("verify_slice_family", "verify_orbital_properties", "verify_lifted_metric",
            "verify_ball_inclusions", "quotient_consistency")


class Tracer:
    """Spans kept in memory as (id, parent, name, config, start, end)."""

    def __init__(self):
        self.spans = []
        self.results = {}  # cli binding -> return value, for the current config
        self._stack = []
        self._config = None

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, name, self._config, time.perf_counter(), None])
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid][5] = time.perf_counter()

    @contextlib.contextmanager
    def config(self, config_id: str):
        """Span one config; the stage spans opened inside it are its children."""
        self._config = config_id
        self.results = {}
        try:
            with self.span(CONFIG_SPAN):
                yield
        finally:
            self._config = None

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            self.results[name] = out
            return out
        return traced

    @contextlib.contextmanager
    def installed(self, cli):
        """Replace the stage callables in the `cli` module for the duration."""
        saved = {name: getattr(cli, name) for name in STAGES}
        try:
            for name, fn in saved.items():
                setattr(cli, name, self._wrap(name, fn))
            yield self
        finally:
            for name, fn in saved.items():
                setattr(cli, name, fn)

    def records(self) -> list:
        return [dict(zip(("id", "parent", "name", "config", "start", "end"), s)) for s in self.spans]


def self_times(spans, first: int = 0) -> dict:
    """Summed self time per metric over spans[first:]: each span's duration
    minus the durations of its children."""
    child = defaultdict(float)
    for sid, parent, _, _, start, end in spans[first:]:
        if parent is not None:
            child[parent] += end - start
    out = dict.fromkeys(TIME_METRICS, 0.0)
    for sid, _, name, _, start, end in spans[first:]:
        metric = GLUE if name == CONFIG_SPAN else STAGES[name]
        out[metric] += (end - start) - child[sid]
    return out


def config_counts(results: dict, out_dir: str) -> Counter:
    """Per-layer counts of one config, from the objects its stage calls
    returned and the files it wrote."""
    from equimetric.slices import value_grid

    c = Counter()
    quotient = results.get("quotient_metric")
    if quotient is not None:
        c["quotient.orbits"] += quotient.n_orbits
    family = results.get("build_slice_family")
    if family is not None:
        c["slices.rejected_radii"] += len(family.construction_log)
        c["slices.slice_points"] += sum(len(s) for s in family.slice_of)
        c["slices.points"] += len(family.slice_of)
    d_G = results.get("group_metric")
    if d_G is not None:
        c["orbital.group_order"] += d_G.group.order
    d_O = results.get("build_orbital_metric")
    defined_dO = list(d_O.values[~np.isnan(d_O.values)]) if d_O is not None else []
    if "verify_orbital_properties" in results:
        c["orbital.eps_grid"] += len(value_grid(defined_dO)) or 1
        c["orbital.delta_grid"] += len(value_grid(
            list(quotient.d.ravel()) + list(d_G.table.ravel()))) or 1
    graph = results.get("build_allowability_graph")
    if graph is not None:
        c["lift.small_sets"] += len(graph.small_sets)
        for edge in graph.edges:
            c[_EDGE_KIND[edge[3]]] += 1
    lifted = results.get("lift_metric")
    if lifted is not None:
        c["lift.points"] += lifted.rho.shape[0]
    if "verify_ball_inclusions" in results:
        vals = list(quotient.d.ravel()) + list(d_G.table.ravel()) + defined_dO
        vals += list(lifted.rho[np.isfinite(lifted.rho)])
        c["verify.ball_grid"] += len(value_grid(vals)) + 1  # plus the top sentinel
    for name in _REPORTS:
        if name in results:
            c["verify.witnesses"] += sum(len(check.witnesses) for check in results[name].checks)
    if os.path.isdir(out_dir):
        c["cli.bytes_written"] += sum(e.stat().st_size for e in os.scandir(out_dir))
    return c


def pass_counts(c: Counter) -> dict:
    """The reported counters of one pass, from the summed config counts."""
    out = {name: float(c[name]) for name in COUNT_METRICS}
    orbits, rejected = c["quotient.orbits"], c["slices.rejected_radii"]
    out["slices.radius_accept_ratio"] = orbits / (orbits + rejected) if orbits + rejected else 1.0
    out["slices.mean_size"] = c["slices.slice_points"] / c["slices.points"] if c["slices.points"] else 0.0
    return out
