"""Units do not matter: a change of units by 2^e, exact in binary floating
point, scales every length output by exactly 2^e and leaves the rest alone.

Each case runs through ``cli.run_pipeline`` twice: as built, and with
``cli.generate_scenario`` wrapped to return the same G-space on 2^e times
the base metric (validated at 2^e times the default tolerance), the
discrete group-metric scale and the config's tolerance scaled by 2^e too.
Then rho, d and d_O must equal 2^e times the unscaled tables bit for bit;
the slices, the check statuses and the exit code must be equal; and the
witness lists must be equal once their floats, which are lengths, are
divided by 2^e.
"""

import functools

import numpy as np
import pytest

from equimetric import cli
from equimetric.gspace import bind_action_array, build_space

CASES = [("circle", {"n": 12, "k": 3}), ("circle", {"n": 24, "k": 4}), ("disk", {"g": 5}), ("disk", {"g": 7}),
         ("reflection", {"m": 6, "h": 1.0}), ("dihedral", {"n": 6}), ("shift", {"m": 8, "h": 0.5, "N": 2}),
         ("shift", {"m": 20, "h": 0.25, "N": 3})]
MODES = ("general", "cover", "naive")
EXPONENTS = (-20, 3, 20, 60)

# Causes, from the units probe. Three are the absolute "+ 1.0" of
# slices._top_radius; one is the absolute margin orbital._TOL (1e-12).
ULP = ("the top candidate radius adds an absolute 1.0: an orbit that accepts it carries the 1.0 into its "
       "tent weights, so d_O and rho miss 2^e times the unscaled values by an ulp in some cells")
ABSORBED = ("the top candidate radius adds an absolute 1.0, which 2^60 absorbs: the top radius no longer "
            "covers the farthest orbit, and the slices change")
TOP_GRID = ("the ball inclusions' grid is topped by the absolute + 1.0 as well: the single orbit's searches "
            "reach that radius, so their witnesses name 2^-e + 1 in place of 2")
TOL = ("property B breaks minimality by more than the absolute orbital._TOL of 1e-12, below the ulp of d_O "
       "from 2^20 on: a rounding difference breaks it, and a witness's delta changes")


def _failing():
    """(name, params, mode, e) -> cause, for the cells that fail today."""
    causes = {}
    for cells, cause in (
            ([("disk", (7,), "general", e) for e in (-20, 3, 20, 60)]
             + [("reflection", (6, 1.0), "general", e) for e in (3, 20, 60)], ULP),
            ([(name, params, mode, 60) for name, params in (("disk", (5,)), ("disk", (7,)), ("reflection", (6, 1.0)))
              for mode in MODES], ABSORBED),
            ([("dihedral", (6,), "general", e) for e in EXPONENTS], TOP_GRID),
            ([(name, params, "general", e) for name, params in (("circle", (24, 4)), ("disk", (7,))) for e in (20, 60)],
             TOL)):
        for cell in cells:
            causes[cell] = causes[cell] + "; " + cause if cell in causes else cause
    return causes


FAILING = _failing()


def config(name, params, mode, unit):
    return cli.make_config({"scenario": {"name": name, "params": dict(params)}, "mode": mode,
                            "group_metric": {"kind": "discrete", "scale": unit}, "tolerance": 1e-9 * unit})


@functools.cache
def base(name, params, mode):
    """run_pipeline's result for the case as built; params as (key, value) pairs."""
    return cli.run_pipeline(config(name, params, mode, 1.0))


def scaled(name, params, mode, e, monkeypatch):
    """run_pipeline's result for the case in units of 2^e."""
    unit = 2.0 ** e
    generate = cli.generate_scenario

    def rebuilt(*args):
        gs = generate(*args)
        space = gs.space
        space = build_space(space.base_metric * unit, space.edges, space.labels, tol=1e-9 * unit)
        return bind_action_array(space, gs.group, gs.action[:, : gs.n_points])

    monkeypatch.setattr(cli, "generate_scenario", rebuilt)
    return cli.run_pipeline(config(name, params, mode, unit))


def bits(table):
    """A float table as its int64 bit patterns, every nan alike."""
    table = np.asarray(table, dtype=np.float64)
    return np.where(np.isnan(table), -1, table.view(np.int64))


def unscaled(witness, unit):
    return tuple(v / unit if isinstance(v, float) else v for v in witness)


def cases():
    for name, params in CASES:
        for mode in MODES:
            for e in EXPONENTS:
                cause = FAILING.get((name, tuple(params.values()), mode, e))
                marks = [pytest.mark.xfail(strict=True, reason=cause)] if cause else []
                yield pytest.param(name, params, mode, e, marks=marks,
                                   id=f"{name}{tuple(params.values())}-{mode}-e{e}")


@pytest.mark.parametrize("name,params,mode,e", cases())
def test_outputs_scale_with_the_units(name, params, mode, e, monkeypatch):
    unit = 2.0 ** e
    want = base(name, tuple(params.items()), mode)
    got = scaled(name, params, mode, e, monkeypatch)
    assert np.array_equal(bits(got["quotient"].d), bits(want["quotient"].d * unit))
    if mode == "general":
        assert np.array_equal(bits(got["orbital"].values), bits(want["orbital"].values * unit))
    assert np.array_equal(bits(got["lifted"].rho), bits(want["lifted"].rho * unit))
    assert [a.tolist() for a in got["family"].pairs] == [a.tolist() for a in want["family"].pairs]
    assert got["exit_code"] == want["exit_code"]
    report, ref = got["report"], want["report"]
    assert [(c.name, c.status) for c in report.checks] == [(c.name, c.status) for c in ref.checks]
    assert [[unscaled(w, unit) for w in c.witnesses] for c in report.checks] == \
        [[tuple(w) for w in c.witnesses] for c in ref.checks]
