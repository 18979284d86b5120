import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import equimetric as eq
from equimetric import ValidationError
from equimetric.cli import load_config, main, make_config, run_pipeline
from equimetric.report import fmt9_lines


def write_config(path, **overrides):
    cfg = {
        "scenario": {"name": "circle", "params": {"n": 12, "k": 3}},
        "mode": "cover",
    }
    cfg.update(overrides)
    with open(path, "w") as f:
        json.dump(cfg, f)
    return str(path)


def read(path):
    with open(path, "rb") as f:
        return f.read()


def test_gen_then_run_roundtrip(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    assert main(["gen", "--scenario", "circle", "--n", "12", "--k", "3",
                 "--out", str(cfg), "--mode", "cover"]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("rho.csv", "quotient.csv", "slices.txt", "report.txt"):
        assert (out / name).exists()
    rho = (out / "rho.csv").read_text().splitlines()
    assert rho[0].startswith("0deg,30deg")
    assert "2.0943951" in rho[1].split(",")[4]  # entry (0deg, 120deg)


def test_gen_requires_scenario_params(tmp_path):
    assert main(["gen", "--scenario", "circle", "--n", "12",
                 "--out", str(tmp_path / "c.json")]) == 1


def test_run_determinism_across_parallelism(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", mode="general")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out1), "--workers", "1"]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2), "--workers", "4"]) == 0
    assert read(out1 / "rho.csv") == read(out2 / "rho.csv")
    assert read(out1 / "report.txt") == read(out2 / "report.txt")
    assert read(out1 / "quotient.csv") == read(out2 / "quotient.csv")


def test_exit_3_on_disconnected_lift(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        scenario={"name": "reflection", "params": {"m": 2, "h": 1.0}},
        mode="cover",
        shrink_factor=1000.0,
        enlargement_factor=1000.0,
    )
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    report = (out / "report.txt").read_text()
    assert "degenerate_family\tadvisory" in report
    assert "lift_connected\tfail" in report


def test_exit_1_on_bad_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"scenario": {"name": "circle", "params": {"n": 12, "k": 3}}, "bogus": 1}')
    assert main(["run", "--config", str(bad)]) == 1
    bad.write_text("not json")
    assert main(["run", "--config", str(bad)]) == 1
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1


SCENARIO = {"name": "circle", "params": {"n": 12, "k": 3}}


@pytest.mark.parametrize("raw", [
    {"scenario": SCENARIO},
    {"scenario": SCENARIO, "mode": "cover", "tolerance": 1e-6, "group_metric": {"kind": "word"}},
    {"scenario": {"name": "disk"}},
    {"scenario": SCENARIO, "bogus": 1},
    {"mode": "cover"},
    [SCENARIO],
    {"scenario": SCENARIO, "mode": "fast"},
    {"scenario": SCENARIO, "tolerance": float("nan")},
    {"scenario": SCENARIO, "workers": True},
])
def test_make_config_is_load_config_in_memory(tmp_path, raw):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    results = []
    for build, arg in ((make_config, json.loads(json.dumps(raw))), (load_config, str(path))):
        try:
            results.append(build(arg))
        except ValidationError as exc:
            results.append((exc.code, str(exc), exc.witness))
    assert repr(results[0]) == repr(results[1])  # a NaN witness equals no other NaN


def test_make_config_leaves_its_argument_as_it_was():
    raw = {"scenario": {"name": "disk"}}
    cfg = make_config(raw)
    assert cfg["scenario"] == {"name": "disk", "params": {}}
    assert raw == {"scenario": {"name": "disk"}}


@pytest.mark.parametrize("key", ["tolerance", "shrink_factor", "enlargement_factor"])
def test_non_finite_config_number_rejected(tmp_path, capsys, key):
    cfg = write_config(tmp_path / "cfg.json", **{key: float("nan")})
    with pytest.raises(ValidationError) as exc:
        load_config(cfg)
    assert exc.value.code == "NonFinite"
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert f"NonFinite: {key} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["tolerance", "shrink_factor", "enlargement_factor", "workers"])
def test_boolean_config_number_rejected(tmp_path, capsys, key):
    # JSON true is a Python bool, an int subclass that would read as 1.
    cfg = write_config(tmp_path / "cfg.json", **{key: True})
    with pytest.raises(ValidationError) as exc:
        load_config(cfg)
    assert exc.value.code == "InvalidParams"
    assert key in str(exc.value)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert f"InvalidParams: {key} must be a positive" in capsys.readouterr().err


@pytest.mark.parametrize("overrides,code", [
    ({"scenario": {"name": "circle", "params": ["n", "k"]}}, "InvalidParams"),
    ({"scenario": {"name": ["circle"], "params": {"n": 12, "k": 3}}}, "InvalidParams"),
    ({"scenario": {"name": "circle", "params": {"n": "12", "k": 3}}}, "InvalidParams"),
    ({"scenario": {"name": "circle", "params": {"n": 12.0, "k": 3}}}, "InvalidParams"),
    ({"scenario": {"name": "dihedral", "params": {"n": True}}}, "InvalidParams"),
    ({"scenario": {"name": "reflection", "params": {"m": 2, "h": "1"}}}, "InvalidParams"),
    ({"scenario": {"name": "reflection", "params": {"m": 2, "h": True}}}, "InvalidParams"),
    ({"scenario": {"name": "shift", "params": {"m": 4, "h": float("nan"), "N": 1}}}, "NonFinite"),
    ({"group_metric": {"kind": "discrete", "scale": "abc"}}, "InvalidParams"),
    ({"group_metric": {"kind": "discrete", "scale": True}}, "InvalidParams"),
    ({"group_metric": {"kind": "word", "generators": "ab"}}, "InvalidParams"),
    ({"group_metric": {"kind": "word", "generators": [True, 2]}}, "InvalidParams"),
    ({"group_metric": {"kind": "word", "generators": [99]}}, "InvalidParams"),
    ({"group_metric": {"kind": "explicit", "path": 5}}, "InvalidParams"),
    ({"quotient_mode": "explicit"}, "InvalidParams"),
    ({"quotient_mode": "explicit", "quotient_table": 5}, "InvalidParams"),
    ({"output_dir": None}, "InvalidParams"),
], ids=["params_list", "name_list", "n_str", "n_float", "n_bool", "h_str", "h_bool", "h_nan",
        "scale_str", "scale_bool", "generators_str", "generators_bool", "generators_range", "path_int",
        "quotient_table_missing", "quotient_table_int", "output_dir_null"])
def test_mistyped_config_fields_rejected(tmp_path, capsys, overrides, code):
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {code}: ")


@pytest.mark.parametrize("text", ["a,b\nc,d\n", "0,1\n1\n"], ids=["letters", "ragged"])
@pytest.mark.parametrize("key", ["quotient_table", "group_metric"])
def test_malformed_table_file_rejected(tmp_path, capsys, text, key):
    """A table file that is not rows of numbers of equal length is a
    config error naming the file, not a traceback."""
    table = tmp_path / "t.csv"
    table.write_text(text)
    overrides = ({"quotient_mode": "explicit", "quotient_table": str(table)} if key == "quotient_table"
                 else {"group_metric": {"kind": "explicit", "path": str(table)}})
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidParams: table file must hold rows of numbers") and str(table) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["quotient_table", "group_metric"])
def test_empty_table_file_rejected_with_one_error_line(tmp_path, capsys, recwarn, key):
    """An empty table file is an empty table, refused by its shape; numpy's
    warning that the file holds no data, which a command line run prints
    on stderr, is not raised."""
    table = tmp_path / "t.csv"
    table.write_text("")
    overrides = ({"quotient_mode": "explicit", "quotient_table": str(table)} if key == "quotient_table"
                 else {"mode": "general", "group_metric": {"kind": "explicit", "path": str(table)}})
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    what = "explicit table" if key == "quotient_table" else "group metric table"
    assert capsys.readouterr().err == f"error: NotAMetric: {what} has wrong shape\n"
    assert [str(w.message) for w in recwarn] == []


def test_radius_below_quotient_diagonal_rejected(tmp_path, capsys):
    """A quotient diagonal of 5e-10 is allowed within tolerance; shrunk by
    1e10 every candidate radius lies at or below it, so the ball around an
    orbit leaves out the orbit itself."""
    gs = eq.generate_scenario("circle", {"n": 12, "k": 3})
    d = eq.quotient_metric(gs, eq.compute_orbits(gs)).d + 5e-10 * np.eye(4)
    np.savetxt(tmp_path / "q.csv", d, delimiter=",", fmt="%.17g")
    cfg = write_config(tmp_path / "cfg.json", mode="general", quotient_mode="explicit",
                       quotient_table=str(tmp_path / "q.csv"), shrink_factor=1e10)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == \
        "error: EmptyResult: center orbit not in the quotient set (witness: 0)\n"


def test_mode_and_scale_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", mode="cover")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--mode", "general", "--scale", "2.0",
                 "--out", str(out)]) == 0
    rho = (out / "rho.csv").read_text().splitlines()
    # within-orbit distance carries the scaled group metric: one jump costs 2
    assert rho[1].split(",")[4] == "2"


def test_verify_only_selects_single_check(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["verify", "--config", cfg, "--only", "metric_axioms"]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("metric_axioms\tpass")
    assert main(["verify", "--config", cfg, "--only", "no_such_check"]) == 1


def test_verify_without_only_prints_full_report(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["verify", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    names = {ln.split("\t")[0] for ln in lines}
    assert "metric_axioms" in names and "cover_local_isometry" in names


def test_report_counts_line(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    main(["run", "--config", cfg, "--out", str(out)])
    last = (out / "report.txt").read_text().splitlines()[-1]
    assert last.startswith("# pass=") and "fail=0" in last


def test_quotient_csv_contains_orbit_map(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    main(["run", "--config", cfg, "--out", str(out)])
    lines = (out / "quotient.csv").read_text().splitlines()
    assert lines[0] == "0deg,30deg,60deg,90deg"
    assert lines[5].startswith("0deg,30deg")  # point-label header
    assert lines[6] == "0,1,2,3,0,1,2,3,0,1,2,3"


def test_inf_literal_in_csv(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        scenario={"name": "reflection", "params": {"m": 2, "h": 1.0}},
        mode="cover",
        enlargement_factor=1000.0,
    )
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    assert ",inf" in (out / "rho.csv").read_text()


SPECIAL_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
                  1e-310, 1.7976931348623157e308, 0.1, 123456789.5, 1e16, 9.999999995e-5]
FLOATS = st.one_of(
    st.sampled_from(SPECIAL_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
)


@settings(max_examples=300, deadline=None)
@given(table=st.integers(1, 6).flatmap(
    lambda width: st.lists(st.lists(FLOATS, min_size=width, max_size=width), min_size=1, max_size=4)))
def test_row_format_matches_fmt9_byte_for_byte(table):
    """The one-format-per-row writer renders each row as fmt9 joined by
    commas: random bit patterns (signed nan payloads too), signed zeros,
    infinities and subnormals."""
    want = [",".join(eq.fmt9(v) for v in row) + "\n" for row in table]
    assert list(fmt9_lines(np.array(table, dtype=np.float64))) == want


def from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# Few values, so that a table repeats them: signed zeros, infinities,
# subnormals, and nan of either sign, quiet and signalling, with payloads.
POOL = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, 1.0, -1.0, 0.1, 2.0 / 3.0, 1e16] + [
    from_bits(b) for b in (0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123,
                           0xFFF8000000000456, 0x7FF0000000000001, 0xFFF0000000000789)]


@settings(max_examples=300, deadline=None)
@given(table=st.integers(1, 8).flatmap(
    lambda width: st.lists(st.lists(st.sampled_from(POOL), min_size=width, max_size=width), min_size=1, max_size=8)))
def test_repeated_values_format_byte_for_byte(table):
    """fmt9_lines formats each distinct bit pattern once and reuses its
    text: tables drawn from a small pool repeat values across rows, and
    0.0 and -0.0, like the nans, must each keep their own rendering."""
    want = [",".join(eq.fmt9(v) for v in row) + "\n" for row in table]
    assert list(fmt9_lines(np.array(table, dtype=np.float64))) == want


# Runs perfbench's three fixed workloads and every small-sweep cell in all
# three modes, then prints the config count, the exit codes met and
# whether numpy.ma was imported.
_NO_MASKED_ARRAYS = """
import contextlib, io, json, os, sys
sys.path.insert(0, sys.argv[1])
from equimetric import cli
from perfbench.workloads import FIXED, GRID_CELLS, config
cfgs = [c for cs in FIXED.values() for c in cs] + [config(*cell) for cell in GRID_CELLS]
codes = set()
for cfg in cfgs:
    with open("cfg.json", "w") as f:
        json.dump(cfg, f)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.add(cli.main(["run", "--config", "cfg.json", "--out", "out"]))
print(len(cfgs), sorted(codes), "numpy.ma" in sys.modules)
"""


def test_benchmark_configs_never_import_masked_arrays(tmp_path):
    """``np.unique``, ``np.union1d`` and ``np.isin`` import ``numpy.ma`` on
    first use, about 1 MB of resident memory, which perfbench's
    ``peak_rss_mb`` would count: no config the benchmark runs may reach
    one of them. A fresh interpreter, since this one may have imported it."""
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run([sys.executable, "-c", _NO_MASKED_ARRAYS, root], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "109 [0, 3] False"  # 3: a disconnected lift


def element(gs, images):
    """The group element acting on the points by images (-1: undefined)."""
    return next(g for g in range(gs.group.order) if gs.action[g, : gs.n_points].tolist() == images)


@pytest.mark.parametrize("name,params,moves", [
    ("circle", {"n": 12, "k": 3}, [[(i + 4) % 12 for i in range(12)], [(i + 8) % 12 for i in range(12)]]),
    ("dihedral", {"n": 6}, [[(i + 1) % 6 for i in range(6)], [(i + 5) % 6 for i in range(6)],
                            [(6 - i) % 6 for i in range(6)]]),
    # the shifts by +1 and -1, two points each
    ("shift", {"m": 8, "h": 0.5, "N": 2}, [[i + 2 if i < 15 else -1 for i in range(17)],
                                           [i - 2 if i > 1 else -1 for i in range(17)]]),
])
def test_word_group_metric_on_builtin_scenarios(tmp_path, name, params, moves):
    """{"kind": "word"} without generators reads the scenario's own, which
    are inverse-closed: the run succeeds, and its metric is the word metric
    of the generators and their inverses named explicitly. Cover mode: in
    general mode the orbital stage rejects this metric on dihedral(6), whose
    point stabilizers it is not right invariant for."""
    raw = {"scenario": {"name": name, "params": params}, "mode": "cover", "group_metric": {"kind": "word"}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) in (0, 2, 3)
    result = run_pipeline(make_config(raw))
    gs = result["gspace"]
    want = eq.group_metric(gs.group, "word", generators=[element(gs, images) for images in moves])
    assert result["group_metric"].table.tobytes() == want.table.tobytes()
