"""Smoke tests for the scripts in tools/ and for the public surface the
README shows, which no other test imports: a renamed library call would
otherwise break them silently."""

import hashlib
import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = os.path.join(ROOT, "tools")


def load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(TOOLS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,params,n,order", [
    ("dihedral", {"n": 8}, 8, 16),
    ("shift", {"m": 4, "h": 1.0, "N": 1}, 9, 5),
])
def test_stage_times_times_every_stage(name, params, n, order):
    stage_times = load("stage_times")
    got_n, got_order, times = stage_times.stage_times(name, params)
    assert (got_n, got_order) == (n, order)
    assert sorted(times) == sorted(set(stage_times.TIME_METRICS) - {"cli.write_s"})
    assert all(t >= 0.0 for t in times.values())


def test_stage_times_cover_row_skips_the_orbital_stages():
    stage_times = load("stage_times")
    n, order, times = stage_times.stage_times("circle", {"n": 12, "k": 3}, "cover")
    assert (n, order) == (12, 3)
    assert sorted(times) == sorted(set(stage_times.TIME_METRICS) - {
        "orbital.build_s", "orbital.verify_s", "verify.balls_s", "cli.write_s"})
    assert all(t >= 0.0 for t in times.values())


def test_stage_times_prints_a_dash_for_a_stage_that_did_not_run(capsys, monkeypatch):
    stage_times = load("stage_times")
    monkeypatch.setitem(stage_times.MATRICES, "100", [("circle", {"n": 12, "k": 3}, "cover")])
    assert stage_times.main(["--size", "100"]) == 0
    header, _, row = capsys.readouterr().out.splitlines()
    cells = dict(zip(header.split(" | ")[4:], row.split(" | ")[4:]))
    assert row.startswith("| circle(12, 3) cover | 12 | 3 | ")
    assert [m for m, c in cells.items() if c.strip(" |") == "-"] == \
        ["orbital.build_s", "orbital.verify_s", "verify.balls_s", "cli.write_s"]


def test_stage_times_size_800_lists_its_rows(capsys, monkeypatch):
    """--size 800 is accepted and prints one row per n~800 scenario, in
    order; stage_times is replaced, so nothing at n~800 runs."""
    stage_times = load("stage_times")
    calls = []

    def fake(name, params, mode="general"):
        calls.append((name, params, mode))
        return 0, 1, dict.fromkeys(stage_times.TIME_METRICS, 0.0)

    monkeypatch.setattr(stage_times, "stage_times", fake)
    assert stage_times.main(["--size", "800"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert calls == [("circle", {"n": 768, "k": 4}, "general"), ("disk", {"g": 29}, "general"),
                     ("shift", {"m": 320, "h": 0.25, "N": 3}, "general"), ("circle", {"n": 768, "k": 4}, "cover")]
    assert [row.split(" | ")[0] for row in rows] == ["| circle(768, 4)", "| disk(29)", "| shift(320, 0.25, 3)",
                                                     "| circle(768, 4) cover"]
    calls.clear()
    monkeypatch.setattr(stage_times, "MATRICES", {**stage_times.MATRICES, "100": [], "400": []})
    assert stage_times.main([]) == 0  # all: the 100 and 400 matrices only
    assert calls == []


@pytest.mark.parametrize("size,sizes", [
    ("1600", ["1600"]), ("all", ["100", "400"]), ("bench", ["100", "400", "800", "1600"])])
def test_stage_times_size_lists_its_rows(size, sizes, capsys, monkeypatch):
    """--size 1600 runs circle(1536, 4) and disk(41), "all" leaves out the
    800 and 1600 rows, and "bench" runs every matrix in order; stage_times
    is replaced, so nothing runs."""
    stage_times = load("stage_times")
    calls = []
    monkeypatch.setattr(stage_times, "stage_times", lambda *row: calls.append(row) or (0, 1, {}))
    monkeypatch.setattr(stage_times, "reference_seconds", lambda: 1.0)
    assert stage_times.main(["--size", size]) == 0
    assert calls == [row for s in sizes for row in stage_times.MATRICES[s]]
    assert stage_times.MATRICES["1600"] == [("circle", {"n": 1536, "k": 4}, "general"), ("disk", {"g": 41}, "general")]
    assert len(capsys.readouterr().out.splitlines()) == 2 + len(calls)


def test_stage_times_json_records_the_rows_run_and_keeps_the_others(tmp_path, monkeypatch):
    """--json merges: a second run of one size replaces its rows and keeps
    the rows of the other, and every row carries its spread and facts."""
    stage_times = load("stage_times")
    seconds = iter(range(1, 100))

    def fake(name, params, mode="general"):
        return 7, 2, {"scenarios.generate_s": float(next(seconds)), "lift.metric_s": 0.5}

    monkeypatch.setattr(stage_times, "stage_times", fake)
    monkeypatch.setattr(stage_times, "MATRICES", {
        "100": [("circle", {"n": 12, "k": 3}, "general")], "400": [("dihedral", {"n": 8}, "cover")], "800": []})
    path = tmp_path / "bench.json"
    assert stage_times.main(["--size", "all", "--repeat", "3", "--json", str(path)]) == 0
    assert stage_times.main(["--size", "400", "--json", str(path)]) == 0
    got = json.loads(path.read_text())
    assert got["matrix"] == json.loads(json.dumps(stage_times.MATRICES))
    assert list(got["rows"]) == ["circle(12, 3)", "dihedral(8) cover"]
    first, second = got["rows"]["circle(12, 3)"], got["rows"]["dihedral(8) cover"]
    assert (first["size"], first["n"], first["group_order"], first["repeat"]) == ("100", 7, 2, 3)
    assert first["stages"] == {"scenarios.generate_s": {"median": 2.0, "min": 1.0, "max": 3.0},
                               "lift.metric_s": {"median": 0.5, "min": 0.5, "max": 0.5}}
    assert first["total_s"] == {"median": 2.5, "min": 1.5, "max": 3.5}
    assert second["repeat"] == 1 and second["stages"]["scenarios.generate_s"]["median"] == 7.0
    assert {"python", "numpy", "cpus", "commit", "dirty", "src_sha256"} <= set(first)
    # the hash of the timed tree, recomputed here over its files
    src = os.path.join(ROOT, "src")
    h = hashlib.sha256()
    for path in sorted(os.path.relpath(os.path.join(d, f), src).replace(os.sep, "/")
                       for d, _, files in os.walk(src) for f in files if f.endswith(".py")):
        with open(os.path.join(src, path), "rb") as f:
            h.update(path.encode() + b"\0" + f.read())
    assert first["src_sha256"] == second["src_sha256"] == h.hexdigest()


def test_stage_times_normalises_each_row_by_the_reference_around_it(tmp_path, capsys, monkeypatch):
    """The reference work is timed before and after each row, and the norm
    is each run's total over the mean of the two: 3 s over (1 + 3) / 2 and
    then 6 s over (3 + 5) / 2."""
    stage_times = load("stage_times")
    refs, totals = iter([1.0, 3.0, 3.0, 5.0]), iter([3.0, 6.0])
    monkeypatch.setattr(stage_times, "reference_seconds", lambda: next(refs))
    monkeypatch.setattr(stage_times, "stage_times", lambda *row: (7, 2, {"lift.graph_s": next(totals)}))
    monkeypatch.setattr(stage_times, "MATRICES", {
        "100": [("circle", {"n": 12, "k": 3}, "general"), ("dihedral", {"n": 8}, "cover")], "400": [], "800": []})
    path = tmp_path / "bench.json"
    assert stage_times.main(["--size", "100", "--json", str(path)]) == 0
    header, _, *rows = capsys.readouterr().out.splitlines()
    assert header.split(" | ")[3:5] == ["total", "norm"]
    assert [row.split(" | ")[3:5] for row in rows] == [["3.00", "1.50"], ["6.00", "1.50"]]
    got = json.loads(path.read_text())["rows"]
    assert got["circle(12, 3)"]["ref_s"] == [1.0, 3.0] and got["dihedral(8) cover"]["ref_s"] == [3.0, 5.0]
    assert got["circle(12, 3)"]["total_norm"] == {"median": 1.5, "min": 1.5, "max": 1.5}
    assert got["dihedral(8) cover"]["total_s"]["median"] == 6.0


def test_bench_pipeline_json_holds_the_tools_matrix():
    """The committed record was made on the matrix stage_times runs, and
    holds a row of it for each size."""
    stage_times = load("stage_times")
    with open(os.path.join(ROOT, "BENCH_pipeline.json"), encoding="utf-8") as f:
        got = json.load(f)
    assert got["matrix"] == json.loads(json.dumps(stage_times.MATRICES))
    labels = {size: [stage_times.label(*row) for row in rows] for size, rows in stage_times.MATRICES.items()}
    assert sorted(got["rows"]) == sorted(label for rows in labels.values() for label in rows)


def test_output_digest_hashes_every_file(tmp_path, monkeypatch):
    output_digest = load("output_digest")
    monkeypatch.chdir(tmp_path)
    got = output_digest.digest(output_digest.config("circle", {"n": 12, "k": 3}, "general"))
    assert got["exit"] == 0
    assert sorted(got["files"]) == sorted(output_digest.FILES)
    assert all(isinstance(h, str) and len(h) == 64 for h in got["files"].values())
    result = output_digest.cli.run_pipeline(output_digest.cli.make_config(
        output_digest.config("circle", {"n": 12, "k": 3}, "general")))
    assert got["checks"] == {c.name: c.status for c in result["report"].checks}
    assert "metric_axioms" in got["checks"]
    edges = [e[3] for e in result["lifted"].graph.edges]
    slices = result["family"].slice_of
    assert {name: got["counts"][name] for name in (
        "quotient.orbits", "lift.edges.slice", "lift.edges.orbit", "slices.points", "slices.slice_points")} == {
        "quotient.orbits": result["quotient"].n_orbits, "lift.edges.slice": edges.count("slice"),
        "lift.edges.orbit": edges.count("orbit"), "slices.points": len(slices),
        "slices.slice_points": sum(len(s) for s in slices)}
    assert got["counts"]["cli.bytes_written"] > 0 and got["counts"]["verify.witnesses"] > 0


def test_output_digest_has_no_checks_without_a_report(tmp_path, monkeypatch):
    output_digest = load("output_digest")
    monkeypatch.chdir(tmp_path)
    got = output_digest.digest(output_digest.config("circle", {"n": 2, "k": 3}, "general"))
    assert got["exit"] == 1
    assert got["files"] == dict.fromkeys(output_digest.FILES) and got["checks"] is None
    assert got["counts"] == {}


def test_readme_library_example_runs_and_every_export_resolves(capsys):
    """The README's Library block runs as written, and every name in
    ``equimetric.__all__`` is an attribute of the package."""
    import equimetric as eq

    with open(os.path.join(ROOT, "README.md")) as f:
        readme = f.read()
    block = readme.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
    assert "lifted.witness(0, 4)" in block
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()
    assert [name for name in eq.__all__ if not hasattr(eq, name)] == []
