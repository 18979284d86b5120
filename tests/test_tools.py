"""Smoke tests for the scripts in tools/, which no other test imports: a
renamed library call would otherwise break them silently."""

import importlib.util
import os

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


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
    assert calls == [("circle", {"n": 768, "k": 4}, "general"), ("disk", {"g": 29}, "general")]
    assert [row.split(" | ")[0] for row in rows] == ["| circle(768, 4)", "| disk(29)"]
    calls.clear()
    monkeypatch.setattr(stage_times, "MATRICES", {**stage_times.MATRICES, "100": [], "400": []})
    assert stage_times.main([]) == 0  # all: the 100 and 400 matrices only
    assert calls == []


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
