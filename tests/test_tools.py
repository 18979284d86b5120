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
    assert sorted(times) == sorted(stage_times.STAGES)
    assert all(t >= 0.0 for t in times.values())


def test_stage_times_cover_row_skips_the_orbital_stages():
    stage_times = load("stage_times")
    n, order, times = stage_times.stage_times("circle", {"n": 12, "k": 3}, "cover")
    assert (n, order) == (12, 3)
    assert sorted(times) == sorted(set(stage_times.STAGES) - {"orbital checks", "balls"})
    assert all(t >= 0.0 for t in times.values())


def test_output_digest_hashes_every_file(tmp_path, monkeypatch):
    output_digest = load("output_digest")
    monkeypatch.chdir(tmp_path)
    got = output_digest.digest(output_digest.config("circle", {"n": 12, "k": 3}, "general"))
    assert got["exit"] == 0
    assert sorted(got["files"]) == sorted(output_digest.FILES)
    assert all(isinstance(h, str) and len(h) == 64 for h in got["files"].values())
