"""Acceptance gate: each test is one acceptance criterion at its stated
tolerance and runtime budget, printing one pass/fail line (run with -s to
see the lines for passing criteria; pytest -v also reports one line per
criterion).
"""

import json
import math
import time

import numpy as np
import pytest

import equimetric as eq
from equimetric.cli import main
from tests.conftest import pipeline
from tests.oracles import cheapest_simple_chain, two_sided_coset_distance
from tests.randspaces import cyclic_table, dihedral_table, random_gspace

BUILTIN = [
    ("circle", {"n": 12, "k": 3}),
    ("reflection", {"m": 2, "h": 1.0}),
    ("dihedral", {"n": 8}),
    ("disk", {"g": 3}),
]


def _line(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_lift_theorem_general_mode():
    start = time.monotonic()
    for name, params in BUILTIN:
        r = pipeline(name, params, mode="general", scale=1.0)
        report = eq.verify_lifted_metric(r["gspace"], r["quotient"], r["lifted"])
        assert report["metric_axioms"].status == "pass", name
        assert report["g_invariance"].status == "pass", name
        assert report["g_invariance"].max_residual <= 1e-12, name
        assert report["lower_bound_quotient"].status == "pass", name
    elapsed = time.monotonic() - start
    _line(1, elapsed < 5.0, f"(all scenarios, {elapsed:.2f}s)")


def test_criterion_2_cover_local_isometry():
    start = time.monotonic()
    for name, params in (("circle", {"n": 12, "k": 3}), ("shift", {"m": 40, "h": 0.25, "N": 3})):
        r = pipeline(name, params, mode="cover")
        rho, d, p = r["lifted"].rho, r["quotient"].d, r["quotient"].orbit_of
        for s in r["graph"].small_sets:
            pts = sorted(s)
            for i, u in enumerate(pts):
                for v in pts[i + 1:]:
                    assert abs(rho[u, v] - d[p[u], p[v]]) <= 1e-12, (name, u, v)
    elapsed = time.monotonic() - start
    _line(2, elapsed < 2.0, f"({elapsed:.2f}s)")


def test_criterion_3_cover_values_vs_chain_oracle():
    r = pipeline("circle", {"n": 12, "k": 3}, mode="cover")
    rho = r["lifted"].rho
    w = r["graph"].weight_matrix()
    ok = (
        abs(rho[0, 1] - math.pi / 6) <= 1e-9
        and abs(rho[0, 4] - 2 * math.pi / 3) <= 1e-9
        and abs(rho[0, 1] - cheapest_simple_chain(w, 0, 1)) <= 1e-12
        and abs(rho[0, 4] - cheapest_simple_chain(w, 0, 4)) <= 1e-12
    )
    _line(3, ok, f"(rho(0,30)={rho[0, 1]:.9f}, rho(0,120)={rho[0, 4]:.9f})")


def test_criterion_4_naive_pseudometric_degeneration():
    naive12 = pipeline("circle", {"n": 12, "k": 3}, mode="naive")["lifted"].rho[0, 4]
    cover12 = pipeline("circle", {"n": 12, "k": 3}, mode="cover")["lifted"].rho[0, 4]
    naive24 = pipeline("circle", {"n": 24, "k": 3}, mode="naive")["lifted"].rho[0, 8]
    cover24 = pipeline("circle", {"n": 24, "k": 3}, mode="cover")["lifted"].rho[0, 8]
    ok = (
        naive12 <= math.pi / 3 + 1e-9
        and naive12 < cover12
        and naive24 < naive12 - 1e-9
        and abs(cover24 - 2 * math.pi / 3) <= 1e-9
    )
    _line(4, ok, f"(naive {naive12:.7f} -> {naive24:.7f}, cover stays {cover24:.7f})")


def test_criterion_5_slice_conditions_everywhere():
    start = time.monotonic()
    spaces = [eq.generate_scenario(n, p) for n, p in BUILTIN]
    spaces.append(eq.generate_scenario("shift", {"m": 40, "h": 0.25, "N": 3}))
    spaces.extend(random_gspace(seed) for seed in range(100))
    for gs in spaces:
        quotient = eq.quotient_metric(gs, eq.compute_orbits(gs))
        family = eq.build_slice_family(gs, quotient)
        report = eq.verify_slice_family(gs, quotient, family)
        fails = [c.name for c in report.checks if c.status == "fail"]
        assert fails == [], fails
    elapsed = time.monotonic() - start
    _line(5, elapsed < 30.0, f"({len(spaces)} spaces, {elapsed:.2f}s)")


def test_criterion_6_coset_distance_forms_agree():
    groups = [
        eq.build_group(cyclic_table(4)),
        eq.build_group(cyclic_table(6)),
        eq.build_group(dihedral_table(4)),
    ]
    word_gens = [[1, 3], [1, 5], [1, 3, 4]]
    checked = 0
    for group, gens in zip(groups, word_gens):
        metrics = [
            eq.group_metric(group, "discrete", scale=1.0),
            eq.group_metric(group, "word", generators=gens),
        ]
        for d_G in metrics:
            for K in group.subgroups():
                right_inv = d_G.right_invariant_for(K)
                for a in range(group.order):
                    for b in range(group.order):
                        v = eq.coset_distance(d_G, K, a, b)
                        if right_inv:  # the one-sided form equals the two-sided one
                            assert v == two_sided_coset_distance(d_G, K, a, b)
                        assert v <= d_G.dist(a, b) + 1e-15
                        checked += 1
    _line(6, True, f"({checked} coset pairs)")


def test_criterion_7_orbital_properties_and_coset_bounds():
    start = time.monotonic()
    for name, params in BUILTIN:
        r = pipeline(name, params, mode="general")
        report = eq.verify_orbital_properties(
            r["gspace"], r["quotient"], r["family"], r["d_O"], r["d_G"]
        )
        fails = [c.name for c in report.checks if c.status == "fail"]
        assert fails == [], (name, fails)
    elapsed = time.monotonic() - start
    _line(7, elapsed < 10.0, f"({elapsed:.2f}s)")


def test_criterion_8_ball_inclusion_lemmas():
    for name, params in (("circle", {"n": 12, "k": 3}), ("reflection", {"m": 2, "h": 1.0})):
        r = pipeline(name, params, mode="general")
        report = eq.verify_ball_inclusions(
            r["gspace"], r["quotient"], r["family"], r["d_G"], r["d_O"], r["lifted"]
        )
        fails = [c.name for c in report.checks if c.status == "fail"]
        assert fails == [], (name, fails)
    # the worked witness: delta=0.55 for (x=0 degrees, eps=0.6)
    r = pipeline("circle", {"n": 12, "k": 3}, mode="general")
    gs, quotient, family, d_G, lifted = (
        r["gspace"], r["quotient"], r["family"], r["d_G"], r["lifted"]
    )
    assert d_G.ball(0.55) == frozenset({gs.group.identity})
    assert eq.motion_set(gs, quotient, family, d_G, 0, 0.55) == frozenset({11, 0, 1})
    assert eq.rho_ball(lifted, 0, 0.6) == frozenset({11, 0, 1})
    ok = eq.motion_inside_rho_ball(gs, quotient, family, d_G, lifted, 0, 0.55, 0.6)
    _line(8, ok, "(worked witness delta=0.55, eps=0.6 reproduced)")


def test_criterion_9_byte_identical_pipeline(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "scenario": {"name": "circle", "params": {"n": 12, "k": 3}},
        "mode": "general",
    }))
    outputs = []
    for tag, workers in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / tag
        assert main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--workers", workers]) == 0
        outputs.append((
            (out / "rho.csv").read_bytes(), (out / "report.txt").read_bytes()
        ))
    ok = outputs[0] == outputs[1] == outputs[2]
    _line(9, ok, "(two repeats + workers=4 identical)")
