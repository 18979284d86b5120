import json
import os

import pytest

from equimetric import ValidationError
from equimetric.cli import load_config, main


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


@pytest.mark.parametrize("key", ["tolerance", "shrink_factor", "enlargement_factor"])
def test_non_finite_config_number_rejected(tmp_path, capsys, key):
    cfg = write_config(tmp_path / "cfg.json", **{key: float("nan")})
    with pytest.raises(ValidationError) as exc:
        load_config(cfg)
    assert exc.value.code == "NonFinite"
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert f"NonFinite: {key} must be finite" in capsys.readouterr().err


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
