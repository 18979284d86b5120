"""Self-tests of the benchmark: tracing changes no output, the correctness
gate can fail, and the seed decides the small-sweep list.

Run: python3 -m pytest -q perfbench
"""

import copy

import pytest

import bench
import spans
import workloads

WORKDIR = bench.OUT / "selftest"
# Small, and general mode, so every stage the tracer wraps runs.
PROBE = workloads.config("shift", {"m": 8, "h": 0.5, "N": 2}, "general")


@pytest.fixture(scope="module")
def cli():
    return bench.import_cli()


@pytest.fixture(scope="module")
def refs():
    return bench.load_refs()


@pytest.fixture(scope="module")
def probe():
    return bench.prepare([PROBE], WORKDIR)


def test_traced_run_gives_identical_outputs_and_complete_spans(cli, refs, probe):
    (cid, cfg_path, out_dir), = probe
    _, code = bench.run_config(cli, cfg_path, out_dir)
    plain = bench.outcome(out_dir, code)

    tracer = spans.Tracer()
    originals = {name: getattr(cli, name) for name in spans.STAGES}
    with tracer.installed(cli):
        _, code = bench.run_config(cli, cfg_path, out_dir, tracer, cid)
    traced = bench.outcome(out_dir, code)
    assert {name: getattr(cli, name) for name in spans.STAGES} == originals

    assert traced == plain
    assert bench.mismatches(plain, refs[cid]) == []
    names = [s[2] for s in tracer.spans]
    assert sorted(names) == sorted([spans.CONFIG_SPAN, *spans.STAGES])
    assert all(s[1] == 0 and s[3] == cid for s in tracer.spans[1:])
    # stage self times plus glue account for the config span
    config_span = tracer.spans[0][5] - tracer.spans[0][4]
    assert sum(spans.self_times(tracer.spans).values()) == pytest.approx(config_span, rel=1e-9)


@pytest.mark.parametrize("plant", ["digest", "exit", "fail_name"])
def test_planted_wrong_reference_fails_the_gate(cli, refs, probe, plant):
    cid = probe[0][0]
    planted = copy.deepcopy(refs)
    ref = planted[cid]
    if plant == "digest":
        digest = ref["sha256"]["rho.csv"]
        ref["sha256"]["rho.csv"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    elif plant == "exit":
        ref["exit"] = 2 if ref["exit"] != 2 else 0
    else:
        ref["fails"] = sorted(ref["fails"] + ["metric_axioms"])
    assert bench.run_pass(cli, probe, refs)["failed"] == []
    failed = bench.run_pass(cli, probe, planted)["failed"]
    assert len(failed) / len(probe) > 0


def test_seed_decides_the_small_sweep_list(refs):
    ids = lambda seed: [workloads.config_id(c) for c in workloads.small_sweep(seed)]
    assert ids(7) == ids(7)
    assert ids(7) != ids(8)
    assert set(ids(7)) != set(ids(8))
    assert len(ids(7)) >= 100
    assert len(set(ids(7))) == len(ids(7))
    every = [workloads.config_id(c) for c in workloads.all_configs()]
    assert set(every) <= set(refs)
    for seed in range(20):
        assert set(ids(seed)) <= set(every)
