"""Self-tests of the benchmark: ``PYTHONPATH=src python -m pytest bench -q``."""

import json
import os
import re
import statistics
import subprocess
import sys
import time

import pytest

from bench import ROOT
from bench.golden import DigestCheck, load_golden, result_digest
from bench.hostspeed import REFERENCE_S, SpeedProbe
from bench.tracer import ALL_LAYERS, LAYERS, LayerTracer, calibrate, entry_points

with open(os.path.join(ROOT, "BENCHMARK.json")) as _stream:
    SPEC = json.load(_stream)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _attributes():
    return {(owner, name): vars(owner)[name] for _, owner, name in entry_points(LAYERS)}


def _xsbench(length=2000):
    from repro.common.config import default_system_config
    from repro.sim.system import SystemSimulator
    from repro.workloads import registry

    trace = registry.make_trace("xsbench", length=length, seed=0)
    return SystemSimulator(default_system_config(), [trace], seed=0).run()


def test_layer_table_names_existing_entry_points():
    points = list(entry_points(LAYERS))
    assert {layer for layer, _, _ in points} == set(LAYERS)
    for _, owner, name in points:
        assert callable(getattr(owner, name))


def test_patches_restored_by_identity_after_an_exception():
    before = _attributes()
    with pytest.raises(RuntimeError):
        with LayerTracer():
            patched = _attributes()
            assert all(patched[key] is not value for key, value in before.items())
            raise RuntimeError("boom")
    after = _attributes()
    assert all(after[key] is value for key, value in before.items())


def test_failed_install_restores_what_it_patched():
    before = _attributes()
    tracer = LayerTracer(layers=("sim", "mmu", "no-such-layer"))
    with pytest.raises(KeyError):
        tracer.install()
    after = _attributes()
    assert all(after[key] is value for key, value in before.items())


def test_self_times_sum_to_traced_root():
    inner, outer = calibrate(calls=20000, trials=3)
    tracer = LayerTracer(inner_ns=inner, outer_ns=outer)
    with tracer:
        _xsbench()
    corrected = sum(tracer.layer_self_ns(layer) for layer in ALL_LAYERS)
    overhead = tracer.calls() * (inner + outer)
    assert corrected + overhead == pytest.approx(tracer.root_ns, rel=0.01)
    assert tracer.layer_calls("sim") == 2  # __init__ + run
    assert tracer.queue_depth_max >= 1


def test_traced_run_is_digest_identical():
    untraced = result_digest(_xsbench())
    with LayerTracer():
        traced = _xsbench()
    assert result_digest(traced) == untraced


def test_speed_probe_scales_by_the_samples_since_the_mark():
    affinity = os.sched_getaffinity(0)
    probe = SpeedProbe().start()
    try:
        assert probe.scale(1.0, 0) > 0  # waits for a first sample
        mark = probe.mark()
        time.sleep(0.1)
    finally:
        probe.stop()
        os.sched_setaffinity(0, affinity)
    window = probe.samples[mark - 1:]
    assert len(window) > 1
    assert probe.scale(2.0, mark) == pytest.approx(2.0 * REFERENCE_S / statistics.mean(window))


def test_digest_check_counts_mismatches_against_golden():
    golden = load_golden()["0"]
    cell_id, digest = next(iter(golden.items()))
    check = DigestCheck(0)
    failed, problems = check.check(
        {"untraced": {cell_id: [[digest, 3]]}, "traced": {cell_id: [["0" * 64, 2]]}}
    )
    assert failed == 2 and len(problems) == 1


def test_seed_without_golden_checks_later_paths_against_the_first(tmp_path, monkeypatch):
    monkeypatch.setattr("bench.golden.BUILD_DIR", str(tmp_path))
    monkeypatch.setattr("bench.golden.OBSERVED_PATH", str(tmp_path / "observed.json"))
    first = DigestCheck(10**6)
    assert not first.has_golden
    assert first.check({"untraced": {"cell": [["a" * 64, 2]]}}) == (0, [])
    first.save()
    failed, problems = DigestCheck(10**6).check({"traced": {"cell": [["b" * 64, 1]]}})
    assert failed == 1 and "traced cell" in problems[0]


def test_golden_covers_every_cell_for_seed_0():
    from bench.workloads import WORKLOADS

    golden = load_golden()["0"]
    for name, factory in WORKLOADS.items():
        for cell in factory().cells:
            assert re.fullmatch(r"[0-9a-f]{64}", golden[cell.cell_id]), (name, cell.cell_id)


def test_benchmark_json_matches_the_code():
    from bench.workloads import WORKLOADS

    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [entry["name"] for entry in SPEC["workloads"]] == list(WORKLOADS)
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in SPEC["end_to_end"]
    for layer in ALL_LAYERS:
        assert layer + ".share" in names


@pytest.mark.parametrize("trace", [0, 1])
def test_output_has_every_listed_metric(trace):
    """Every workload makes its metrics the same way, so the quickest
    one stands for all; ``--seconds 0`` runs the fewest processes."""
    workload = "mix_bliss"
    completed = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in listed}
    for entry in listed:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
        assert "%s %s " % (workload, entry["name"]) in completed.stdout
    if trace:
        shares = sum(result["metrics"][layer + ".share"]["value"] for layer in ALL_LAYERS)
        assert shares == pytest.approx(1.0, abs=0.01)
