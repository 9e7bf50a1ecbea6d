"""The bench artifact's cross-PR trajectory: each refresh re-embeds the
previous file's history plus the previous run itself, so the committed
``BENCH_perf.json`` accumulates a comparable perf record."""

import json
import os

from tools.bench import TRAJECTORY_LIMIT, _trajectory_entry, load_trajectory


def payload(version, trajectory=()):
    return {
        "schema": 2,
        "package_version": version,
        "generated_utc": "2026-01-01 00:00:00",
        "length": 800,
        "cpu_count": 2,
        "workloads": {
            "gups": {"records": 800, "seconds": 0.1, "records_per_sec": 8000},
            "stream": {"records": 800, "seconds": 0.05, "records_per_sec": 16000},
        },
        "figures": {
            "fig01": {"warm_cache_speedup": 10.0},
        },
        "trajectory": list(trajectory),
    }


def test_missing_file_starts_empty_history(tmp_path):
    assert load_trajectory(str(tmp_path / "absent.json")) == []


def test_corrupt_file_starts_empty_history(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert load_trajectory(str(path)) == []


def test_previous_run_is_appended_to_its_own_history(tmp_path):
    path = tmp_path / "BENCH_perf.json"
    older = _trajectory_entry(payload("0.9.0"))
    path.write_text(json.dumps(payload("1.0.0", trajectory=[older])))

    trajectory = load_trajectory(str(path))
    assert [entry["package_version"] for entry in trajectory] == ["0.9.0", "1.0.0"]
    newest = trajectory[-1]
    assert newest["min_records_per_sec"] == 8000
    assert newest["max_records_per_sec"] == 16000
    assert newest["warm_cache_speedups"] == {"fig01": 10.0}
    assert newest["length"] == 800


def test_history_is_capped(tmp_path):
    path = tmp_path / "BENCH_perf.json"
    old = [_trajectory_entry(payload("0.%d" % i)) for i in range(TRAJECTORY_LIMIT + 5)]
    path.write_text(json.dumps(payload("1.0.0", trajectory=old)))

    trajectory = load_trajectory(str(path))
    assert len(trajectory) == TRAJECTORY_LIMIT
    assert trajectory[-1]["package_version"] == "1.0.0"  # newest survives the cap


def test_schema2_history_compacts_without_batch_fields():
    """Pre-batch-kernel artifacts (schema 2) still compact cleanly --
    they just have no batch_speedup bounds."""
    entry = _trajectory_entry(payload("0.9.0"))
    assert "min_batch_speedup" not in entry
    assert "max_batch_speedup" not in entry


def test_schema3_history_compacts_batch_speedups():
    data = payload("1.1.0")
    data["schema"] = 3
    for name, ratio in (("gups", 0.9), ("stream", 1.2)):
        data["workloads"][name]["batch_speedup"] = ratio
    entry = _trajectory_entry(data)
    assert entry["min_batch_speedup"] == 0.9
    assert entry["max_batch_speedup"] == 1.2


def test_pre_pool_history_compacts_without_pool_speedups():
    """Schema <= 3 figure rows recorded ``parallel_speedup`` from the
    retired per-cell-spawn executor; compaction must not invent a pool
    number for them."""
    data = payload("1.1.0")
    data["figures"]["fig01"]["parallel_speedup"] = 0.8
    entry = _trajectory_entry(data)
    assert "pool_speedups" not in entry
    assert entry["warm_cache_speedups"] == {"fig01": 10.0}


def test_schema4_history_compacts_pool_speedups():
    data = payload("1.2.0")
    data["schema"] = 4
    data["figures"]["fig01"]["pool_speedup"] = 1.7
    entry = _trajectory_entry(data)
    assert entry["pool_speedups"] == {"fig01": 1.7}


def test_committed_artifact_has_a_trajectory():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCH_perf.json")) as stream:
        committed = json.load(stream)
    assert committed["schema"] >= 4
    for row in committed["figures"].values():
        assert row["pool_speedup"] is not None
    assert isinstance(committed["trajectory"], list)
    assert committed["trajectory"], "committed BENCH_perf.json has an empty trajectory"
    for name, row in committed["workloads"].items():
        assert row["records_per_sec"], name
