"""Executor, cache, and hot-loop regression tests.

The contract under test: *how* a cell is executed -- serially, through a
process pool, from the disk cache, with or without an observer attached
-- must never change its result.  Every comparison here is exact
(``==`` on ints and floats), except that ``manifest.timing.*`` stats are
excluded: those record host wall-clock, the one intentionally
non-deterministic namespace.
"""

import itertools
import json
import os

import pytest

from repro.analysis import experiments
from repro.common.config import default_system_config
from repro.common.errors import SimulationError
from repro.exec import (
    ExperimentExecutor,
    PAYLOAD_SCHEMA,
    ResultCache,
    SimCell,
    default_cache_dir,
    payload_to_result,
    result_to_payload,
    simulate_cell,
)
from repro.obs import EventTracer
from repro.sim.metrics import (
    CoreResult,
    DramReferenceBreakdown,
    ReplayServiceBreakdown,
    RuntimeBreakdown,
    SimulationResult,
)
from repro.sim.system import SystemSimulator
from repro.workloads.registry import make_trace

from tests.result_identity import assert_identical

LENGTH = 900
WORKLOADS = ("xsbench", "mcf")


def _pair_cells():
    config = default_system_config()
    return [
        SimCell("xsbench", config.with_tempo(False), LENGTH),
        SimCell("xsbench", config.with_tempo(True), LENGTH),
    ]


# ----------------------------------------------------------------------
# Driver-level bit-identity: serial uncached vs parallel vs warm cache
# ----------------------------------------------------------------------


def _driver_three_ways(driver, cache_dir):
    kwargs = dict(workloads=WORKLOADS, length=LENGTH, seed=0)
    serial = driver(executor=ExperimentExecutor(), **kwargs)
    cache = ResultCache(str(cache_dir))
    parallel = driver(executor=ExperimentExecutor(workers=2, cache=cache), **kwargs)
    warm_executor = ExperimentExecutor(cache=cache)
    warm = driver(executor=warm_executor, **kwargs)
    return serial, parallel, warm, warm_executor


def test_fig01_parallel_and_cached_match_serial(tmp_path):
    serial, parallel, warm, warm_executor = _driver_three_ways(
        experiments.fig01_runtime_breakdown, tmp_path
    )
    assert parallel["rows"] == serial["rows"]
    assert warm["rows"] == serial["rows"]
    # The warm run resolved every cell from disk: zero new simulations.
    assert warm_executor.counters["simulated"] == 0
    assert warm_executor.counters["cache_hits"] == len(WORKLOADS)


def test_fig10_parallel_and_cached_match_serial(tmp_path):
    serial, parallel, warm, warm_executor = _driver_three_ways(
        experiments.fig10_performance_energy, tmp_path
    )
    assert parallel["rows"] == serial["rows"]
    assert warm["rows"] == serial["rows"]
    assert warm_executor.counters["simulated"] == 0


def test_cell_results_bit_identical_across_paths(tmp_path):
    """Full stats comparison, not just the driver's row projection."""
    serial = ExperimentExecutor().run_cells(_pair_cells())
    cache = ResultCache(str(tmp_path))
    pooled = ExperimentExecutor(workers=2, cache=cache).run_cells(_pair_cells())
    warm = ExperimentExecutor(cache=cache).run_cells(_pair_cells())
    for expected, a, b in zip(serial, pooled, warm):
        assert_identical(expected, a)
        assert_identical(expected, b)


# ----------------------------------------------------------------------
# Sweep telemetry
# ----------------------------------------------------------------------


def test_telemetry_log_records_batch_and_cell_lifecycle(tmp_path):
    from repro.exec import TelemetryLog

    path = str(tmp_path / "telemetry.jsonl")
    log = TelemetryLog(path)
    executor = ExperimentExecutor(telemetry=log)
    cells = _pair_cells()
    executor.run_cells(cells)
    executor.run_cells(cells)  # second batch: served from the memo
    log.close()

    events = [json.loads(line) for line in open(path)]
    assert log.events_written == len(events)
    kinds = [event["event"] for event in events]
    assert kinds.count("batch_start") == 2
    assert kinds.count("batch_finish") == 2
    assert kinds.count("cell_done") == len(cells)
    done = [event for event in events if event["event"] == "cell_done"]
    assert all(event.get("duration_seconds", 0) >= 0 for event in done)
    memo_hits = [
        event for event in events
        if event["event"] == "cache_hit" and event["source"] == "memo"
    ]
    assert len(memo_hits) == len(cells)
    assert all(event["schema"] == 2 for event in events)


def test_telemetry_disk_cache_hits_and_provenance(tmp_path):
    from repro.exec import TelemetryLog
    from repro.obs.manifest import executor_provenance

    cache = ResultCache(str(tmp_path / "cache"))
    ExperimentExecutor(cache=cache).run_cells(_pair_cells())

    path = str(tmp_path / "telemetry.jsonl")
    log = TelemetryLog(path)
    warm = ExperimentExecutor(cache=cache, telemetry=log)
    warm.run_cells(_pair_cells())
    events = [json.loads(line) for line in open(path)]
    disk_hits = [
        event for event in events
        if event["event"] == "cache_hit" and event["source"] == "disk"
    ]
    assert len(disk_hits) == len(_pair_cells())
    rows = dict(executor_provenance(warm))
    assert "telemetry" in rows
    assert path in rows["telemetry"]
    log.close()


def test_telemetry_does_not_change_results(tmp_path):
    from repro.exec import TelemetryLog

    plain = ExperimentExecutor().run_cells(_pair_cells())
    log = TelemetryLog(str(tmp_path / "telemetry.jsonl"))
    logged = ExperimentExecutor(telemetry=log).run_cells(_pair_cells())
    for expected, actual in zip(plain, logged):
        assert_identical(expected, actual)


def test_cell_done_is_announced_only_once_the_cell_is_durable(tmp_path):
    """Durable before visible: at the instant ``cell_done`` fires, a
    re-run process reading the cache directory afresh already finds the
    cell's payload."""
    from repro.exec import TelemetryLog

    cache_dir = str(tmp_path / "cache")
    cells = _pair_cells()
    keys = [cell.key() for cell in cells]
    seen = {}

    class ProbingLog(TelemetryLog):
        def cell_done(self, key, attempt):
            payload, status = ResultCache(cache_dir).get_entry(key)
            seen[key] = (status, payload is not None)
            super().cell_done(key, attempt)

    log = ProbingLog(str(tmp_path / "telemetry.jsonl"))
    ExperimentExecutor(cache=ResultCache(cache_dir), telemetry=log).run_cells(cells)
    log.close()
    assert seen == {key: ("hit", True) for key in keys}


# ----------------------------------------------------------------------
# Cache addressing and invalidation
# ----------------------------------------------------------------------


def test_key_changes_with_config_and_version(monkeypatch):
    config = default_system_config()
    cell = SimCell("xsbench", config, LENGTH)
    assert cell.key() == SimCell("xsbench", config, LENGTH).key()
    assert cell.key() != SimCell("xsbench", config.with_tempo(False), LENGTH).key()
    assert cell.key() != SimCell("xsbench", config, LENGTH, seed=1).key()
    assert cell.key() != SimCell("mcf", config, LENGTH).key()
    monkeypatch.setattr("repro.__version__", "0.0.0+stale")
    assert SimCell("xsbench", config, LENGTH).key() != cell.key()


def test_stale_version_entry_not_reused(tmp_path, monkeypatch):
    """A cache written by another package version is never addressed."""
    cache = ResultCache(str(tmp_path))
    cell = SimCell("xsbench", default_system_config(), LENGTH)
    filled = ExperimentExecutor(cache=cache)
    filled.run_cell(cell)
    assert filled.counters["simulated"] == 1

    monkeypatch.setattr("repro.__version__", "0.0.0+stale")
    fresh = ExperimentExecutor(cache=cache)
    fresh.run_cell(SimCell("xsbench", default_system_config(), LENGTH))
    assert fresh.counters["cache_hits"] == 0
    assert fresh.counters["simulated"] == 1


def test_stale_schema_entry_not_reused(tmp_path):
    """An on-disk payload with the wrong schema is a miss, not a crash."""
    cache = ResultCache(str(tmp_path))
    cell = SimCell("xsbench", default_system_config(), LENGTH)
    expected = ExperimentExecutor(cache=cache).run_cell(cell)

    path = cache.result_path(cell.key())
    with open(path) as stream:
        payload = json.load(stream)
    payload["schema"] = PAYLOAD_SCHEMA + 1
    with open(path, "w") as stream:
        json.dump(payload, stream)

    fresh = ExperimentExecutor(cache=cache)
    result = fresh.run_cell(SimCell("xsbench", default_system_config(), LENGTH))
    assert fresh.counters["simulated"] == 1
    assert_identical(expected, result)


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cache = ResultCache(str(tmp_path))
    cell = SimCell("xsbench", default_system_config(), LENGTH)
    path = cache.result_path(cell.key())
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as stream:
        stream.write("{ torn write")
    assert cache.get(cell.key()) is None


def test_executor_memoizes_and_dedupes(tmp_path):
    executor = ExperimentExecutor(cache=ResultCache(str(tmp_path)))
    cell = SimCell("xsbench", default_system_config(), LENGTH)
    executor.run_cells([cell, SimCell("xsbench", default_system_config(), LENGTH)])
    assert executor.counters["simulated"] == 1
    assert executor.counters["deduped"] == 1
    executor.run_cell(cell)
    assert executor.counters["memo_hits"] == 1
    assert executor.counters["simulated"] == 1


def test_trace_cache_round_trip(tmp_path):
    cache = ResultCache(str(tmp_path))
    trace = make_trace("xsbench", length=LENGTH, seed=0)
    cache.put_trace(trace, LENGTH, 0)
    loaded = cache.get_trace("xsbench", LENGTH, 0)
    assert loaded is not None
    assert len(loaded) == len(trace)
    assert [
        (a.vaddr, a.is_write, a.gap) for a in loaded
    ] == [(b.vaddr, b.is_write, b.gap) for b in trace]


def test_default_cache_dir_is_private_to_the_test(tmp_path_factory):
    # tests/conftest.py keeps every test off the user's result cache.
    cache_dir = default_cache_dir()
    base = str(tmp_path_factory.getbasetemp())
    assert os.path.commonpath([cache_dir, base]) == base
    assert os.listdir(cache_dir) == []


# ----------------------------------------------------------------------
# Payload serialization
# ----------------------------------------------------------------------


def test_serialize_round_trip():
    payload = simulate_cell(SimCell("xsbench", default_system_config(), LENGTH))
    rebuilt = payload_to_result(payload)
    # Through JSON and back, the projection is unchanged.
    assert result_to_payload(rebuilt) == json.loads(json.dumps(payload))


def _sentinel_result():
    """A result whose every slot, at every depth, holds a distinct value."""
    counter = itertools.count(1)
    nested = {
        "runtime": RuntimeBreakdown,
        "dram_refs": DramReferenceBreakdown,
        "replay_service": ReplayServiceBreakdown,
    }

    def filled(cls):
        obj = object.__new__(cls)
        for name in cls.__slots__:
            if name in nested:
                value = filled(nested[name])
            elif name == "cores":
                value = [filled(CoreResult), filled(CoreResult)]
            elif name == "stats":
                value = {"sentinel.%d" % next(counter): next(counter)}
            elif name == "workload_name":
                value = "workload%d" % next(counter)
            elif name == "manifest":
                value = "not serialized"
            else:
                value = next(counter)
            setattr(obj, name, value)
        return obj

    return filled(SimulationResult)


def _assert_same_slots(expected, actual, path):
    assert type(actual) is type(expected), path
    for name in type(expected).__slots__:
        want, got = getattr(expected, name), getattr(actual, name)
        where = "%s.%s" % (path, name)
        if name == "manifest":
            assert got is None, where  # travels in stats as manifest.*
        elif isinstance(want, list):
            assert len(got) == len(want), where
            for index, (one, other) in enumerate(zip(want, got)):
                _assert_same_slots(one, other, "%s[%d]" % (where, index))
        elif hasattr(type(want), "__slots__"):
            _assert_same_slots(want, got, where)
        else:
            assert type(got) is type(want) and got == want, where


def test_payload_round_trips_every_result_slot():
    original = _sentinel_result()
    payload = json.loads(json.dumps(result_to_payload(original)))
    _assert_same_slots(original, payload_to_result(payload), "result")


def test_payload_schema_mismatch_raises():
    with pytest.raises(SimulationError):
        payload_to_result({"schema": PAYLOAD_SCHEMA + 1, "cores": []})


# ----------------------------------------------------------------------
# Hot loop
# ----------------------------------------------------------------------


def test_system_fast_path_matches_event_engine():
    """A tracer hooks into every step of every record, TLB hits
    included; the traced and untraced runs must produce the same
    machine state."""
    config = default_system_config()
    for name in ("xsbench", "bzip2_small"):
        trace = make_trace(name, length=1200, seed=0)
        fast = SystemSimulator(config, [trace], seed=0).run()
        traced = SystemSimulator(
            config, [trace], seed=0, probe=EventTracer(limit=16)
        ).run()
        assert_identical(fast, traced)
