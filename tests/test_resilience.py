"""Fault-tolerance tests: retries, timeouts, crashes, quarantine, re-runs.

The contract under test extends test_exec's: not only must every
execution path produce bit-identical results, every *failure* path must
too.  A worker killed mid-cell, a cell that times out and retries, a
corrupted cache entry, or a sweep aborted mid-run and run again --
none of it may change a single bit of the final stats (wall-clock
``manifest.timing.*`` excluded, as everywhere).

Faults are injected deterministically through
:class:`repro.exec.FaultPlan` / :class:`repro.exec.FaultSpec`
(``docs/resilience.md``), so these tests exercise the real process
isolation, kill, and re-run machinery without any flakiness.
"""

import json
import os

import pytest

from repro.common.config import default_system_config
from repro.exec import (
    CellExecutionError,
    ExperimentExecutor,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    PAYLOAD_SCHEMA,
    ResiliencePolicy,
    ResultCache,
    SimCell,
    SweepAborted,
    missing_cell_payload,
    payload_to_result,
)

from tests.result_identity import assert_identical

LENGTH = 600


def _cells(count=4):
    config = default_system_config()
    return [SimCell("xsbench", config, LENGTH, seed=seed) for seed in range(count)]


@pytest.fixture(scope="module")
def clean_results():
    """The fault-free reference: four cells, serial, uncached."""
    return ExperimentExecutor().run_cells(_cells())


# ----------------------------------------------------------------------
# Retries: in-process faults and crashed workers
# ----------------------------------------------------------------------


def test_inline_injected_fault_retries_to_identical_result(tmp_path, clean_results):
    cells = _cells()
    plan = FaultPlan(fail={cells[1].key(): (0,), cells[3].key(): (0,)})
    executor = ExperimentExecutor(cache=ResultCache(str(tmp_path)), faults=plan)
    results = executor.run_cells(cells)
    assert executor.counters["retries"] == 2
    assert executor.counters["simulated"] == 4
    assert not executor.failed_cells
    for expected, actual in zip(clean_results, results):
        assert_identical(expected, actual)


def test_worker_crash_mid_batch_requeues_on_fresh_worker(tmp_path, clean_results):
    """A kill fault ``os._exit``s the worker mid-cell; the scheduler must
    detect the dead process and re-run the cell, not hang the batch."""
    cells = _cells()
    plan = FaultPlan(kill={cells[0].key(): (0,), cells[2].key(): (0,)})
    executor = ExperimentExecutor(
        workers=2, cache=ResultCache(str(tmp_path)), faults=plan
    )
    results = executor.run_cells(cells)
    assert executor.counters["crashes"] == 2
    assert executor.counters["retries"] == 2
    for expected, actual in zip(clean_results, results):
        assert_identical(expected, actual)


def _hang_killed_then_retried(tmp_path, clean_results, cell_timeout):
    """A cell delayed 30 s on its first attempt must be killed at its
    deadline and succeed on the retry (injected faults fire on attempt 0
    only), bit-identically."""
    cells = _cells(2)
    plan = FaultPlan(delay={cells[1].key(): ((0, 30.0),)})
    executor = ExperimentExecutor(
        workers=2,
        cache=ResultCache(str(tmp_path)),
        faults=plan,
        resilience=ResiliencePolicy(max_retries=2, cell_timeout=cell_timeout),
    )
    results = executor.run_cells(cells)
    assert executor.counters["timeouts"] == 1
    assert executor.counters["retries"] == 1
    for expected, actual in zip(clean_results[:2], results):
        assert_identical(expected, actual)


def test_cell_timeout_kills_then_succeeds_on_retry(tmp_path, clean_results):
    _hang_killed_then_retried(tmp_path, clean_results, cell_timeout=5.0)


def test_derived_deadline_kills_then_succeeds_on_retry(
    tmp_path, clean_results, monkeypatch
):
    """No ``cell_timeout``: the pool's deadline derived from the cell's
    records is what catches the hang (shrunk here to keep the test
    fast)."""
    import repro.exec.pool as pool

    monkeypatch.setattr(pool, "DEADLINE_FLOOR_SECONDS", 5.0)
    monkeypatch.setattr(pool, "DEADLINE_SECONDS_PER_RECORD", 0.0)
    _hang_killed_then_retried(tmp_path, clean_results, cell_timeout=None)


# ----------------------------------------------------------------------
# Retries exhausted: abort vs graceful degradation
# ----------------------------------------------------------------------


def test_exhausted_retries_raise_without_allow_partial(tmp_path):
    cells = _cells(2)
    plan = FaultPlan(fail={cells[0].key(): (0, 1)})
    executor = ExperimentExecutor(
        cache=ResultCache(str(tmp_path)),
        faults=plan,
        resilience=ResiliencePolicy(max_retries=1),
    )
    with pytest.raises(CellExecutionError) as excinfo:
        executor.run_cells(cells)
    assert len(excinfo.value.failures) == 1
    assert excinfo.value.failures[0].workloads == "xsbench"
    # The healthy cell still completed and was cached before the raise.
    assert executor.counters["simulated"] == 1


def test_allow_partial_degrades_to_marked_missing_cells(tmp_path, clean_results):
    cells = _cells(2)
    plan = FaultPlan(fail={cells[0].key(): (0, 1)})
    executor = ExperimentExecutor(
        cache=ResultCache(str(tmp_path)),
        faults=plan,
        resilience=ResiliencePolicy(max_retries=1, allow_partial=True),
    )
    results = executor.run_cells(cells)
    assert executor.counters["failed"] == 1
    assert len(executor.failed_cells) == 1
    assert executor.failed_cells[0].key == cells[0].key()
    # The missing cell is explicit zeros with the marker stat...
    assert results[0].stats["missing_cell"] == 1
    assert results[0].total_cycles == 0
    # ...the healthy one is untouched...
    assert_identical(clean_results[1], results[1])
    # ...and the placeholder was never cached: a later run re-simulates.
    retry = ExperimentExecutor(cache=ResultCache(str(tmp_path)))
    fresh = retry.run_cells(cells)
    assert retry.counters["simulated"] == 1
    assert retry.counters["cache_hits"] == 1
    assert_identical(clean_results[0], fresh[0])


def test_missing_cell_payload_is_schema_correct():
    cell = SimCell("xsbench", default_system_config(), LENGTH)
    payload = missing_cell_payload(cell)
    assert payload["schema"] == PAYLOAD_SCHEMA
    result = payload_to_result(json.loads(json.dumps(payload)))
    assert result.stats["missing_cell"] == 1
    assert result.core.runtime.fraction("ptw") == 0.0
    assert result.core.replay_service.fraction("llc") == 0.0


# ----------------------------------------------------------------------
# Quarantine: bad cache entries are moved aside, never deleted
# ----------------------------------------------------------------------


def test_corrupt_entry_is_quarantined_and_resimulated(tmp_path, clean_results):
    cache = ResultCache(str(tmp_path))
    cells = _cells(1)
    seeded = ExperimentExecutor(cache=cache)
    seeded.run_cells(cells)

    path = cache.result_path(cells[0].key())
    with open(path, "w") as stream:
        stream.write("{ torn write")

    executor = ExperimentExecutor(cache=cache)
    results = executor.run_cells(cells)
    assert executor.counters["quarantined"] == 1
    assert executor.counters["simulated"] == 1
    assert executor.counters["cache_hits"] == 0
    assert_identical(clean_results[0], results[0])
    # The bad entry was preserved, not deleted.
    quarantine_dir = os.path.join(str(tmp_path), "quarantine")
    quarantined = [
        name
        for _, _, names in os.walk(quarantine_dir)
        for name in names
    ]
    assert len(quarantined) == 1
    assert "corrupt" in quarantined[0]


def test_stale_schema_entry_is_quarantined(tmp_path):
    cache = ResultCache(str(tmp_path))
    cells = _cells(1)
    ExperimentExecutor(cache=cache).run_cells(cells)

    path = cache.result_path(cells[0].key())
    with open(path) as stream:
        payload = json.load(stream)
    payload["schema"] = PAYLOAD_SCHEMA + 1
    with open(path, "w") as stream:
        json.dump(payload, stream)

    executor = ExperimentExecutor(cache=cache)
    executor.run_cells(cells)
    assert executor.counters["quarantined"] == 1
    assert executor.counters["simulated"] == 1
    quarantined = [
        name
        for _, _, names in os.walk(os.path.join(str(tmp_path), "quarantine"))
        for name in names
    ]
    assert quarantined and "stale" in quarantined[0]


def test_fault_plan_corruption_feeds_quarantine(tmp_path):
    """The harness's ``corrupt`` fault garbles real entries in place and
    the next resolution quarantines and re-simulates them."""
    cache = ResultCache(str(tmp_path))
    cells = _cells(2)
    ExperimentExecutor(cache=cache).run_cells(cells)

    plan = FaultPlan(corrupt=(cells[0].key(),))
    executor = ExperimentExecutor(cache=cache, faults=plan)
    executor.run_cells(cells)
    assert executor.counters["quarantined"] == 1
    assert executor.counters["simulated"] == 1
    assert executor.counters["cache_hits"] == 1


# ----------------------------------------------------------------------
# Killed mid-run, then run again: zero re-simulation
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2])
def test_kill_at_checkpoint_then_resume_is_bit_identical(
    tmp_path, clean_results, workers
):
    """The acceptance scenario: a sweep aborted mid-run and run again
    must produce bit-identical results with zero re-simulated cells --
    on the in-process path (one worker) and on the pool alike.  The
    result cache is the record of what completed."""
    cache_root = str(tmp_path)
    cells = _cells()

    aborted = ExperimentExecutor(
        workers=workers, cache=ResultCache(cache_root), faults=FaultPlan(abort_after=2)
    )
    with pytest.raises(SweepAborted):
        aborted.run_cells(cells)

    rerun = ExperimentExecutor(workers=workers, cache=ResultCache(cache_root))
    results = rerun.run_cells(cells)
    # Zero re-simulation of completed cells: 2 served from the cache,
    # only the 2 interrupted ones simulated.
    assert rerun.counters["cache_hits"] == 2
    assert rerun.counters["simulated"] == 2
    for expected, actual in zip(clean_results, results):
        assert_identical(expected, actual)


# ----------------------------------------------------------------------
# The fault harness itself
# ----------------------------------------------------------------------


def test_fault_spec_parse_and_determinism():
    spec = FaultSpec.parse("seed=7,kill=0.5,fail=0.25,delay=0.5,delay-seconds=0.2")
    assert spec.seed == 7
    assert spec.kill_rate == 0.5
    assert spec.delay_seconds == 0.2
    keys = ["cell-%d" % index for index in range(32)]
    first = spec.materialize(keys)
    second = spec.materialize(list(reversed(keys)))
    # Same spec, same keys -> the same plan, regardless of order.
    assert first == second
    assert any(first.kill.values())
    with pytest.raises(ValueError):
        FaultSpec.parse("seed=1,unknown=2")


def test_fault_plan_inject_raises_on_schedule():
    plan = FaultPlan(fail={"k": (1,)}, delay={"k": ((0, 0.0),)})
    plan.inject("k", 0)  # nothing scheduled on attempt 0
    with pytest.raises(InjectedFault):
        plan.inject("k", 1)


def test_needs_isolation_routing():
    """The persistent pool amortizes spawn cost, so any multi-cell batch
    with workers > 1 pools; single cells and workers=1 stay inline, and
    kill faults or a cell timeout always force the pool."""
    from repro.exec.resilience import needs_isolation

    config = default_system_config()
    policy = ResiliencePolicy()
    several = {
        str(index): SimCell("btree", config, 800, seed=index)
        for index in range(4)
    }
    one = {"0": SimCell("btree", config, 800, seed=0)}
    assert needs_isolation(4, policy, None, pending=several)
    assert not needs_isolation(4, policy, None, pending=one)
    # workers=1 never pools on its own; a cell timeout always does.
    assert not needs_isolation(1, policy, None, pending=several)
    timeout_policy = ResiliencePolicy(cell_timeout=5.0)
    assert needs_isolation(1, timeout_policy, None, pending=one)
    # Kill faults need a killable process regardless of size.
    kills = FaultPlan(kill={"0": (0,)})
    assert needs_isolation(1, policy, kills, pending=one)
