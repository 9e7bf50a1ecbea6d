"""Tests for the runtime-verification subsystem (``repro.verify``).

The seeded-bug tests are the core contract: each plants one specific
corruption in a finished machine and asserts that *exactly* the intended
auditor catches it -- proof that every auditor detects the failure class
it claims, and that none of them misfires on its neighbours' bugs.
"""

import json
import os

import pytest

from repro.common.config import CacheConfig, default_system_config
from repro.common.errors import ConfigError, InvariantViolation, SimulationError
from repro.exec import ExperimentExecutor, ResultCache, SimCell
from repro.exec.cache import QuarantineReason
from repro.exec.resilience import CellExecutionError, ResiliencePolicy
from repro.obs import CompositeProbe
from repro.obs.manifest import without_timing
from repro.sim.runner import run_workload
from repro.sim.system import SystemSimulator
from repro.verify import (
    AuditorSuite,
    FlightRecorder,
    InvariantAuditor,
    Violation,
    run_verification,
)
from repro.verify.oracles import ALL_ORACLES
from repro.workloads.registry import make_trace

LENGTH = 1500
WORKLOAD = "btree"


def _finished_machine(tempo=True, length=LENGTH):
    """A SystemSimulator that has completed a run: real populated TLBs,
    caches, page tables, and counters for the auditors to inspect."""
    config = default_system_config().with_tempo(tempo)
    trace = make_trace(WORKLOAD, length=length, seed=0)
    sim = SystemSimulator(config, [trace], seed=0)
    sim.run()
    return sim


@pytest.fixture(scope="function")
def machine():
    return _finished_machine()


def _auditors_firing(violations):
    return {violation.auditor for violation in violations}


def _invariants_firing(violations):
    return {violation.invariant for violation in violations}


# ----------------------------------------------------------------------
# Seeded bugs: each corruption is caught by exactly one auditor
# ----------------------------------------------------------------------


def test_clean_machine_passes_every_auditor(machine):
    suite = AuditorSuite("full")
    assert suite.audit_all(machine) == []


def test_corrupt_tlb_entry_caught_by_tlb_coherence(machine):
    suite = AuditorSuite("full")
    assert suite.audit_all(machine) == []
    tlb = machine.cores[0].tlb
    array = next(a for a in tlb._l1.values() if any(a._sets))
    entries = next(s for s in array._sets if s)
    vpn = next(iter(entries))
    entries[vpn] ^= 0x1000_0000  # point the cached translation elsewhere
    violations = suite.audit_all(machine)
    assert violations
    assert _auditors_firing(violations) == {"tlb_coherence"}
    assert _invariants_firing(violations) <= {"frame_mismatch", "stale_translation"}


def test_dropped_stat_increment_caught_by_stat_conservation(machine):
    suite = AuditorSuite("full")
    assert suite.audit_all(machine) == []
    tlb = machine.cores[0].tlb
    assert tlb.stats.peek("l1_hits") > 0
    tlb.stats.counter("l1_hits").value -= 1  # one lost increment
    violations = suite.audit_all(machine)
    assert violations
    assert _auditors_firing(violations) == {"stat_conservation"}
    assert "tlb_l1_hit_sum" in _invariants_firing(violations)


def test_spurious_prefetch_caught_by_tempo_causality(machine):
    suite = AuditorSuite("full")
    assert suite.audit_all(machine) == []
    # The engine hook claims a prefetch that never entered the queues.
    machine.controller.stats.counter("tempo_prefetches_enqueued").value += 1
    violations = suite.audit_all(machine)
    assert violations
    assert _auditors_firing(violations) == {"tempo_causality"}
    assert "prefetch_provenance" in _invariants_firing(violations)


def test_misplaced_cache_line_caught_by_cache_sanity(machine):
    suite = AuditorSuite("full")
    assert suite.audit_all(machine) == []
    llc = machine.hierarchy.llc
    index, entries = next(
        (i, s) for i, s in enumerate(llc._sets) if s
    )
    line_id = next(iter(entries))
    dirty = entries.pop(line_id)
    llc._sets[(index + 1) % llc.num_sets][line_id] = dirty
    violations = suite.audit_all(machine)
    assert violations
    assert _auditors_firing(violations) == {"cache_sanity"}
    assert "misplaced_line" in _invariants_firing(violations)


def test_clock_rewind_caught_by_dram_legality(machine):
    suite = AuditorSuite("full")
    assert suite.audit_all(machine) == []  # records the monotonic marks
    machine.controller._clock[0] -= 5
    violations = suite.audit_all(machine)
    assert violations
    assert _auditors_firing(violations) == {"dram_legality"}
    assert "channel_clock_monotonic" in _invariants_firing(violations)


def test_tempo_counters_with_tempo_off_caught_by_tempo_causality():
    machine = _finished_machine(tempo=False, length=600)
    suite = AuditorSuite("full")
    assert suite.audit_all(machine) == []
    machine.cores[0].walker.stats.counter("tagged_leaf_requests").value += 1
    violations = suite.audit_all(machine)
    assert _auditors_firing(violations) == {"tempo_causality"}
    assert "tagging_without_engine" in _invariants_firing(violations)


def _machine_with_queued_writebacks():
    """A TEMPO-off run on caches small enough that dirty LLC victims
    appear within a short trace.  A single-core run holds its writebacks
    until the end-of-run drain; skipping that drain leaves them queued
    for the auditors."""
    config = default_system_config().with_tempo(False).copy_with(
        l1=CacheConfig(size_bytes=4096, assoc=2),
        l2=CacheConfig(size_bytes=8192, assoc=2),
        llc=CacheConfig(size_bytes=16384, assoc=2),
    )
    sim = SystemSimulator(config, [make_trace("mcf", length=1500, seed=0)], seed=0)
    sim.controller.drain_all = lambda: sim.controller.now
    sim.run()
    queued = list(sim.controller.queued_requests())
    assert queued and all(request.kind == "writeback" for request in queued)
    return sim


def test_queued_writebacks_audit_clean():
    machine = _machine_with_queued_writebacks()
    assert AuditorSuite("full").audit_all(machine) == []


def test_lost_queued_writeback_caught_by_stat_conservation():
    machine = _machine_with_queued_writebacks()
    suite = AuditorSuite("full")
    assert suite.audit_all(machine) == []
    lost = next(iter(machine.controller.queued_requests()))
    machine.controller._remove_writeback(lost)
    violations = suite.audit_all(machine)
    assert _auditors_firing(violations) == {"stat_conservation"}
    assert _invariants_firing(violations) == {"queue_accounting"}


# ----------------------------------------------------------------------
# The suite: checkpointing, raising, and the flight-recorder dump
# ----------------------------------------------------------------------


def test_checkpoint_raises_with_flight_recorder_attached(machine):
    recorder = FlightRecorder(capacity=8)
    recorder.record("ref", vaddr=0x1000, cpu=0)
    suite = AuditorSuite("full", recorder=recorder)
    machine.cores[0].tlb.stats.counter("l1_hits").value += 3
    with pytest.raises(InvariantViolation) as info:
        suite.checkpoint(machine, quiescent=True)
    error = info.value
    assert error.auditor == "stat_conservation"
    assert error.invariant == "tlb_l1_hit_sum"
    dump = error.context["flight_recorder"]
    assert dump["events"] and dump["events"][-1]["vaddr"] == 0x1000
    assert suite.violations_found == 1


def test_suite_rejects_unknown_mode():
    with pytest.raises(InvariantViolation):
        AuditorSuite("paranoid")


def test_violation_during_run_dumps_crash_report(capsys):
    config = default_system_config().with_tempo(True)
    trace = make_trace(WORKLOAD, length=LENGTH, seed=0)

    class PlantedFailure(InvariantAuditor):
        name = "planted"

        def audit(self, machine, quiescent=False):
            yield Violation("planted", "always", "planted failure")

    # What ``check_invariants="full"`` attaches, plus the planted auditor.
    recorder = FlightRecorder()
    suite = AuditorSuite("full", recorder=recorder)
    suite.auditors.append(PlantedFailure())
    sim = SystemSimulator(config, [trace], seed=0, probe=CompositeProbe([recorder, suite]))
    with pytest.raises(InvariantViolation) as info:
        sim.run()
    assert "flight_recorder" in info.value.context
    report = json.loads(capsys.readouterr().err)
    assert report["error"] == "InvariantViolation"
    assert "planted/always" in report["message"]
    assert report["context"]["flight_recorder"]["events"]
    assert "cycle" in report["context"]


# ----------------------------------------------------------------------
# End-to-end: audited runs are bit-identical and violation-free
# ----------------------------------------------------------------------


def test_full_audit_is_bit_identical_to_off():
    config = default_system_config().with_tempo(True)
    off = run_workload(WORKLOAD, config=config, length=LENGTH, seed=0)
    full = run_workload(
        WORKLOAD, config=config, length=LENGTH, seed=0, check_invariants="full"
    )
    assert without_timing(off.stats) == without_timing(full.stats)
    assert off.manifest.audit is None
    audit = full.manifest.audit
    assert audit["mode"] == "full"
    assert audit["violations"] == 0
    assert audit["checkpoints"] >= 2  # interval checkpoints + final drain
    assert audit["flight_recorder"]["recorded"] > 0
    # The audit summary rides in the nested manifest, never in flat().
    assert "manifest.audit" not in full.stats
    assert "audit" in full.manifest.as_dict()


def test_multicore_full_audit_runs_clean():
    from repro.sim.multicore import MulticoreSimulator

    config = default_system_config().copy_with(num_cores=2)
    traces = [
        make_trace(WORKLOAD, length=700, seed=0),
        make_trace("graph500", length=700, seed=1),
    ]
    results = MulticoreSimulator(
        config, traces, check_invariants="full"
    ).run()
    audit = results.shared.manifest.audit
    assert audit["violations"] == 0
    assert audit["checkpoints"] >= 1


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------


def test_flight_recorder_bounds_and_dump():
    recorder = FlightRecorder(capacity=4)
    for i in range(10):
        recorder.record("ref", i=i)
    assert len(recorder) == 4
    assert recorder.recorded == 10
    assert recorder.dropped == 6
    dump = recorder.dump()
    assert [event["i"] for event in dump["events"]] == [6, 7, 8, 9]
    assert dump["capacity"] == 4 and dump["dropped"] == 6
    json.dumps(dump)  # must be serialisable as-is


def test_flight_recorder_rejects_bad_capacity():
    with pytest.raises(ConfigError):
        FlightRecorder(capacity=0)


# ----------------------------------------------------------------------
# Executor integration: violations quarantine, never cache, never retry
# ----------------------------------------------------------------------


def test_invariant_violation_quarantines_cell_without_retry(tmp_path, monkeypatch):
    calls = []

    def planted_violation(cell, cache=None, trace_memo=None, check_invariants=None):
        calls.append(cell.key())
        raise InvariantViolation(
            "tempo_causality", "leaf_prefetch_bijection", "planted", {"built": 3}
        )

    monkeypatch.setattr("repro.exec.executor.simulate_cell", planted_violation)
    cache = ResultCache(str(tmp_path))
    executor = ExperimentExecutor(
        cache=cache,
        resilience=ResiliencePolicy(max_retries=3),
        check_invariants="full",
    )
    cell = SimCell(WORKLOAD, default_system_config(), 400)
    with pytest.raises(CellExecutionError):
        executor.run_cells([cell])
    assert len(calls) == 1  # terminal failure: retries would reproduce it
    assert executor.counters["quarantined"] == 1
    assert executor.counters["retries"] == 0
    assert executor.quarantine_reasons == {"invariant-violation": 1}
    key = cell.key()
    assert cache.get(key) is None  # the result was never cached
    evidence_path = os.path.join(
        str(tmp_path),
        "quarantine",
        key[:2],
        "%s.invariant-violation.evidence.json" % key,
    )
    assert os.path.exists(evidence_path)
    with open(evidence_path) as stream:
        evidence = json.load(stream)
    assert evidence["error"].startswith("InvariantViolation")
    assert evidence["attempts"] == 1
    assert "quarantine: 1 invariant-violation" in executor.summary()


def test_quarantine_reason_labels_land_in_filenames(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = "ab" + "0" * 62
    cache.put(key, {"schema": "old"})
    dest = cache.quarantine(key, QuarantineReason.STALE_SCHEMA)
    assert dest.endswith("%s.stale-schema.json" % key)
    assert cache.get(key) is None


# ----------------------------------------------------------------------
# Misc hardening that rides with the verify subsystem
# ----------------------------------------------------------------------


def test_walker_rejects_completing_faulted_plan(machine):
    walker = machine.cores[0].walker
    plan = walker.plan(0xDEAD_0000_0000_0000 & ((1 << 48) - 1))
    assert plan.faulted
    with pytest.raises(SimulationError) as info:
        walker.complete(plan)
    assert info.value.context["vaddr"] == plan.vaddr


# ----------------------------------------------------------------------
# Differential oracles
# ----------------------------------------------------------------------


def test_oracles_all_pass_quick():
    lines = []
    results = run_verification(out=lines.append, quick=True, length=500)
    assert [result.name for result in results] == [
        oracle.__name__.replace("oracle_", "") for oracle in ALL_ORACLES
    ]
    assert all(result.passed for result in results), lines
    assert len(lines) == len(results)
    assert all(line.startswith("PASS") for line in lines)
