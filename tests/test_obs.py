"""Tests for the observability layer (repro.obs)."""

import json
from dataclasses import replace

import pytest

from repro.common.config import default_system_config
from repro.obs import (
    CompositeProbe,
    EventTracer,
    MetricsRegistry,
    PhaseProfiler,
    RunManifest,
    TimelineRecorder,
    write_stats_csv,
    write_stats_json,
)
from repro.obs.manifest import config_hash, without_timing
from repro.common.stats import StatGroup
from repro.sim.multicore import MulticoreSimulator
from repro.sim.runner import run_workload
from repro.sim.system import SystemSimulator
from repro.workloads.registry import make_trace


# ----------------------------------------------------------------------
# EventTracer
# ----------------------------------------------------------------------


def test_tracer_records_spans():
    tracer = EventTracer()
    tracer.span("walk", 0, 100, 250, {"levels": 4})
    events = tracer.chrome_trace()
    assert len(events) == 1
    (span,) = events
    assert span["ph"] == "X" and span["ts"] == 100 and span["dur"] == 150
    assert span["tid"] == 0 and span["args"] == {"levels": 4}


def test_tracer_limit_counts_drops():
    tracer = EventTracer(limit=2)
    for i in range(5):
        tracer.span("s", 0, i, i + 1)
    assert len(tracer) == 2
    assert tracer.dropped == 3
    events = tracer.chrome_trace()
    assert events[-1]["name"] == "tracer_dropped_events"
    assert events[-1]["args"]["dropped"] == 3


def test_tracer_chrome_export_round_trips(tmp_path):
    tracer = EventTracer()
    tracer.span("dram", 2, 10, 60, {"kind": "pt"})
    path = str(tmp_path / "trace.json")
    written = tracer.write_chrome_trace(path)
    assert written == 1
    loaded = json.load(open(path))
    assert isinstance(loaded, list)
    assert loaded[0]["ts"] == 10 and loaded[0]["dur"] == 50


# ----------------------------------------------------------------------
# MetricsRegistry + exporters
# ----------------------------------------------------------------------


def test_registry_collects_with_prefixes():
    registry = MetricsRegistry()
    shared = StatGroup("controller")
    shared.counter("served").add(3)
    scoped = StatGroup("tlb")
    scoped.counter("hits").add(7)
    registry.register(shared)
    registry.register(scoped, "core0")
    flat = registry.collect()
    assert flat == {"controller.served": 3, "core0.tlb.hits": 7}


def test_stats_exporters_round_trip(tmp_path):
    stats = {"a.b": 1, "a.c": 2.5, "manifest.version": "1.0"}
    json_path = str(tmp_path / "s.json")
    csv_path = str(tmp_path / "s.csv")
    assert write_stats_json(stats, json_path) == 3
    assert json.load(open(json_path)) == stats
    assert write_stats_csv(stats, csv_path) == 3
    lines = open(csv_path).read().strip().splitlines()
    assert lines[0] == "metric,value"
    assert len(lines) == 4


# ----------------------------------------------------------------------
# RunManifest
# ----------------------------------------------------------------------


def test_manifest_identity_and_flat():
    config = default_system_config()
    trace = make_trace("bzip2_small", length=300, seed=3)
    manifest = RunManifest(config, seed=3, traces=[trace], warmup_records=100)
    assert manifest.config_sha256 == config_hash(config)
    assert manifest.traces[0]["name"] == trace.name
    assert manifest.traces[0]["records"] == len(trace.records)
    flat = manifest.flat()
    assert flat["manifest.seed"] == 3
    assert flat["manifest.workloads"] == trace.name
    assert flat["manifest.warmup_records"] == 100
    # The nested form must be JSON-serialisable (config snapshot included).
    json.loads(manifest.to_json())


def test_manifest_hash_tracks_config_changes():
    base = default_system_config()
    changed = base.with_tempo(False)
    assert config_hash(base) != config_hash(changed)
    assert config_hash(base) == config_hash(default_system_config())


# ----------------------------------------------------------------------
# PhaseProfiler
# ----------------------------------------------------------------------


def test_profiler_accumulates_phases():
    profiler = PhaseProfiler()
    with profiler.phase("a"):
        pass
    with profiler.phase("b"):
        pass
    summary = profiler.summary(records=1000)
    assert set(summary) >= {"wall_seconds", "wall_seconds.a", "wall_seconds.b"}
    assert summary["records"] == 1000
    assert summary["records_per_second"] >= 0.0


# ----------------------------------------------------------------------
# Simulator integration
# ----------------------------------------------------------------------


def test_run_harvests_per_core_stats_and_manifest():
    trace = make_trace("bzip2_small", length=600, seed=1)
    result = run_workload(trace, length=600, seed=1)
    stats = result.stats
    assert any(key.startswith("core0.tlb.") for key in stats)
    assert any(key.startswith("core0.mmu_cache.") for key in stats)
    assert any(key.startswith("core0.walker.") for key in stats)
    assert any(key.startswith("core0.l1.") for key in stats)
    assert any(key.startswith("controller.") for key in stats)
    assert any(key.startswith("energy.") for key in stats)
    assert any(key.startswith("manifest.") for key in stats)
    assert result.manifest is not None
    assert stats["manifest.config_sha256"] == result.manifest.config_sha256
    assert "wall_seconds" in result.manifest.timings
    assert result.manifest.timings["records"] == len(trace.records)


@pytest.mark.xfail(
    strict=True,
    reason="metrics_registry registers only the TEMPO grouping wrapper's stats, "
    "not the wrapped policy's (ROADMAP item 2)",
)
def test_wrapped_scheduler_counters_reach_result_stats():
    config = default_system_config()
    config = config.copy_with(
        num_cores=2, scheduler=replace(config.scheduler, policy="bliss")
    ).with_tempo(True)
    traces = [
        make_trace("bzip2_small", length=400, seed=0),
        make_trace("gcc_small", length=400, seed=0),
    ]
    simulator = SystemSimulator(config, traces)
    result = simulator.run()
    wrapped = simulator.controller.scheduler.base.stats.as_dict()
    assert wrapped["sched.bliss.blacklistings"] > 0
    assert wrapped["sched.bliss.clearings"] > 0
    for key, value in wrapped.items():
        assert result.stats.get(key) == value


def test_run_with_tracer_emits_lifecycle_spans():
    tracer = EventTracer()
    trace = make_trace("bzip2_small", length=400, seed=2)
    run_workload(trace, length=400, seed=2, probe=tracer)
    names = {event[0] for event in tracer.events}
    assert {"record", "tlb_lookup"} <= names
    assert "walk" in names  # bzip2_small misses the TLB at this length
    # Spans are well-formed: end >= begin for every complete span.
    assert all(e[3] is None or e[3] >= e[2] for e in tracer.events)


def test_tracer_does_not_change_timing():
    trace = make_trace("bzip2_small", length=500, seed=4)
    plain = run_workload(trace, length=500, seed=4)
    trace2 = make_trace("bzip2_small", length=500, seed=4)
    traced = run_workload(trace2, length=500, seed=4, probe=EventTracer())
    assert plain.total_cycles == traced.total_cycles
    assert without_timing(plain.stats) == without_timing(traced.stats)


def test_all_probes_at_once_do_not_change_results():
    # Tracer, timeline and the full audit (with its flight recorder) on
    # one run, TEMPO and IMP on so every event fires, against a run
    # with no probe at all.
    config = default_system_config()
    config = config.copy_with(imp=replace(config.imp, enabled=True))
    trace = make_trace("graph500", length=1500, seed=4)
    plain = SystemSimulator(config, [trace], seed=4)
    assert plain.probe is None
    observed = SystemSimulator(
        config,
        [trace],
        seed=4,
        probe=CompositeProbe([EventTracer(), TimelineRecorder()]),
        check_invariants="full",
    )
    plain_result = plain.run()
    observed_result = observed.run()
    assert plain_result.total_cycles == observed_result.total_cycles
    assert without_timing(plain_result.stats) == without_timing(observed_result.stats)
    assert observed_result.manifest.audit["violations"] == 0


def test_multicore_timings_and_progress():
    traces = [
        make_trace("bzip2_small", length=250, seed=6),
        make_trace("gcc_small", length=250, seed=6),
    ]
    messages = []
    simulator = MulticoreSimulator(
        default_system_config(), traces, seed=6, progress=messages.append
    )
    result = simulator.run()
    assert "wall_seconds.shared" in result.timings
    assert any(key.startswith("wall_seconds.alone.") for key in result.timings)
    assert any("shared mix" in message for message in messages)
    # Per-core stats from the shared run are scoped per core.
    assert any(key.startswith("core1.tlb.") for key in result.shared.stats)
