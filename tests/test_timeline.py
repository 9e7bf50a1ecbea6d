"""Tests for utilization timelines and bottleneck attribution
(``repro.obs.timeline`` + the simulator instrumentation behind it).

The load-bearing guarantees:

* conservation -- every reference's cycles land in exactly one
  attribution bucket (``unattributed_cycles == 0``), and no unit is
  busy for more cycles than the run lasted;
* zero perturbation -- stats are bit-identical with the ledger off vs
  on (modulo the wall-clock ``manifest.timing.*`` keys, which differ
  between *any* two runs);
* determinism -- interval samples repeat exactly across runs.
"""

import json
from dataclasses import replace

import pytest

from repro.common.config import default_system_config
from repro.obs import CompositeProbe, EventTracer
from repro.obs.manifest import without_timing
from repro.obs.timeline import (
    BottleneckAttributor,
    IntervalSampler,
    TimelineRecorder,
    UnitTrack,
    UtilizationLedger,
    capture_timeline,
    render_timeline,
    timeline_payload,
    write_timeline_csv,
    write_timeline_json,
)
from repro.sim.multicore import MulticoreSimulator
from repro.sim.runner import run_workload
from repro.sim.system import SystemSimulator
from repro.workloads.registry import make_trace

WORKLOAD = "xsbench"
LENGTH = 1200


# ----------------------------------------------------------------------
# UnitTrack / UtilizationLedger units


def test_unit_track_accumulates_and_splits_across_intervals():
    track = UnitTrack("u", interval=100)
    track.busy(10, 30)
    track.busy(90, 210)  # spans three interval buckets
    assert track.busy_cycles == 140
    assert track.horizon == 210
    series = dict(track.series())
    assert series == {0: 30, 1: 100, 2: 10}


def test_unit_track_ignores_empty_and_inverted_spans():
    track = UnitTrack("u", interval=100)
    track.busy(50, 50)
    track.busy(60, 40)
    assert track.busy_cycles == 0
    assert track.series() == []


def test_ledger_get_or_create_and_horizon():
    ledger = UtilizationLedger(interval=64)
    a = ledger.unit("a")
    assert ledger.unit("a") is a
    ledger.unit("b").busy(0, 10)
    a.busy(100, 130)
    assert ledger.horizon == 130
    with pytest.raises(ValueError):
        UtilizationLedger(interval=0)


# ----------------------------------------------------------------------
# BottleneckAttributor units


def test_attributor_conserves_and_names_critical_bucket():
    attr = BottleneckAttributor(interval=1000)
    attr.begin(0, 100)
    attr.add_translation(0, 40)
    attr.add_dram(0, 300)
    attr.add_cache(0, 10)
    attr.end(0, 450)
    assert attr.references == 1
    assert attr.unattributed_cycles == 0
    assert attr.totals == {
        "translation": 40, "cache": 10, "dram": 300, "overlap": 0,
    }
    assert attr.critical(0) == "dram"


def test_attributor_counts_unattributed_shortfall():
    attr = BottleneckAttributor(interval=1000)
    attr.begin(1, 0)
    attr.add_cache(1, 5)
    attr.end(1, 50)
    assert attr.unattributed_cycles == 45


def test_attributor_interleaved_cpus_do_not_mix():
    attr = BottleneckAttributor(interval=1000)
    attr.begin(0, 0)
    attr.begin(1, 0)
    attr.add_dram(0, 20)
    attr.add_translation(1, 30)
    attr.end(0, 20)
    attr.end(1, 30)
    assert attr.unattributed_cycles == 0
    assert attr.totals["dram"] == 20
    assert attr.totals["translation"] == 30


# ----------------------------------------------------------------------
# IntervalSampler units


def test_sampler_cadence_and_final_snapshot():
    sampler = IntervalSampler(100)
    sampler.bind(lambda: {"n": 1})
    for cycle in (10, 99, 100, 150, 205, 333):
        sampler.maybe_sample(cycle)
    sampler.finish(400)
    cycles = [cycle for cycle, _ in sampler.samples]
    assert cycles == [100, 205, 333, 400]
    sampler.finish(400)  # idempotent when the last sample is current
    assert len(sampler.samples) == 4


# ----------------------------------------------------------------------
# Integration: single-core conservation


@pytest.fixture(scope="module")
def captured():
    return capture_timeline(WORKLOAD, length=LENGTH, interval=512)


def test_single_core_attribution_is_exactly_conserved(captured):
    result, recorder = captured
    attribution = recorder.attribution
    assert attribution.references == LENGTH
    assert attribution.unattributed_cycles == 0
    assert sum(attribution.totals.values()) > 0


def test_no_unit_is_busy_longer_than_the_run(captured):
    _, recorder = captured
    horizon = max(recorder.ledger.horizon, recorder.attribution.horizon)
    for name, track in recorder.ledger.units.items():
        assert 0 <= track.busy_cycles <= horizon, name
    # The known-hot units actually registered work.
    for name in ("core0.walker", "llc", "dram.bank0", "dram.channel0"):
        assert recorder.ledger.units[name].busy_cycles > 0, name


def test_payload_is_json_clean_and_self_consistent(captured):
    _, recorder = captured
    payload = timeline_payload(recorder)
    json.dumps(payload)  # must be serialisable as-is
    assert payload["schema_version"] == 1
    assert payload["total_cycles"] > 0
    by_name = {unit["name"]: unit for unit in payload["units"]}
    for unit in payload["units"]:
        assert sum(busy for _, busy in unit["series"]) == unit["busy_cycles"]
        assert 0.0 <= unit["utilization"] <= 1.0
    assert "core0.walker" in by_name
    attribution = payload["attribution"]
    assert attribution["references"] == LENGTH
    assert attribution["unattributed_cycles"] == 0
    per_interval = {bucket: 0 for bucket in attribution["totals"]}
    for row in attribution["intervals"]:
        assert row["critical"] in per_interval
        for bucket in per_interval:
            per_interval[bucket] += row[bucket]
    assert per_interval == attribution["totals"]


# ----------------------------------------------------------------------
# Bit-identity: ledger off vs on


def test_stats_bit_identical_with_timeline_off_vs_on():
    config = default_system_config()
    plain = run_workload(WORKLOAD, config, length=LENGTH, seed=3)
    recorded = run_workload(
        WORKLOAD, config, length=LENGTH, seed=3, probe=TimelineRecorder()
    )
    assert plain.total_cycles == recorded.total_cycles
    assert without_timing(plain.stats) == without_timing(recorded.stats)


def test_timeline_off_is_a_single_none_check():
    # The off path must stay literally ``probe is None``: no ledger, no
    # attribution state, and an audit mode of "off" attaches nothing.
    trace = make_trace(WORKLOAD, length=300, seed=0)
    for mode in (None, "off"):
        simulator = SystemSimulator(default_system_config(), [trace], check_invariants=mode)
        assert simulator.probe is None and simulator.controller.probe is None
        assert simulator.run() is not None  # smoke: nothing raised without a probe


# ----------------------------------------------------------------------
# IMP prefetch work


def test_imp_prefetch_work_is_in_the_utilization_ledger():
    # IMP's prefetch path looks up the TLB, and on a miss walks the page
    # table, on its own clock: each of those lookups keeps the L1 TLB
    # busy for one cycle, so the L1 TLB's busy cycles count every
    # lookup, demand and prefetch alike.
    config = default_system_config()
    config = config.copy_with(imp=replace(config.imp, enabled=True))
    traces = [
        make_trace("graph500", length=1500, seed=0),
        make_trace("spmv", length=1500, seed=0),
    ]
    recorder = TimelineRecorder()
    tracer = EventTracer()
    probe = CompositeProbe([recorder, tracer])
    result = SystemSimulator(config, traces, seed=0, probe=probe).run()
    units = recorder.ledger.units
    for cpu in range(len(traces)):
        stats = result.stats
        prefix = "core%d.tlb." % cpu
        lookups = sum(stats[prefix + key] for key in ("l1_hits", "l2_hits", "misses"))
        assert stats["core%d.imp.prefetches_issued" % cpu] > 0
        assert units["core%d.tlb.l1" % cpu].busy_cycles == lookups
    # Prefetch work stays out of the bottleneck buckets and the spans.
    references = sum(len(t.records) for t in traces)
    assert recorder.attribution.references == references
    assert recorder.attribution.unattributed_cycles == 0
    assert sum(1 for event in tracer.events if event[0] == "tlb_lookup") == references


# ----------------------------------------------------------------------
# Determinism


def test_interval_samples_are_deterministic_across_runs():
    first = capture_timeline(WORKLOAD, length=800, interval=256)[1]
    second = capture_timeline(WORKLOAD, length=800, interval=256)[1]
    strip = lambda rows: [
        (cycle, without_timing(snapshot)) for cycle, snapshot in rows
    ]
    assert strip(first.sampler.samples) == strip(second.sampler.samples)
    assert timeline_payload(first)["units"] == timeline_payload(second)["units"]


# ----------------------------------------------------------------------
# Multicore


def test_multicore_shared_run_conserves_attribution():
    config = default_system_config().copy_with(num_cores=2)
    traces = [
        make_trace("bzip2_small", length=400, seed=0),
        make_trace("gcc_small", length=400, seed=1),
    ]
    recorder = TimelineRecorder(interval=512)
    MulticoreSimulator(config, traces, probe=recorder).run()
    attribution = recorder.attribution
    # One attribution record per shared-run reference (trace lengths
    # are approximate: the generators round to scan/stride boundaries).
    assert attribution.references == sum(len(t.records) for t in traces)
    assert attribution.unattributed_cycles == 0
    # Both cores' private units registered occupancy.
    assert recorder.ledger.units["core0.walker"].busy_cycles > 0
    assert recorder.ledger.units["core1.walker"].busy_cycles > 0


# ----------------------------------------------------------------------
# Rendering + export


def test_render_timeline_shows_bars_and_attribution(captured):
    _, recorder = captured
    text = render_timeline(timeline_payload(recorder), width=40)
    assert "per-unit utilization" in text
    assert "core0.walker" in text
    assert "bottleneck attribution" in text
    assert "unattributed cycles: 0" in text
    assert "critical resource per column" in text


def test_json_and_csv_exports_round_trip(tmp_path, captured):
    _, recorder = captured
    payload = timeline_payload(recorder)
    json_path = str(tmp_path / "timeline.json")
    csv_path = str(tmp_path / "timeline.csv")
    assert write_timeline_json(payload, json_path) == len(payload["units"])
    with open(json_path) as stream:
        assert json.load(stream) == json.loads(json.dumps(payload))
    rows = write_timeline_csv(payload, csv_path)
    with open(csv_path) as stream:
        lines = stream.read().splitlines()
    assert lines[0] == "kind,name,interval_start,value"
    assert len(lines) == rows + 1
    # Unit totals in the CSV match the payload exactly.
    totals = {}
    for line in lines[1:]:
        kind, name, start, value = line.split(",")
        if kind == "unit_total":
            totals[name] = int(value)
    for unit in payload["units"]:
        assert totals[unit["name"]] == unit["busy_cycles"]
