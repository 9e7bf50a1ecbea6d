"""Tests for the system simulator."""

from dataclasses import replace

import pytest

from repro.common.config import default_system_config
from repro.common.errors import ConfigError, SimulationError
from repro.sim.system import SystemSimulator
from repro.sim.trace import RegionSpec, Trace, TraceRecord
from repro.vm.address_space import REGION_SPACE_BASE
from repro.workloads.base import MB, TraceBuilder
from repro.workloads.registry import make_trace


def _sequential_trace(pages=100, line_stride=4096, name="seq"):
    builder = TraceBuilder(name, seed=1)
    region = builder.region("data", 64 * MB)
    for index in range(pages):
        builder.read(region.at(index * line_stride + 64), gap=2)
    return builder.build()


def _random_trace(count=800, footprint=8 * 1024 * MB, name="rand", seed=3):
    builder = TraceBuilder(name, seed=seed)
    region = builder.region("data", footprint, thp_eligibility=0.5)
    for _ in range(count):
        builder.read(region.clustered(hot_chunks=512, tail=0.01), gap=1)
    return builder.build()


def test_run_returns_result_with_core(config, small_trace):
    result = SystemSimulator(config, [small_trace]).run()
    assert result.core.references > 0
    assert result.core.cycles > 0
    assert result.energy_total > 0


def test_rejects_empty_traces(config):
    with pytest.raises(SimulationError):
        SystemSimulator(config, [])


def test_rejects_non_config(small_trace):
    with pytest.raises(ConfigError):
        SystemSimulator({"core": 1}, [small_trace])


def test_time_advances_monotonically(config, small_trace):
    simulator = SystemSimulator(config, [small_trace])
    core = simulator.cores[0]
    previous = 0
    for position in range(0, 200):
        events = simulator._reference(core, core.trace.records[position])
        if events is not None:
            simulator._drive_events(events)
        core.position += 1
        assert core.time >= previous
        previous = core.time


@pytest.mark.parametrize("submit", [True, False])
def test_tlb_hits_retire_inside_reference(config, submit):
    """``_reference`` is the one definition of a TLB hit: with a
    synchronous DRAM service every hit retires there, and only a walk
    leaves an event generator.  Without one (the multicore driver), a
    hit that misses the caches continues as a generator too."""
    trace = make_trace("bzip2_small", length=800, seed=0)
    simulator = SystemSimulator(config, [trace])
    core = simulator.cores[0]
    serve = simulator.controller.submit_and_wait if submit else None
    walks = core.walker.stats.counter("walks")
    inline = 0
    for record in trace.records:
        before = walks.value
        events = simulator._reference(core, record, serve)
        if events is None:
            inline += 1
        else:
            simulator._drive_events(events)
        walked = walks.value > before
        if submit:
            assert (events is None) == (not walked)
        elif walked:
            assert events is not None
        core.position += 1
    assert inline > 0


def test_max_records_limits_run(config, small_trace):
    result = SystemSimulator(config, [small_trace]).run(max_records=100, warmup=20)
    assert result.core.references == 80  # 100 processed - 20 warmup


def test_warmup_excluded_from_metrics(config, small_trace):
    full = SystemSimulator(config, [small_trace]).run(warmup=0)
    warmed = SystemSimulator(config, [small_trace]).run(warmup=300)
    assert warmed.core.references == full.core.references - 300
    assert warmed.core.cycles < full.core.cycles


def test_demand_faults_map_pages(config, small_trace):
    simulator = SystemSimulator(config, [small_trace])
    simulator.run()
    assert simulator.cores[0].address_space.stats.counter("minor_faults").value > 0


def test_sequential_trace_mostly_tlb_hits(config):
    trace = _sequential_trace(pages=2000, line_stride=64)  # 64 lines/page
    simulator = SystemSimulator(config.with_tempo(False), [trace])
    simulator.run()
    tlb = simulator.cores[0].tlb
    assert tlb.miss_rate() < 0.1


def test_random_trace_generates_dram_walks(config):
    trace = _random_trace()
    simulator = SystemSimulator(config.with_tempo(False), [trace])
    result = simulator.run()
    refs = result.core.dram_refs
    assert refs.walks_with_dram_leaf > 50
    assert refs.ptw_leaf > refs.ptw_upper


def test_baseline_replays_follow_ptw_to_dram(config):
    """The paper's 98% observation must emerge from the model."""
    result = SystemSimulator(config.with_tempo(False), [_random_trace()]).run()
    assert result.core.dram_refs.replay_follows_ptw_rate() > 0.9


def test_tempo_reduces_cycles_on_irregular_trace(config):
    trace = _random_trace()
    baseline = SystemSimulator(config.with_tempo(False), [trace]).run()
    tempo = SystemSimulator(config.with_tempo(True), [trace]).run()
    assert tempo.total_cycles < baseline.total_cycles


def test_tempo_replays_mostly_llc_hits(config):
    result = SystemSimulator(config.with_tempo(True), [_random_trace()]).run()
    service = result.core.replay_service
    assert service.total > 0
    assert service.fraction("llc") > 0.5


def test_row_only_tempo_yields_row_buffer_hits(config):
    config = config.with_tempo(True, llc_prefetch=False)
    result = SystemSimulator(config, [_random_trace()]).run()
    service = result.core.replay_service
    assert service.fraction("row_buffer") > 0.5
    assert service.llc < service.row_buffer


def test_determinism_same_seed(config):
    results = [
        SystemSimulator(config, [_random_trace()], seed=9).run().total_cycles
        for _ in range(2)
    ]
    assert results[0] == results[1]


def test_region_layout_mismatch_detected(config):
    records = [TraceRecord(REGION_SPACE_BASE + 100)]
    bad_region = RegionSpec("data", 64 * MB, base=0xDEAD0000)
    trace = Trace("bad", records, [bad_region])
    with pytest.raises(SimulationError):
        SystemSimulator(config, [trace])


def test_writebacks_reach_dram(config):
    builder = TraceBuilder("writer", seed=2)
    region = builder.region("data", 512 * MB)
    for index in range(4000):
        builder.write(region.at(index * 4096), gap=1)
    result = SystemSimulator(config.with_tempo(False), [builder.build()]).run()
    assert result.core.dram_refs.writeback > 0


def test_imp_enabled_runs_and_prefetches(config):
    builder = TraceBuilder("indirect", seed=4)
    region = builder.region("data", 8 * 1024 * MB)
    for _ in range(1500):
        builder.read(region.clustered(hot_chunks=256, tail=0.0), gap=1, pattern="x")
    trace = builder.build()
    imp_config = config.copy_with(imp=replace(config.imp, enabled=True))
    simulator = SystemSimulator(imp_config, [trace])
    result = simulator.run()
    imp = simulator.cores[0].imp
    assert imp.stats.counter("prefetches_issued").value > 0


def test_superpage_fraction_reported(config):
    result = SystemSimulator(config, [_random_trace()]).run()
    assert 0.2 < result.superpage_fraction < 0.9  # eligibility 0.5


def test_4k_only_config_reports_zero_superpages(config):
    config = config.copy_with(vm=replace(config.vm, thp_enabled=False))
    result = SystemSimulator(config, [_random_trace()]).run()
    assert result.superpage_fraction == 0.0


@pytest.mark.parametrize("tempo", [False, True])
def test_tempo_only_stats_exported_only_with_tempo(config, tempo):
    # Handles for TEMPO's per-event counters are bound on every run; a
    # TEMPO-off run never increments them, so they must stay out of the
    # export, exactly as when they were created at the first increment.
    trace = make_trace("xsbench", length=800, seed=0)
    stats = SystemSimulator(config.with_tempo(tempo), [trace]).run().stats
    for key in ("core0.walker.tagged_leaf_requests", "energy.prefetch_accesses"):
        assert (key in stats) == tempo
        if tempo:
            assert stats[key] > 0


@pytest.mark.parametrize("thp, probes", [(False, 1 + 3), (True, 1 + 2)])
def test_demand_fault_plans_the_walk_twice(config, thp, probes):
    """A faulting TLB miss plans, maps the page, then plans again, and
    both plans probe the MMU caches, as hardware restarts the walk
    after the OS maps the page.  In a fresh address space the first plan
    faults at L4 (one probe); the second probes each upper level above
    the leaf: L4-L2 for a 4 KB page, L4-L3 for a 2 MB one."""
    config = config.copy_with(vm=replace(config.vm, thp_enabled=thp))
    builder = TraceBuilder("one", seed=1)
    region = builder.region("data", 64 * MB)
    builder.read(region.at(5 * 4096 + 64), gap=2)
    stats = SystemSimulator(config, [builder.build()]).run(warmup=0).stats
    assert stats["core0.address_space.minor_faults"] == 1
    assert stats["core0.walker.walks"] == 2
    assert stats["core0.walker.faulting_walks"] == 1
    assert stats["core0.walker.completed_walks"] == 1
    # Cold caches: one memory step for the faulting plan; the second
    # misses every upper level it probes and also fetches the leaf.
    assert stats["core0.walker.memory_steps_per_walk.total"] == 2
    assert stats["core0.walker.memory_steps_per_walk.mean"] == (1 + probes) / 2
    mmu_probes = stats.get("core0.mmu_cache.hits", 0) + stats.get("core0.mmu_cache.misses", 0)
    assert mmu_probes == probes


def test_interleaved_driver_serves_the_earliest_channel(config):
    """The multicore driver serves, at every step, the pending channel
    with the least decision time, the lowest such channel on a tie.
    Four cores in the bench's BLISS machine (prefetches count half a
    demand, a 15-cycle TEMPO grace period), about 400 records each."""
    config = config.copy_with(
        scheduler=replace(config.scheduler, policy="bliss", bliss_prefetch_increment=1)
    ).with_tempo(True, grace_period_cycles=15)
    mix = ("xsbench", "mcf", "bzip2_small", "gcc_small")
    sim = SystemSimulator(config, [make_trace(name, length=400, seed=0) for name in mix])
    controller = sim.controller
    service_one = controller.service_one
    ties = []

    def spy(channel):
        decisions = [
            (controller.next_decision_time(candidate), candidate)
            for candidate in range(controller.num_channels)
            if controller.has_pending(candidate)
        ]
        earliest = min(decisions)
        assert channel == earliest[1], (channel, decisions)
        ties.append(sum(decision == earliest[0] for decision, _ in decisions) > 1)
        return service_one(channel)

    controller.service_one = spy
    sim.run()
    assert len(ties) > 100
    # Ties occur, so the tie rule is exercised.
    assert any(ties)
