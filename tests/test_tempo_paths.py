"""Targeted tests for TEMPO's harder interaction paths in the system
simulator: late prefetches, drops, IMP-triggered walks, row-only mode,
and the classification of replay service."""

from dataclasses import replace

import pytest

from repro.common.config import default_system_config
from repro.sim.system import SystemSimulator
from repro.workloads.base import MB, TraceBuilder


def _irregular_trace(count=1500, name="irr", seed=3, eligibility=0.5):
    builder = TraceBuilder(name, seed=seed)
    region = builder.region("data", 64 * 1024 * MB, thp_eligibility=eligibility)
    for _ in range(count):
        builder.read(region.clustered(hot_chunks=768, tail=0.01), gap=1)
    return builder.build()


def _labeled_trace(count=1500, seed=4):
    builder = TraceBuilder("labeled", seed=seed)
    region = builder.region("data", 64 * 1024 * MB, thp_eligibility=0.5)
    for _ in range(count):
        builder.read(region.clustered(hot_chunks=768, tail=0.0), gap=1, pattern="x")
    return builder.build()


def test_slow_prefetch_rows_still_hit(config):
    """When the row prefetch exceeds the slack window, replays must be
    classified as row-buffer hits, not unaided (paper Sec. 3)."""
    slow = config.with_tempo(True, prefetch_row_cycles=150)
    result = SystemSimulator(slow, [_irregular_trace()]).run()
    service = result.core.replay_service
    assert service.fraction("row_buffer") > 0.8
    assert service.fraction("llc") < 0.1


def test_tiny_txq_drops_show_up_as_unaided(config):
    """A starved transaction queue forces dropped prefetches -- the
    paper's pathological 'cannot aid' category (Figure 11)."""
    tiny_queue = config.copy_with(dram=replace(config.dram, txq_capacity=4))
    tiny_queue = tiny_queue.with_tempo(True, prefetch_row_cycles=150, wait_cycles=0)
    result = SystemSimulator(tiny_queue, [_irregular_trace()]).run()
    # With 2-slot tagged PT entries a 4-slot queue drops some prefetches.
    stats = result.stats
    assert result.core.replay_service.total > 0


def test_imp_prefetch_walks_trigger_tempo(config):
    """Paper Sec. 4.2: IMP's cross-page prefetches generate DRAM walks
    that TEMPO accelerates.  The TEMPO engine must fire on the IMP
    path's leaf-PT accesses."""
    imp_config = config.copy_with(imp=replace(config.imp, enabled=True))
    simulator = SystemSimulator(imp_config, [_labeled_trace()])
    result = simulator.run()
    stats = simulator.controller.stats.as_dict()
    assert stats.get("controller.served_imp_prefetch", 0) > 0
    assert stats.get("controller.served_tempo_prefetch", 0) > 0


def test_imp_pending_lines_gate_demand_hits(config):
    """MSHR merge: a demand access to a line with an in-flight IMP
    prefetch waits for the prefetch completion."""
    imp_config = config.copy_with(imp=replace(config.imp, enabled=True))
    simulator = SystemSimulator(imp_config, [_labeled_trace()])
    core = simulator.cores[0]
    records = core.trace.records
    merged = 0
    for position in range(600):
        before = dict(core.pending_prefetch_lines)
        events = simulator._reference(core, records[position])
        if events is not None:
            simulator._drive_events(events)
        core.position += 1
        if before:
            merged += 1
    assert core.imp.stats.counter("prefetches_issued").value > 0


def test_unaided_never_negative_classification(config):
    """llc + row_buffer + unaided must equal the number of walks whose
    leaf access hit DRAM under TEMPO."""
    tempo = config.with_tempo(True)
    result = SystemSimulator(tempo, [_irregular_trace()]).run()
    core = result.core
    assert core.replay_service.total <= core.dram_refs.walks_with_dram_leaf
    # Most DRAM-leaf walks lead to a classified replay (a few replays
    # can be served on-chip by coincidence and still count as llc).
    assert core.replay_service.total > 0.5 * core.dram_refs.walks_with_dram_leaf


def test_wait_cycles_zero_is_valid(config):
    immediate = config.with_tempo(True, wait_cycles=0)
    result = SystemSimulator(immediate, [_irregular_trace()]).run()
    assert result.core.replay_service.fraction("llc") > 0.5


def test_tempo_disabled_leaves_no_tempo_stats(config):
    baseline = config.with_tempo(False)
    simulator = SystemSimulator(baseline, [_irregular_trace()])
    result = simulator.run()
    stats = simulator.controller.stats.as_dict()
    assert stats.get("controller.served_tempo_prefetch", 0) == 0
    assert result.core.replay_service.total == 0


def test_4k_only_all_walks_are_four_levels(config):
    no_thp = config.copy_with(vm=replace(config.vm, thp_enabled=False))
    simulator = SystemSimulator(no_thp.with_tempo(False), [_irregular_trace()])
    simulator.run()
    # With 4 KB pages only, every mapping terminates at L1.
    from repro.common.constants import PAGE_SIZE_4K

    page_table = simulator.cores[0].address_space.page_table
    assert page_table.mapped_bytes() == page_table.mapped_bytes(PAGE_SIZE_4K)


def test_energy_counts_prefetch_traffic(config):
    tempo = config.with_tempo(True)
    simulator = SystemSimulator(tempo, [_irregular_trace()])
    simulator.run()
    assert simulator.energy.stats.counter("prefetch_accesses").value > 0


def test_interleaved_multicore_warmup_per_core(config):
    traces = [_irregular_trace(800, "a", 1), _irregular_trace(800, "b", 2)]
    simulator = SystemSimulator(config, traces)
    result = simulator.run(warmup=200)
    for core in result.cores:
        assert core.references == 600
