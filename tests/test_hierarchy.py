"""Tests for the three-level cache hierarchy."""

import pytest

from repro.cache.hierarchy import CacheHierarchy


@pytest.fixture
def hierarchy(config):
    return CacheHierarchy(config, num_cores=2)


def test_full_miss_reports_dram(hierarchy, config):
    result = hierarchy.access(0, 0x100000)
    assert result.needs_dram
    assert result.hit_level is None
    assert result.latency == config.core.llc_latency


def test_fill_then_l1_hit(hierarchy, config):
    hierarchy.fill_from_memory(0, 0x100000)
    result = hierarchy.access(0, 0x100000)
    assert result.hit_level == "l1"
    assert result.latency == config.core.l1_latency


def test_other_core_hits_only_in_llc(hierarchy, config):
    hierarchy.fill_from_memory(0, 0x100000)
    result = hierarchy.access(1, 0x100000)
    assert result.hit_level == "llc"
    assert result.latency == config.core.llc_latency
    # After the LLC hit refilled core 1's private levels:
    assert hierarchy.access(1, 0x100000).hit_level == "l1"


def test_l2_hit_refills_l1(hierarchy, config):
    hierarchy.fill_from_memory(0, 0x100000)
    # Evict from L1 by filling conflicting lines (same L1 set).
    l1_sets = config.l1.num_sets
    for way in range(config.l1.assoc + 1):
        hierarchy.l1[0].fill(0x100000 + (way + 1) * l1_sets * 64)
    result = hierarchy.access(0, 0x100000)
    assert result.hit_level in ("l2", "llc")
    assert hierarchy.access(0, 0x100000).hit_level == "l1"


def test_tempo_prefetch_fills_llc_only(hierarchy):
    hierarchy.prefetch_fill_llc(0x200000)
    assert not hierarchy.l1[0].contains(0x200000)
    assert not hierarchy.l2[0].contains(0x200000)
    assert hierarchy.llc.contains(0x200000)
    result = hierarchy.access(0, 0x200000)
    assert result.hit_level == "llc"


def test_imp_prefetch_fills_all_levels(hierarchy):
    # The simulator installs a DRAM-served IMP prefetch like a demand
    # fill: IMP prefetches into the L1.
    hierarchy.fill_from_memory(0, 0x200000)
    assert hierarchy.l1[0].contains(0x200000)
    assert hierarchy.l2[0].contains(0x200000)
    assert hierarchy.llc.contains(0x200000)


def test_drain_writebacks_empty_initially(hierarchy):
    assert hierarchy.drain_writebacks() == ()


def test_dirty_llc_victims_surface_via_drain(config):
    hierarchy = CacheHierarchy(config, num_cores=1)
    sets = config.llc.num_sets
    target_set_stride = sets * 64
    # Make one line dirty in the LLC, then evict it with conflicting fills.
    hierarchy.fill_from_memory(0, 0x0, is_write=True)
    # Write back the dirty line from L1 down to the LLC first.
    for way in range(config.l1.assoc + 1):
        hierarchy.fill_from_memory(0, (way + 1) * config.l1.num_sets * 64, is_write=True)
    for way in range(config.l2.assoc + 2):
        hierarchy.fill_from_memory(0, (way + 8) * config.l2.num_sets * 64, is_write=True)
    for way in range(config.llc.assoc + 2):
        hierarchy.llc.fill((way + 1) * target_set_stride, is_write=True)
    writebacks = hierarchy.drain_writebacks()
    assert hierarchy.drain_writebacks() == ()  # drained exactly once
    assert all(victim.dirty for victim in writebacks)


def test_write_miss_fill_marks_l1_dirty(hierarchy):
    hierarchy.fill_from_memory(0, 0x300000, is_write=True)
    victim = hierarchy.l1[0].invalidate(0x300000)
    assert victim is not None and victim.dirty


def test_llc_hit_rate_exposed(hierarchy):
    hierarchy.fill_from_memory(0, 0x100000)
    hierarchy.access(1, 0x100000)
    hierarchy.access(1, 0x999000)
    assert 0.0 < hierarchy.llc_hit_rate() < 1.0
