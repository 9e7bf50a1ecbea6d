"""Tests for the three-level cache hierarchy."""

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.common.config import CacheConfig
from repro.common.constants import CACHE_LINE_BYTES, CACHE_LINE_SHIFT


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
    line = 0x100000 >> CACHE_LINE_SHIFT
    l1_sets = config.l1.num_sets
    for way in range(config.l1.assoc + 1):
        hierarchy.l1[0].fill(line + (way + 1) * l1_sets)
    assert not hierarchy.l1[0].contains(line)
    result = hierarchy.access(0, 0x100000)
    assert result.hit_level == "l2"
    assert hierarchy.access(0, 0x100000).hit_level == "l1"


def test_tempo_prefetch_fills_llc_only(hierarchy):
    hierarchy.prefetch_fill_llc(0x200000)
    line = 0x200000 >> CACHE_LINE_SHIFT
    assert not hierarchy.l1[0].contains(line)
    assert not hierarchy.l2[0].contains(line)
    assert hierarchy.llc.contains(line)
    result = hierarchy.access(0, 0x200000)
    assert result.hit_level == "llc"


def test_imp_prefetch_fills_all_levels(hierarchy):
    # The simulator installs a DRAM-served IMP prefetch like a demand
    # fill: IMP prefetches into the L1.
    hierarchy.fill_from_memory(0, 0x200000)
    line = 0x200000 >> CACHE_LINE_SHIFT
    assert hierarchy.l1[0].contains(line)
    assert hierarchy.l2[0].contains(line)
    assert hierarchy.llc.contains(line)


def test_drain_writebacks_empty_initially(hierarchy):
    assert hierarchy.drain_writebacks() == ()


def test_dirty_llc_victims_surface_via_drain(config):
    """Eight DRAM fills share one set at every level; the first and the
    fourth are stores.  Each stored line cascades L1 -> L2 -> LLC as the
    later fills evict it, and the fourth's writeback into the LLC evicts
    the first, whose address one drain returns.  Every other line is
    clean."""
    tiny = config.copy_with(
        l1=CacheConfig(size_bytes=128, assoc=2),
        l2=CacheConfig(size_bytes=128, assoc=2),
        llc=CacheConfig(size_bytes=256, assoc=4),
    )
    hierarchy = CacheHierarchy(tiny, num_cores=1)
    first = 0x1040
    stores = (first, first + 3 * CACHE_LINE_BYTES)
    drained = []
    for paddr in range(first, first + 8 * CACHE_LINE_BYTES, CACHE_LINE_BYTES):
        hierarchy.fill_from_memory(0, paddr, is_write=paddr in stores)
        drained.extend(hierarchy.drain_writebacks())
    assert drained == [first]
    assert hierarchy.drain_writebacks() == ()


def test_write_miss_fill_marks_l1_dirty(hierarchy, config):
    hierarchy.fill_from_memory(0, 0x300000, is_write=True)
    line = 0x300000 >> CACHE_LINE_SHIFT
    l1 = hierarchy.l1[0]
    # The conflicting fill that evicts the line returns it: it is dirty.
    victims = [l1.fill(line + (way + 1) * config.l1.num_sets) for way in range(config.l1.assoc)]
    assert victims == [None] * (config.l1.assoc - 1) + [line]


def test_llc_hit_rate_exposed(hierarchy):
    hierarchy.fill_from_memory(0, 0x100000)
    hierarchy.access(1, 0x100000)
    hierarchy.access(1, 0x999000)
    assert 0.0 < hierarchy.llc_hit_rate() < 1.0
