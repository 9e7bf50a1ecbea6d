"""Tests for the two-level TLB hierarchy."""

import pytest

from repro.common.config import MmuCacheConfig, TlbConfig
from repro.common.constants import PAGE_SIZE_1G, PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.mmu.mmu_cache import MmuCaches
from repro.mmu.tlb import SetAssociativeTlb, TlbHierarchy


def _tlb(entries=8, assoc=2, page_size=PAGE_SIZE_4K):
    return SetAssociativeTlb(entries, assoc, page_size)


def test_miss_then_hit():
    tlb = _tlb()
    assert tlb.lookup(0x1000) is None
    tlb.insert(0x1000, 0xAA000)
    assert tlb.lookup(0x1234) == 0xAA000  # same page


def test_lru_eviction_within_set():
    tlb = _tlb(entries=8, assoc=2)
    sets = 4
    # Three pages mapping to the same set (vpn % 4 equal).
    base_vpns = [1, 1 + sets, 1 + 2 * sets]
    for i, vpn in enumerate(base_vpns[:2]):
        tlb.insert(vpn << 12, i)
    tlb.lookup(base_vpns[0] << 12)  # refresh first -> second is LRU
    tlb.insert(base_vpns[2] << 12, 99)
    assert tlb.lookup(base_vpns[1] << 12) is None  # evicted
    assert tlb.lookup(base_vpns[0] << 12) == 0


def test_insert_returns_victim():
    tlb = _tlb(entries=2, assoc=2)
    tlb.insert(0 << 12, 10)
    tlb.insert(2 << 12, 20)  # wait: sets=1, both in set 0
    victim = tlb.insert(4 << 12, 30)
    assert victim == (0, 10)


def test_invalidate():
    tlb = _tlb()
    tlb.insert(0x1000, 0xAA000)
    assert tlb.invalidate(0x1000)
    assert tlb.lookup(0x1000) is None
    assert not tlb.invalidate(0x1000)


def test_flush():
    tlb = _tlb()
    for i in range(4):
        tlb.insert(i << 12, i)
    tlb.flush()
    assert tlb.occupancy == 0


def test_occupancy_bounded_by_capacity():
    tlb = _tlb(entries=8, assoc=2)
    for i in range(100):
        tlb.insert(i << 12, i)
    assert tlb.occupancy <= 8


def test_2m_tlb_uses_2m_vpns():
    tlb = _tlb(page_size=PAGE_SIZE_2M)
    tlb.insert(0x40000000, 0xAA00000)
    # Anywhere within the same 2 MB page hits.
    assert tlb.lookup(0x40000000 + PAGE_SIZE_2M - 1) == 0xAA00000
    assert tlb.lookup(0x40000000 + PAGE_SIZE_2M) is None


def test_hit_rate():
    tlb = _tlb()
    tlb.insert(0x1000, 1)
    tlb.lookup(0x1000)
    tlb.lookup(0x2000)
    assert tlb.hit_rate() == pytest.approx(0.5)


def test_hit_rate_of_fresh_array_exports_nothing():
    tlb = _tlb()
    assert tlb.hit_rate() == 0.0
    assert tlb.stats.as_dict() == {}


# ---------------------------------------------------------------------
# Hierarchy
# ---------------------------------------------------------------------

@pytest.fixture
def hierarchy():
    return TlbHierarchy(TlbConfig())


def test_hierarchy_full_miss_then_fill(hierarchy):
    assert hierarchy.lookup(0x1000) is None
    hierarchy.fill(0x1000, 0xAA000, PAGE_SIZE_4K)
    frame, size, latency = hierarchy.lookup(0x1000)
    assert (frame, size, latency) == (0xAA000, PAGE_SIZE_4K, 0)


def test_hierarchy_l2_hit_refills_l1(hierarchy):
    config = TlbConfig()
    hierarchy.fill(0x1000, 0xAA000, PAGE_SIZE_4K)
    # Push the entry out of the tiny L1 by filling conflicting pages.
    sets = config.l1_entries_4k // config.l1_assoc_4k
    for i in range(1, config.l1_assoc_4k + 2):
        hierarchy.fill((1 + i * sets) << 12, i, PAGE_SIZE_4K)
    # Entry 0x1000 may have been L1-evicted; L2 still holds it.
    result = hierarchy.lookup(0x1000)
    assert result is not None
    frame, size, latency = result
    assert frame == 0xAA000
    # A second lookup must be an L1 hit (latency 0) after the refill.
    assert hierarchy.lookup(0x1000)[2] == 0


def test_hierarchy_l2_excludes_1g_by_default(hierarchy):
    config = TlbConfig()
    hierarchy.fill(PAGE_SIZE_1G, 0x100000000, PAGE_SIZE_1G)
    # Evict from the 4-entry L1-1G array.
    for i in range(2, 2 + config.l1_entries_1g + 1):
        hierarchy.fill(i * PAGE_SIZE_1G, i, PAGE_SIZE_1G)
    assert hierarchy.lookup(PAGE_SIZE_1G) is None  # gone entirely


def test_hierarchy_l2_holds_1g_when_configured():
    hierarchy = TlbHierarchy(TlbConfig(l2_holds_1g=True))
    config = TlbConfig()
    hierarchy.fill(PAGE_SIZE_1G, 0x100000000, PAGE_SIZE_1G)
    for i in range(2, 2 + config.l1_entries_1g + 1):
        hierarchy.fill(i * PAGE_SIZE_1G, i, PAGE_SIZE_1G)
    result = hierarchy.lookup(PAGE_SIZE_1G)
    assert result is not None and result[0] == 0x100000000


def test_hierarchy_mixed_page_sizes(hierarchy):
    hierarchy.fill(0x1000, 0xAA000, PAGE_SIZE_4K)
    hierarchy.fill(0x40000000, 0xBB00000, PAGE_SIZE_2M)
    assert hierarchy.lookup(0x1500)[1] == PAGE_SIZE_4K
    assert hierarchy.lookup(0x40012345)[1] == PAGE_SIZE_2M


def test_hierarchy_invalidate(hierarchy):
    hierarchy.fill(0x1000, 0xAA000, PAGE_SIZE_4K)
    assert hierarchy.invalidate(0x1000)
    assert hierarchy.lookup(0x1000) is None


def test_hierarchy_miss_rate(hierarchy):
    hierarchy.lookup(0x1000)
    hierarchy.fill(0x1000, 1, PAGE_SIZE_4K)
    hierarchy.lookup(0x1000)
    assert hierarchy.miss_rate() == pytest.approx(0.5)


def test_hierarchy_flush(hierarchy):
    hierarchy.fill(0x1000, 0xAA000, PAGE_SIZE_4K)
    hierarchy.flush()
    assert hierarchy.lookup(0x1000) is None


def test_rates_of_fresh_hierarchy_and_mmu_caches_export_nothing(hierarchy):
    mmu_caches = MmuCaches(MmuCacheConfig())
    assert hierarchy.miss_rate() == 0.0
    assert mmu_caches.hit_rate() == 0.0
    assert hierarchy.stats.as_dict() == {}
    assert mmu_caches.stats.as_dict() == {}
