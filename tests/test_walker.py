"""Tests for the hardware page-table walker (incl. TEMPO tagging)."""

import pytest

from repro.common.addressing import line_index_in_page
from repro.common.config import MmuCacheConfig
from repro.common.constants import PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.common.errors import MappingError
from repro.mmu.mmu_cache import MmuCaches
from repro.mmu.walker import PageTableWalker
from repro.vm.page_table import PageTable

VADDR = 0x1234_5678_9042  # cache line 1 within its 4 KB page


@pytest.fixture
def table(allocator):
    table = PageTable(allocator)
    table.map(VADDR & ~0xFFF, 0xABC000, PAGE_SIZE_4K)
    return table


@pytest.fixture
def walker(table):
    return PageTableWalker(table, MmuCaches(MmuCacheConfig()), tempo_tagging=True)


def test_plan_has_four_steps_for_4k(walker):
    plan = walker.plan(VADDR)
    assert [step.level for step in plan.steps] == [4, 3, 2, 1]
    assert not plan.faulted
    assert plan.frame_paddr == 0xABC000
    assert plan.page_size == PAGE_SIZE_4K


def test_only_leaf_step_is_leaf(walker):
    plan = walker.plan(VADDR)
    assert [step.is_leaf for step in plan.steps] == [False, False, False, True]


def test_cold_walk_all_memory_steps(walker):
    plan = walker.plan(VADDR)
    assert all(not step.from_mmu_cache for step in plan.steps)
    assert len(plan.memory_steps) == 4


def test_complete_fills_mmu_caches_for_upper_levels(walker):
    first = walker.plan(VADDR)
    walker.complete(first)
    second = walker.plan(VADDR)
    cached = [step.from_mmu_cache for step in second.steps]
    assert cached == [True, True, True, False]  # leaf never cached
    assert len(second.memory_steps) == 1


def test_tempo_tagging_carries_replay_line(walker):
    plan = walker.plan(VADDR)
    assert plan.tempo_tagged
    assert plan.replay_line_index == line_index_in_page(VADDR) == 1


def test_tagging_disabled_when_tempo_off(table):
    walker = PageTableWalker(table, MmuCaches(MmuCacheConfig()), tempo_tagging=False)
    plan = walker.plan(VADDR)
    assert not plan.tempo_tagged


def test_2m_walk_has_three_steps_and_2m_line_index(allocator):
    table = PageTable(allocator)
    vaddr = 0x4000_0000 + 3 * 64 + 7
    table.map(0x4000_0000, PAGE_SIZE_2M * 5, PAGE_SIZE_2M)
    walker = PageTableWalker(table, MmuCaches(MmuCacheConfig()), tempo_tagging=True)
    plan = walker.plan(vaddr)
    assert [step.level for step in plan.steps] == [4, 3, 2]
    assert plan.steps[-1].is_leaf
    assert plan.replay_line_index == line_index_in_page(vaddr, PAGE_SIZE_2M) == 3


def test_faulting_plan(walker):
    plan = walker.plan(0x9999_0000_0000)
    assert plan.faulted
    assert plan.entry is None
    assert not plan.tempo_tagged
    # The partial path still shows which levels the walker read.
    assert plan.steps[0].level == 4


def test_faulting_steps_are_not_leaf(walker):
    plan = walker.plan(0x9999_0000_0000)
    assert all(not step.is_leaf for step in plan.steps)


def test_walk_counts(walker):
    walker.plan(VADDR)
    walker.plan(0x9999_0000_0000)
    assert walker.stats.counter("walks").value == 2
    assert walker.stats.counter("faulting_walks").value == 1
    assert walker.stats.counter("tagged_leaf_requests").value == 1


def test_leaf_entry_paddr_matches_page_table(walker, table):
    plan = walker.plan(VADDR)
    assert plan.steps[-1].entry_paddr == table.walk(VADDR).accesses[-1][1]


def test_corrupt_l1_entry_raises_with_the_levels_read(walker, table):
    accesses = list(table.walk(VADDR).accesses)
    table.walk(VADDR).entry.is_leaf = False
    with pytest.raises(MappingError) as info:
        walker.plan(VADDR)
    assert info.value.context == {"vaddr": VADDR, "accesses": accesses}
