"""Tests for the four-level radix page table."""

import pytest

from repro.common.addressing import radix_index
from repro.common.constants import PAGE_SIZE_1G, PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.common.errors import MappingError, TranslationFault
from repro.vm.page_table import PageTable

VADDR = 0x1234_5678_9000


@pytest.fixture
def table(allocator):
    return PageTable(allocator)


def test_cr3_is_allocated_frame(table):
    assert table.cr3 % PAGE_SIZE_4K == 0


def test_map_translate_4k(table):
    table.map(VADDR, 0xABC000, PAGE_SIZE_4K)
    assert table.translate(VADDR) == (0xABC000, PAGE_SIZE_4K)
    assert table.translate(VADDR + 0xFFF) == (0xABC000, PAGE_SIZE_4K)


def test_unmapped_translate_faults(table):
    with pytest.raises(TranslationFault):
        table.translate(VADDR)


def test_map_2m_terminates_at_l2(table):
    vaddr = 0x40000000
    table.map(vaddr, PAGE_SIZE_2M * 7, PAGE_SIZE_2M)
    result = table.walk(vaddr + 12345)
    assert not result.faulted
    assert result.leaf_level == 2
    assert [level for level, _ in result.accesses] == [4, 3, 2]
    assert result.entry.page_size == PAGE_SIZE_2M


def test_map_1g_terminates_at_l3(table):
    vaddr = PAGE_SIZE_1G * 3
    table.map(vaddr, PAGE_SIZE_1G * 5, PAGE_SIZE_1G)
    result = table.walk(vaddr + 999)
    assert result.leaf_level == 3
    assert [level for level, _ in result.accesses] == [4, 3]


def test_4k_walk_visits_four_levels(table):
    table.map(VADDR, 0xABC000, PAGE_SIZE_4K)
    result = table.walk(VADDR)
    assert [level for level, _ in result.accesses] == [4, 3, 2, 1]


def test_walk_entry_addresses_are_concatenations(table):
    table.map(VADDR, 0xABC000, PAGE_SIZE_4K)
    result = table.walk(VADDR)
    level4_addr = result.accesses[0][1]
    assert level4_addr == table.cr3 + radix_index(VADDR, 4) * 8


def test_faulting_walk_reports_partial_path(table):
    table.map(VADDR, 0xABC000, PAGE_SIZE_4K)
    # Same L4 entry, different L3 entry: the walk reads L4, then faults
    # on the empty L3 entry.
    other = VADDR ^ (1 << 30)
    assert radix_index(other, 4) == radix_index(VADDR, 4)
    assert radix_index(other, 3) != radix_index(VADDR, 3)
    result = table.walk(other)
    assert result.faulted
    assert result.entry is None
    assert result.leaf_level == 3
    assert [level for level, _ in result.accesses] == [4, 3]
    assert result.accesses[0] == table.walk(VADDR).accesses[0]


def test_map_rejects_misaligned(table):
    with pytest.raises(MappingError):
        table.map(VADDR + 1, 0xABC000, PAGE_SIZE_4K)
    with pytest.raises(MappingError):
        table.map(VADDR, 0xABC100, PAGE_SIZE_4K)
    with pytest.raises(MappingError):
        table.map(0x1000, 0x2000, 8192)


def test_map_rejects_remap(table):
    table.map(VADDR, 0xABC000, PAGE_SIZE_4K)
    with pytest.raises(MappingError):
        table.map(VADDR, 0xDEF000, PAGE_SIZE_4K)


def test_map_rejects_4k_under_2m_superpage(table):
    base = 0x4000_0000
    table.map(base, PAGE_SIZE_2M, PAGE_SIZE_2M)
    with pytest.raises(MappingError):
        table.map(base + PAGE_SIZE_4K * 3, 0xABC000, PAGE_SIZE_4K)


def test_table_pages_grow_with_spread_mappings(table):
    before = table.table_pages
    table.map(VADDR, 0xABC000, PAGE_SIZE_4K)
    after_first = table.table_pages
    # A second mapping far away needs fresh L3/L2/L1 pages.
    table.map(VADDR + (1 << 40), 0xDEF000, PAGE_SIZE_4K)
    assert after_first == before + 3  # L3 + L2 + L1 pages
    assert table.table_pages > after_first


def test_adjacent_pages_share_leaf_table(table):
    table.map(VADDR, 0xABC000, PAGE_SIZE_4K)
    pages_before = table.table_pages
    table.map(VADDR + PAGE_SIZE_4K, 0xDEF000, PAGE_SIZE_4K)
    assert table.table_pages == pages_before  # same L1 table page
    first = table.walk(VADDR).accesses[-1][1]
    second = table.walk(VADDR + PAGE_SIZE_4K).accesses[-1][1]
    assert second == first + 8  # consecutive 8-byte leaf PTEs


def test_mapped_bytes_accounting(table):
    table.map(VADDR, 0xABC000, PAGE_SIZE_4K)
    table.map(0x4000_0000, PAGE_SIZE_2M, PAGE_SIZE_2M)
    assert table.mapped_bytes(PAGE_SIZE_4K) == PAGE_SIZE_4K
    assert table.mapped_bytes(PAGE_SIZE_2M) == PAGE_SIZE_2M
    assert table.mapped_bytes() == PAGE_SIZE_4K + PAGE_SIZE_2M


def test_superpage_fraction_chunk_based(table):
    # One 2 MB mapping and one 4 KB-touched chunk -> 50% coverage.
    table.map(0x4000_0000, PAGE_SIZE_2M, PAGE_SIZE_2M)
    table.map(VADDR, 0xABC000, PAGE_SIZE_4K)
    assert table.superpage_fraction() == pytest.approx(0.5)
    # More 4 KB pages in the same chunk do not change chunk coverage.
    table.map(VADDR + PAGE_SIZE_4K, 0xDEF000, PAGE_SIZE_4K)
    assert table.superpage_fraction() == pytest.approx(0.5)


def test_is_mapped(table):
    assert not table.is_mapped(VADDR)
    table.map(VADDR, 0xABC000, PAGE_SIZE_4K)
    assert table.is_mapped(VADDR)


def test_superpage_fraction_counts_every_chunk_of_a_1g_mapping(table):
    # One 1 GB mapping covers 512 chunks of 2 MB; two 4 KB pages in one
    # chunk add one more.
    table.map(PAGE_SIZE_1G * 3, PAGE_SIZE_1G * 5, PAGE_SIZE_1G)
    table.map(VADDR, 0xABC000, PAGE_SIZE_4K)
    table.map(VADDR + PAGE_SIZE_4K, 0xDEF000, PAGE_SIZE_4K)
    assert table.superpage_fraction() == pytest.approx(512 / 513)
    assert table.mapped_bytes() == PAGE_SIZE_1G + 2 * PAGE_SIZE_4K


@pytest.mark.parametrize(
    "setup, args, context",
    [
        ((), (0x1000, 0x2000, 8192), {"vaddr": 0x1000, "page_size": 8192}),
        ((), (VADDR + 1, 0xABC000, PAGE_SIZE_4K), {"vaddr": VADDR + 1, "page_size": PAGE_SIZE_4K}),
        (
            (),
            (VADDR, 0xABC100, PAGE_SIZE_4K),
            {"vaddr": VADDR, "frame_paddr": 0xABC100, "page_size": PAGE_SIZE_4K},
        ),
        (
            ((0x4000_0000, PAGE_SIZE_2M, PAGE_SIZE_2M),),
            (0x4000_3000, 0xABC000, PAGE_SIZE_4K),
            {
                "vaddr": 0x4000_3000,
                "level": 2,
                "superpage_size": PAGE_SIZE_2M,
                "superpage_frame_paddr": PAGE_SIZE_2M,
            },
        ),
        (
            ((VADDR, 0xABC000, PAGE_SIZE_4K),),
            (VADDR, 0xDEF000, PAGE_SIZE_4K),
            {
                "vaddr": VADDR,
                "level": 1,
                "index": radix_index(VADDR, 1),
                "existing_frame_paddr": 0xABC000,
                "existing_page_size": PAGE_SIZE_4K,
            },
        ),
    ],
    ids=["unsupported-size", "unaligned-vaddr", "unaligned-frame", "under-superpage", "remap"],
)
def test_map_errors_carry_their_context(table, setup, args, context):
    for mapping in setup:
        table.map(*mapping)
    pages_before = table.table_pages
    with pytest.raises(MappingError) as info:
        table.map(*args)
    assert info.value.context == context
    assert table.table_pages == pages_before


def test_corrupt_l1_entry_raises_with_the_levels_read(table):
    table.map(VADDR, 0xABC000, PAGE_SIZE_4K)
    accesses = list(table.walk(VADDR).accesses)
    table.walk(VADDR).entry.is_leaf = False
    with pytest.raises(MappingError) as info:
        table.walk(VADDR)
    assert info.value.context == {"vaddr": VADDR, "accesses": accesses}
