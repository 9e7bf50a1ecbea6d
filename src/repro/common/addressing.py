"""Pure address-manipulation helpers.

These functions implement the x86-64 radix-walk arithmetic described in
Sec. 2.1 of the paper: a 48-bit virtual address is split into four 9-bit
radix indices plus a 12-bit page offset; a page-table walk concatenates
each level's base physical address with the corresponding index to form
the physical address of the entry it reads.

TEMPO (Sec. 4.1) additionally needs, at the memory controller, the cache
line *within the target page* that the faulting access will touch; the
modified page-table walker piggybacks that line index on the leaf-PT
request.  The helpers at the bottom compute and apply that offset.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.common.constants import (
    CACHE_LINE_BYTES,
    CACHE_LINE_SHIFT,
    PAGE_SHIFT_4K,
    PAGE_SHIFTS,
    PAGE_SIZE_4K,
    PT_ENTRIES,
    PT_LEVELS,
    PTE_SHIFT,
    RADIX_BITS,
    VA_BITS,
)
from repro.common.errors import ConfigError

_VA_MASK = (1 << VA_BITS) - 1

#: Mask for one level's 9-bit radix index.
RADIX_INDEX_MASK = PT_ENTRIES - 1

#: The radix descent, root first: one ``(level, shift)`` pair per
#: page-table level, L4 taking bits 47:39 and L1 bits 20:12.  At each
#: level a walk reads entry ``index = (vaddr >> shift) & RADIX_INDEX_MASK``
#: of the current table page, at ``base_paddr + (index << PTE_SHIFT)``.
#: Every loop that descends the table (the walker's plan,
#: ``PageTable.walk`` and ``PageTable.map``) takes its levels from here
#: and masks each index to 9 bits, so neither :func:`radix_index`'s level
#: check nor :func:`pte_address`'s range check can fire inside it; those
#: two helpers stay the validated reference for every other caller.
RADIX_LEVELS: Tuple[Tuple[int, int], ...] = tuple(
    (level, PAGE_SHIFT_4K + RADIX_BITS * (level - 1)) for level in range(PT_LEVELS, 0, -1)
)
_RADIX_SHIFTS: Dict[int, int] = dict(RADIX_LEVELS)

#: Precomputed masks for the per-record hot paths: the cache-line mask
#: and the per-page-size offset masks are applied millions of times per
#: simulation, so they are built once here instead of re-deriving
#: ``~(size - 1)`` on every call.  The simulator's per-record engine
#: applies them directly.
LINE_MASK = ~(CACHE_LINE_BYTES - 1)
PAGE_OFFSET_MASKS: Dict[int, int] = {size: size - 1 for size in PAGE_SHIFTS}


def canonical(vaddr: int) -> int:
    """Clamp *vaddr* to the translated 48-bit range."""
    return vaddr & _VA_MASK


def page_base(addr: int, page_size: int = PAGE_SIZE_4K) -> int:
    """Return the base address of the *page_size*-aligned page holding
    *addr* (works for virtual and physical addresses alike)."""
    return addr & ~(page_size - 1)


def page_offset(addr: int, page_size: int = PAGE_SIZE_4K) -> int:
    """Return the offset of *addr* within its *page_size* page."""
    mask = PAGE_OFFSET_MASKS.get(page_size)
    return addr & (mask if mask is not None else page_size - 1)


def page_number(addr: int, page_size: int = PAGE_SIZE_4K) -> int:
    """Return the page number of *addr* for the given page size."""
    return addr >> PAGE_SHIFTS[page_size]


def page_address(page_num: int, page_size: int = PAGE_SIZE_4K) -> int:
    """Inverse of :func:`page_number`: page number -> base address."""
    return page_num << PAGE_SHIFTS[page_size]


def radix_index(vaddr: int, level: int) -> int:
    """Return the 9-bit radix index used at page-table *level* (4..1).

    Level 4 consumes the uppermost 9 translated bits (47:39), level 1 the
    lowest 9 bits above the page offset (20:12).
    """
    if level not in (1, 2, 3, 4):
        raise ConfigError(
            "page-table level must be 1..4, got %r" % (level,),
            context={"level": level, "vaddr": vaddr},
        )
    return (canonical(vaddr) >> _RADIX_SHIFTS[level]) & RADIX_INDEX_MASK


def radix_indices(vaddr: int) -> Tuple[int, int, int, int]:
    """Return the (L4, L3, L2, L1) radix indices for *vaddr*."""
    l4, l3, l2, l1 = (radix_index(vaddr, level) for level in (4, 3, 2, 1))
    return (l4, l3, l2, l1)


def pte_address(table_base_paddr: int, index: int) -> int:
    """Physical address of entry *index* within the table page at
    *table_base_paddr* -- the concatenation the walker performs."""
    if not 0 <= index < PT_ENTRIES:
        raise ConfigError(
            "radix index out of range: %r" % (index,),
            context={"index": index, "table_base_paddr": table_base_paddr},
        )
    return table_base_paddr + (index << PTE_SHIFT)


def cache_line_id(addr: int) -> int:
    """Global cache-line identifier (address >> 6)."""
    return addr >> CACHE_LINE_SHIFT

def cache_line_base(addr: int) -> int:
    """Base address of the cache line holding *addr*."""
    return addr & LINE_MASK


def line_index_in_page(vaddr: int, page_size: int = PAGE_SIZE_4K) -> int:
    """Cache-line index of *vaddr* within its page.

    For 4 KB pages this is the 6-bit quantity (64 lines/page) the modified
    walker appends to leaf-PT requests; for 2 MB / 1 GB leaves the same
    scheme carries 15 / 24 bits (paper Sec. 4.5 notes TEMPO applies to any
    page size by tagging whichever level is the leaf).
    """
    return page_offset(vaddr, page_size) >> CACHE_LINE_SHIFT


def replay_address(frame_base_paddr: int, line_index: int) -> int:
    """Reconstruct the replay's physical target: the prefetch engine
    concatenates the PTE's physical page number with the piggybacked
    cache-line index (paper Sec. 4.1, Prefetch Engine)."""
    return frame_base_paddr + (line_index << CACHE_LINE_SHIFT)


def split_vaddr(vaddr: int, page_size: int = PAGE_SIZE_4K) -> Tuple[int, int]:
    """Return ``(virtual_page_number, page_offset)`` for *vaddr*."""
    return page_number(vaddr, page_size), page_offset(vaddr, page_size)


def translate(vaddr: int, frame_base_paddr: int, page_size: int = PAGE_SIZE_4K) -> int:
    """Combine a frame base with the page offset of *vaddr*."""
    mask = PAGE_OFFSET_MASKS.get(page_size)
    return frame_base_paddr | (vaddr & (mask if mask is not None else page_size - 1))
