"""x86-64 four-level radix page table (paper Sec. 2.1, Figure 2).

The table is materialized the way hardware sees it: every table page is a
real 4 KB frame obtained from the :class:`~repro.vm.frame_allocator.
FrameAllocator`, so each walk step has a concrete physical address -- the
concatenation of the table page's base with the level's 9-bit radix index.
That physical address is what travels through the cache hierarchy and
DRAM, which is exactly the locality TEMPO exploits (leaf-PT entries for
neighbouring virtual pages share cache lines and DRAM rows).

Leaf levels by page size: 4 KB pages terminate at L1, 2 MB at L2, 1 GB at
L3 (``LEAF_LEVEL_FOR_SIZE``).
"""

from repro.common.addressing import RADIX_INDEX_MASK, RADIX_LEVELS
from repro.common.constants import (
    LEAF_LEVEL_FOR_SIZE,
    PAGE_SHIFT_2M,
    PAGE_SIZE_4K,
    PT_LEVELS,
    PTE_SHIFT,
    SUPPORTED_PAGE_SIZES,
)
from repro.common.errors import MappingError, TranslationFault
from repro.common.stats import StatGroup


class PageTableEntry:
    """One 8-byte entry, as the prefetch engine would parse it."""

    __slots__ = ("present", "is_leaf", "frame_paddr", "page_size", "child")

    def __init__(self, present=False, is_leaf=False, frame_paddr=0, page_size=0, child=None):
        self.present = present
        self.is_leaf = is_leaf
        self.frame_paddr = frame_paddr
        self.page_size = page_size
        self.child = child

    def __repr__(self):
        if not self.present:
            return "PageTableEntry(not-present)"
        kind = "leaf/%d" % self.page_size if self.is_leaf else "table"
        return "PageTableEntry(%s -> 0x%x)" % (kind, self.frame_paddr)


class _PageTableNode:
    """One table page: a sparse 512-entry array living at ``base_paddr``."""

    __slots__ = ("level", "base_paddr", "entries")

    def __init__(self, level, base_paddr):
        self.level = level
        self.base_paddr = base_paddr
        self.entries = {}


class WalkResult:
    """Outcome of a radix walk: the per-level entry addresses a hardware
    walker would fetch, plus the terminal entry.

    ``accesses`` is a tuple of ``(level, entry_paddr)`` ordered L4 -> leaf.
    When the walk faults (``faulted``), ``accesses`` covers the levels the
    walker actually read before hitting a non-present entry.
    """

    __slots__ = ("accesses", "entry", "faulted", "leaf_level")

    def __init__(self, accesses, entry, faulted, leaf_level):
        self.accesses = accesses
        self.entry = entry
        self.faulted = faulted
        self.leaf_level = leaf_level

    @property
    def frame_paddr(self):
        return self.entry.frame_paddr if self.entry is not None else None

    @property
    def page_size(self):
        return self.entry.page_size if self.entry is not None else None

    def __repr__(self):
        state = "fault" if self.faulted else "0x%x" % self.entry.frame_paddr
        return "WalkResult(levels=%d, %s)" % (len(self.accesses), state)


class PageTable:
    """A process's radix page table, backed by allocated frames."""

    def __init__(self, allocator):
        self._allocator = allocator
        self.root = _PageTableNode(PT_LEVELS, allocator.alloc_4k())
        self.stats = StatGroup("page_table")
        self._table_pages = self.stats.counter("table_pages")
        self._table_pages.value += 1
        self._mappings_by_size = {
            size: self.stats.counter_handle("mappings_%d" % size) for size in LEAF_LEVEL_FOR_SIZE
        }
        self._mapped_bytes = {size: 0 for size in SUPPORTED_PAGE_SIZES}
        # Footprint coverage is tracked at 2 MB-chunk granularity: a
        # chunk is superpage-backed when a 2 MB/1 GB mapping covers it,
        # 4 KB-backed when any base page inside it is mapped.  This is
        # the paper's "fraction of memory footprint devoted to
        # superpages" (Figure 10 right) under demand paging, where a
        # byte-weighted ratio would be distorted by partially-touched
        # 4 KB chunks.
        self._chunks_4k = set()
        self._super_chunks = 0

    @property
    def cr3(self):
        """Physical address of the root (L4) table page."""
        return self.root.base_paddr

    # ------------------------------------------------------------------
    # Mapping management (the OS side)
    # ------------------------------------------------------------------

    def map(self, vaddr, frame_paddr, page_size=PAGE_SIZE_4K):
        """Install ``vaddr -> frame_paddr`` at *page_size* granularity.

        *vaddr* and *frame_paddr* must be aligned to *page_size*.
        """
        if page_size not in LEAF_LEVEL_FOR_SIZE:
            raise MappingError(
                "unsupported page size %r" % (page_size,),
                context={"vaddr": vaddr, "page_size": page_size},
            )
        if vaddr & (page_size - 1):
            raise MappingError(
                "virtual address 0x%x not %d-aligned" % (vaddr, page_size),
                context={"vaddr": vaddr, "page_size": page_size},
            )
        if frame_paddr & (page_size - 1):
            raise MappingError(
                "frame 0x%x not %d-aligned" % (frame_paddr, page_size),
                context={"vaddr": vaddr, "frame_paddr": frame_paddr, "page_size": page_size},
            )
        leaf_level = LEAF_LEVEL_FOR_SIZE[page_size]
        node = self.root
        for level, shift in RADIX_LEVELS:
            index = (vaddr >> shift) & RADIX_INDEX_MASK
            entry = node.entries.get(index)
            if level == leaf_level:
                break
            if entry is None or not entry.present:
                child = _PageTableNode(level - 1, self._allocator.alloc_4k())
                node.entries[index] = PageTableEntry(
                    present=True, is_leaf=False, frame_paddr=child.base_paddr, child=child
                )
                self._table_pages.value += 1
                node = child
            elif entry.is_leaf:
                raise MappingError(
                    "0x%x covered by an existing %d-byte superpage" % (vaddr, entry.page_size),
                    context={
                        "vaddr": vaddr,
                        "level": level,
                        "superpage_size": entry.page_size,
                        "superpage_frame_paddr": entry.frame_paddr,
                    },
                )
            else:
                node = entry.child
        if entry is not None and entry.present:
            raise MappingError(
                "0x%x already mapped (level %d index %d)" % (vaddr, leaf_level, index),
                context={
                    "vaddr": vaddr,
                    "level": leaf_level,
                    "index": index,
                    "existing_frame_paddr": entry.frame_paddr,
                    "existing_page_size": entry.page_size,
                },
            )
        node.entries[index] = PageTableEntry(
            present=True, is_leaf=True, frame_paddr=frame_paddr, page_size=page_size
        )
        self._mapped_bytes[page_size] += page_size
        if page_size == PAGE_SIZE_4K:
            self._chunks_4k.add(vaddr >> PAGE_SHIFT_2M)
        else:
            self._super_chunks += page_size >> PAGE_SHIFT_2M
        self._mappings_by_size[page_size].value += 1

    # ------------------------------------------------------------------
    # Lookup (the hardware side)
    # ------------------------------------------------------------------

    def walk(self, vaddr):
        """Perform a full radix walk, returning a :class:`WalkResult`.

        The result's ``accesses`` list contains the physical address of
        each page-table entry a hardware walker reads, in order -- the
        entries ``PageTableWalker.plan`` reads on a TLB miss in its own
        descent over the same level table, here with no timing and no
        MMU-cache probes.
        """
        accesses = []
        node = self.root
        for level, shift in RADIX_LEVELS:
            index = (vaddr >> shift) & RADIX_INDEX_MASK
            accesses.append((level, node.base_paddr + (index << PTE_SHIFT)))
            entry = node.entries.get(index)
            if entry is None or not entry.present:
                return WalkResult(tuple(accesses), None, True, level)
            if entry.is_leaf:
                return WalkResult(tuple(accesses), entry, False, level)
            node = entry.child
        # The L1 loop iteration either returned a leaf or a fault; a
        # present non-leaf L1 entry is structurally impossible.
        raise MappingError(
            "corrupt page table: non-leaf entry at L1 for 0x%x" % vaddr,
            context={"vaddr": vaddr, "accesses": list(accesses)},
        )

    def translate(self, vaddr):
        """Return ``(frame_base, page_size)`` or raise
        :class:`TranslationFault` -- the OS-level view, with no timing."""
        result = self.walk(vaddr)
        if result.faulted:
            raise TranslationFault(
                vaddr,
                context={
                    "fault_level": result.leaf_level,
                    "levels_read": len(result.accesses),
                },
            )
        return result.entry.frame_paddr, result.entry.page_size

    def is_mapped(self, vaddr):
        return not self.walk(vaddr).faulted

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def table_pages(self):
        """Number of 4 KB pages the table itself occupies."""
        return self._table_pages.value

    def mapped_bytes(self, page_size=None):
        """Footprint mapped at *page_size* (or total when ``None``)."""
        if page_size is None:
            return sum(self._mapped_bytes.values())
        return self._mapped_bytes[page_size]

    def superpage_fraction(self):
        """Fraction of the touched footprint (in 2 MB chunks) backed by
        2 MB/1 GB pages (the right-hand graph of the paper's Figure 10).
        """
        total = self._super_chunks + len(self._chunks_4k)
        if total == 0:
            return 0.0
        return self._super_chunks / total

    def __repr__(self):
        return "PageTable(cr3=0x%x, %d table pages, %d MB mapped)" % (
            self.cr3,
            self.table_pages,
            self.mapped_bytes() // (1024 * 1024),
        )
