"""Per-process virtual address space with demand paging.

Workload generators register *regions* (the program's arrays, graphs,
hash tables).  The simulator translates lazily: the first touch of an
unmapped page raises a minor fault serviced here, where the superpage
policy decides the backing page size -- mirroring Linux first-touch
allocation with THP.

Virtual layout: every region is placed on a fresh 1 GB-aligned base so
2 MB and 1 GB chunks inside it are always alignable.
"""

import bisect

from repro.common.constants import LEAF_LEVEL_FOR_SIZE, PAGE_SIZE_1G
from repro.common.errors import MappingError, TranslationFault
from repro.common.stats import StatGroup
from repro.vm.page_table import PageTable


#: First virtual address handed to regions (above typical binary/heap).
REGION_SPACE_BASE = 0x100_0000_0000  # the 1 TB mark


class Region:
    """A named, contiguous virtual allocation.

    ``thp_eligibility`` models sub-chunk realities THP fights (unaligned
    VMA pieces, mixed-permission spans, partial chunks): only that
    fraction of the region's 2 MB chunks is promotable.  The choice is
    deterministic per chunk so re-runs map identically.
    """

    __slots__ = ("base", "size", "name", "allow_superpages", "thp_eligibility")

    def __init__(self, base, size, name, allow_superpages=True, thp_eligibility=1.0):
        self.base = base
        self.size = size
        self.name = name
        self.allow_superpages = allow_superpages
        self.thp_eligibility = thp_eligibility

    def chunk_eligible(self, chunk_base):
        """Deterministic per-chunk THP eligibility draw."""
        if self.thp_eligibility >= 1.0:
            return True
        if self.thp_eligibility <= 0.0:
            return False
        # Knuth multiplicative hash keeps the draw stable across runs.
        draw = ((chunk_base >> 21) * 2654435761) % (1 << 32) / float(1 << 32)
        return draw < self.thp_eligibility

    @property
    def end(self):
        return self.base + self.size

    def contains(self, vaddr):
        return self.base <= vaddr < self.end

    def __repr__(self):
        return "Region(%s, 0x%x, %d MB)" % (self.name, self.base, self.size // (1024 * 1024))


class AddressSpace:
    """One process's virtual memory: regions + page table + policy."""

    def __init__(self, allocator, policy, page_table=None):
        self._allocator = allocator
        self.policy = policy
        self.page_table = page_table if page_table is not None else PageTable(allocator)
        self._regions = []
        self._region_bases = []
        self._next_base = REGION_SPACE_BASE
        self.stats = StatGroup("address_space")
        self._minor_faults = self.stats.counter_handle("minor_faults")
        self._faults_by_size = {
            size: self.stats.counter_handle("faults_%d" % size) for size in LEAF_LEVEL_FOR_SIZE
        }

    # ------------------------------------------------------------------
    # Region management
    # ------------------------------------------------------------------

    def allocate_region(self, size, name, allow_superpages=True, thp_eligibility=1.0):
        """Reserve *size* bytes of virtual space; returns the Region.

        Nothing is mapped until touched (demand paging).
        """
        if size <= 0:
            raise MappingError(
                "region %r must have positive size" % name,
                context={"region": name, "size": size},
            )
        base = self._next_base
        region = Region(base, size, name, allow_superpages, thp_eligibility)
        self._regions.append(region)
        self._region_bases.append(base)
        # Next region starts at the following 1 GB boundary plus a guard gap.
        self._next_base = (
            (region.end + PAGE_SIZE_1G - 1) // PAGE_SIZE_1G + 1
        ) * PAGE_SIZE_1G
        self.stats.counter("regions").add()
        return region

    def region_of(self, vaddr):
        """Return the region containing *vaddr*, or ``None``."""
        position = bisect.bisect_right(self._region_bases, vaddr) - 1
        if position < 0:
            return None
        region = self._regions[position]
        return region if region.contains(vaddr) else None

    @property
    def regions(self):
        return tuple(self._regions)

    # ------------------------------------------------------------------
    # Demand paging
    # ------------------------------------------------------------------

    def handle_fault(self, vaddr):
        """Service a minor fault: map the page containing *vaddr*.

        Returns ``(frame_base, page_size)``.  Raises
        :class:`TranslationFault` for addresses outside every region
        (a would-be segfault, indicating a workload-generator bug).
        """
        region = self.region_of(vaddr)
        if region is None:
            raise TranslationFault(
                vaddr,
                "0x%x is outside every region" % vaddr,
                context={
                    "num_regions": len(self._regions),
                    "regions": [r.name for r in self._regions[:8]],
                },
            )
        page_vbase, frame_paddr, page_size = self.policy.choose_mapping(region, vaddr)
        self.page_table.map(page_vbase, frame_paddr, page_size)
        self._minor_faults.value += 1
        self._faults_by_size[page_size].value += 1
        return frame_paddr, page_size

    def ensure_mapped(self, vaddr):
        """Translate *vaddr*, demand-mapping on first touch.

        Returns ``(frame_base, page_size, faulted)``.
        """
        result = self.page_table.walk(vaddr)
        if not result.faulted:
            return result.entry.frame_paddr, result.entry.page_size, False
        frame_paddr, page_size = self.handle_fault(vaddr)
        return frame_paddr, page_size, True

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def superpage_fraction(self):
        """Fraction of the mapped footprint backed by superpages."""
        return self.page_table.superpage_fraction()

    def mapped_bytes(self, page_size=None):
        return self.page_table.mapped_bytes(page_size)

    def __repr__(self):
        return "AddressSpace(%d regions, %d MB mapped, policy=%s)" % (
            len(self._regions),
            self.mapped_bytes() // (1024 * 1024),
            self.policy.name,
        )
