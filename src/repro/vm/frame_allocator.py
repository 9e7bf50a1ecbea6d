"""Physical frame allocator with fragmentation modelling.

The allocator manages physical memory at two granularities: 4 KB frames
and 2 MB regions (512 frames).  1 GB allocations take 512 contiguous
2 MB regions.  State is kept lazily -- only regions that have ever been
touched are materialized -- so multi-hundred-gigabyte physical memories
(needed for the 1 GB-superpage study) cost memory proportional to the
pages actually used.

Fragmentation (paper Sec. 6.2): running ``memhog`` at fraction *f* both
consumes capacity and destroys contiguity.  Real kernels fight back with
compaction, so instead of simulating per-frame pinning we model the net
effect directly: a 2 MB allocation finds a contiguous region with
probability ``(1 - f) ** contiguity_exponent`` (default exponent 2, which
matches the paper's observed coverage decline: f=0 -> always, f=0.25 ->
~56%, f=0.5 -> ~25%, f=0.75 -> ~6%).  The exponent is a tunable
compaction-difficulty parameter documented in DESIGN.md.
"""

from repro.common.constants import PAGE_SIZE_1G, PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.common.errors import AllocationError, ConfigError
from repro.common.rng import DeterministicRng
from repro.common.stats import StatGroup

FRAMES_PER_REGION = PAGE_SIZE_2M // PAGE_SIZE_4K
REGIONS_PER_1G = PAGE_SIZE_1G // PAGE_SIZE_2M


class FrameAllocator:
    """Lazy physical-memory allocator (see module docstring)."""

    def __init__(self, phys_mem_bytes, rng=None, contiguity_exponent=2.0):
        if phys_mem_bytes < PAGE_SIZE_2M:
            raise ConfigError(
                "physical memory must hold at least one 2 MB region",
                context={"phys_mem_bytes": phys_mem_bytes},
            )
        self.phys_mem_bytes = phys_mem_bytes
        self.num_regions = phys_mem_bytes // PAGE_SIZE_2M
        self.contiguity_exponent = contiguity_exponent
        self._rng = rng if rng is not None else DeterministicRng(0, "frame-allocator")
        #: Next never-touched region index (bump pointer).
        self._region_cursor = 0
        #: Region currently being filled with 4 KB allocations, as a
        #: ``[region_index, frames_used]`` pair (or ``None``).
        self._open_region = None
        #: Frames freed inside partial regions, available for reuse.
        self._free_frames = []
        self._memhog_fraction = 0.0
        self._memhog_regions = 0
        self.stats = StatGroup("frame_allocator")
        self._alloc_4k = self.stats.counter_handle("alloc_4k")
        self._alloc_2m = self.stats.counter_handle("alloc_2m")
        self._alloc_2m_failed = self.stats.counter_handle("alloc_2m_failed")

    # ------------------------------------------------------------------
    # Capacity accounting
    # ------------------------------------------------------------------

    @property
    def regions_used(self):
        return self._region_cursor + self._memhog_regions

    @property
    def free_bytes(self):
        partially_free = 0
        if self._open_region is not None:
            partially_free = (FRAMES_PER_REGION - self._open_region[1]) * PAGE_SIZE_4K
        untouched = (self.num_regions - self.regions_used) * PAGE_SIZE_2M
        return untouched + partially_free + len(self._free_frames) * PAGE_SIZE_4K

    def _take_region(self):
        """Claim the next untouched 2 MB region; raises when exhausted."""
        if self.regions_used >= self.num_regions:
            raise AllocationError(
                "physical memory exhausted (%d regions)" % self.num_regions,
                context={
                    "num_regions": self.num_regions,
                    "memhog_regions": self._memhog_regions,
                    "free_frames": len(self._free_frames),
                },
            )
        region = self._region_cursor
        self._region_cursor += 1
        return region

    # ------------------------------------------------------------------
    # Allocation entry points
    # ------------------------------------------------------------------

    def alloc_4k(self):
        """Allocate one 4 KB frame; returns its base physical address."""
        self._alloc_4k.value += 1
        if self._free_frames:
            return self._free_frames.pop()
        # Fill the open region before claiming a new one (first-fit, like
        # the buddy allocator's preference for already-split blocks).
        if self._open_region is None or self._open_region[1] >= FRAMES_PER_REGION:
            self._open_region = [self._take_region(), 0]
        region, used = self._open_region
        self._open_region[1] = used + 1
        return region * PAGE_SIZE_2M + used * PAGE_SIZE_4K

    def try_alloc_2m(self):
        """Allocate a 2 MB-aligned region, or ``None`` when fragmentation
        defeats contiguity (see module docstring)."""
        if self.regions_used >= self.num_regions:
            return None
        success_probability = (1.0 - self._memhog_fraction) ** self.contiguity_exponent
        if self._rng.random() > success_probability:
            self._alloc_2m_failed.value += 1
            return None
        region = self._take_region()
        self._alloc_2m.value += 1
        return region * PAGE_SIZE_2M

    def alloc_2m(self):
        """Allocate a 2 MB region; raises :class:`AllocationError` when
        unavailable."""
        frame = self.try_alloc_2m()
        if frame is None:
            raise AllocationError(
                "no contiguous 2 MB region available",
                context={
                    "num_regions": self.num_regions,
                    "regions_used": self.regions_used,
                    "memhog_fraction": self._memhog_fraction,
                },
            )
        return frame

    def try_alloc_1g(self):
        """Allocate a 1 GB-aligned region, or ``None``.

        1 GB pages are only handed out from never-fragmented memory
        (mirroring Linux, where 1 GB pages must be reserved at boot); the
        bump cursor is rounded up to 1 GB alignment.
        """
        aligned_cursor = -(-self._region_cursor // REGIONS_PER_1G) * REGIONS_PER_1G
        if aligned_cursor + REGIONS_PER_1G > self.num_regions - self._memhog_regions:
            self.stats.counter("alloc_1g_failed").add()
            return None
        if self._memhog_fraction > 0.0:
            # Fragmented memory cannot produce fresh gigabyte pages.
            self.stats.counter("alloc_1g_failed").add()
            return None
        self._region_cursor = aligned_cursor + REGIONS_PER_1G
        self.stats.counter("alloc_1g").add()
        return aligned_cursor * PAGE_SIZE_2M

    def alloc_1g(self):
        frame = self.try_alloc_1g()
        if frame is None:
            raise AllocationError(
                "no contiguous 1 GB region available",
                context={
                    "num_regions": self.num_regions,
                    "region_cursor": self._region_cursor,
                    "memhog_regions": self._memhog_regions,
                },
            )
        return frame

    def reserve_pool(self, page_size, count):
        """Pre-reserve *count* superpages (hugetlbfs boot-time pools).

        Returns the list of base addresses.  Reservations happen before
        memhog runs, so they always come from contiguous memory.
        """
        if page_size == PAGE_SIZE_2M:
            taker = self.alloc_2m
        elif page_size == PAGE_SIZE_1G:
            taker = self.alloc_1g
        else:
            raise ConfigError(
                "pools exist only for 2 MB / 1 GB pages",
                context={"page_size": page_size, "count": count},
            )
        return [taker() for _ in range(count)]

    def free_4k(self, paddr):
        """Return a 4 KB frame to the free pool."""
        self._free_frames.append(paddr)
        self.stats.counter("free_4k").add()

    # ------------------------------------------------------------------
    # Fragmentation injection
    # ------------------------------------------------------------------

    def apply_memhog(self, fraction):
        """Pin *fraction* of physical memory, fragmenting the rest.

        Capacity: the pinned regions are removed from the allocatable
        pool.  Contiguity: subsequent 2 MB allocations succeed with
        probability ``(1 - fraction) ** contiguity_exponent``.
        """
        if not 0.0 <= fraction < 1.0:
            raise ConfigError(
                "memhog fraction must be in [0, 1)",
                context={"fraction": fraction},
            )
        self._memhog_fraction = fraction
        self._memhog_regions = int(self.num_regions * fraction)
        self.stats.counter("memhog_regions").add(self._memhog_regions)

    @property
    def memhog_fraction(self):
        return self._memhog_fraction

    def __repr__(self):
        return "FrameAllocator(%d MB, %.0f%% memhog)" % (
            self.phys_mem_bytes // (1024 * 1024),
            self._memhog_fraction * 100,
        )
