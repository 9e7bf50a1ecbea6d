"""Translation lookaside buffers.

A two-level hierarchy mirroring Skylake (paper Figure 9): split L1 arrays
per page size (64-entry 4 KB, 32-entry 2 MB, 4-entry 1 GB) backed by a
unified L2 ("STLB").  Skylake's STLB does not hold 1 GB translations;
``TlbConfig.l2_holds_1g`` models that.

Set-associative LRU throughout, exploiting Python dict insertion order
for the recency stack.
"""

from repro.common.constants import PAGE_SHIFTS, PAGE_SIZE_1G, PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.common.stats import StatGroup


class SetAssociativeTlb:
    """One TLB array for one page size: VPN -> frame base, LRU sets."""

    def __init__(self, entries, assoc, page_size, name="tlb"):
        self.page_size = page_size
        self.assoc = assoc
        self.num_sets = entries // assoc
        self._set_mask = self.num_sets - 1
        self._page_shift = PAGE_SHIFTS[page_size]
        # One ordered dict per set: vpn -> frame_base (LRU = first key).
        self._sets = [dict() for _ in range(self.num_sets)]
        self.stats = StatGroup(name)
        self._hits = self.stats.counter_handle("hits")
        self._misses = self.stats.counter_handle("misses")
        self._evictions = self.stats.counter_handle("evictions")

    def _set_for(self, vpn):
        return self._sets[vpn & self._set_mask]

    def lookup(self, vaddr):
        """Return the frame base for *vaddr*, or ``None`` on miss.

        A hit refreshes the entry's LRU position.
        """
        vpn = vaddr >> self._page_shift
        entries = self._sets[vpn & self._set_mask]
        frame = entries.pop(vpn, None)
        if frame is None:
            self._misses.value += 1
            return None
        entries[vpn] = frame  # re-insert as most recent
        self._hits.value += 1
        return frame

    def insert(self, vaddr, frame_base):
        """Fill a translation; evicts LRU on conflict.

        Returns the evicted ``(vpn, frame_base)`` or ``None``.
        """
        vpn = vaddr >> self._page_shift
        entries = self._sets[vpn & self._set_mask]
        entries.pop(vpn, None)
        victim = None
        if len(entries) >= self.assoc:
            victim_vpn = next(iter(entries))
            victim = (victim_vpn, entries.pop(victim_vpn))
            self._evictions.value += 1
        entries[vpn] = frame_base
        return victim

    def invalidate(self, vaddr):
        """Drop the entry covering *vaddr*, if present (TLB shootdown)."""
        vpn = vaddr >> self._page_shift
        removed = self._set_for(vpn).pop(vpn, None) is not None
        if removed:
            self.stats.counter("invalidations").add()
        return removed

    def flush(self):
        for entries in self._sets:
            entries.clear()
        self.stats.counter("flushes").add()

    @property
    def occupancy(self):
        return sum(len(entries) for entries in self._sets)

    def hit_rate(self):
        return self.stats.ratio("hits", "misses")


class TlbHierarchy:
    """Split-L1 + unified-L2 TLB hierarchy for one core."""

    def __init__(self, tlb_config, name="tlb"):
        config = tlb_config
        self.config = config
        self._l1 = {
            PAGE_SIZE_4K: SetAssociativeTlb(config.l1_entries_4k, config.l1_assoc_4k, PAGE_SIZE_4K, "l1_4k"),
            PAGE_SIZE_2M: SetAssociativeTlb(config.l1_entries_2m, config.l1_assoc_2m, PAGE_SIZE_2M, "l1_2m"),
            PAGE_SIZE_1G: SetAssociativeTlb(config.l1_entries_1g, config.l1_assoc_1g, PAGE_SIZE_1G, "l1_1g"),
        }
        self._l2 = {
            PAGE_SIZE_4K: SetAssociativeTlb(config.l2_entries, config.l2_assoc, PAGE_SIZE_4K, "l2_4k"),
            PAGE_SIZE_2M: SetAssociativeTlb(config.l2_entries, config.l2_assoc, PAGE_SIZE_2M, "l2_2m"),
        }
        if config.l2_holds_1g:
            self._l2[PAGE_SIZE_1G] = SetAssociativeTlb(
                config.l2_entries, config.l2_assoc, PAGE_SIZE_1G, "l2_1g"
            )
        #: The probe order of :meth:`lookup`, as ``(page_size, array)``.
        self._l1_probes = tuple(self._l1.items())
        self._l2_probes = tuple(self._l2.items())
        self.stats = StatGroup(name)
        self._l1_hits = self.stats.counter_handle("l1_hits")
        self._l2_hits = self.stats.counter_handle("l2_hits")
        self._misses = self.stats.counter_handle("misses")

    def lookup(self, vaddr):
        """Probe L1 then L2.

        Returns ``(frame_base, page_size, extra_latency)`` on a hit
        (latency 0 for L1, ``l2_latency`` for L2, during which the L1 is
        refilled), or ``None`` on a full miss.
        """
        for page_size, array in self._l1_probes:
            frame = array.lookup(vaddr)
            if frame is not None:
                self._l1_hits.value += 1
                return frame, page_size, 0
        for page_size, array in self._l2_probes:
            frame = array.lookup(vaddr)
            if frame is not None:
                self._l1[page_size].insert(vaddr, frame)
                self._l2_hits.value += 1
                return frame, page_size, self.config.l2_latency
        self._misses.value += 1
        return None

    def fill(self, vaddr, frame_base, page_size):
        """Install a walked translation into L1 and (if held) L2."""
        self._l1[page_size].insert(vaddr, frame_base)
        l2 = self._l2.get(page_size)
        if l2 is not None:
            l2.insert(vaddr, frame_base)

    def invalidate(self, vaddr):
        removed = False
        for array in self._l1.values():
            removed |= array.invalidate(vaddr)
        for array in self._l2.values():
            removed |= array.invalidate(vaddr)
        return removed

    def flush(self):
        for array in self._l1.values():
            array.flush()
        for array in self._l2.values():
            array.flush()

    def stat_groups(self):
        """Per-array StatGroups (``l1_4k`` ... ``l2_2m``) so the metrics
        harvest can export every array, not just the hierarchy summary."""
        arrays = list(self._l1.values()) + list(self._l2.values())
        return [array.stats for array in arrays]

    def miss_rate(self):
        """Full-hierarchy miss rate over all lookups."""
        stats = self.stats
        hits = stats.peek("l1_hits") + stats.peek("l2_hits")
        misses = stats.peek("misses")
        total = hits + misses
        return misses / total if total else 0.0
