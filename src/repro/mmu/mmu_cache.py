"""MMU caches (page-walk caches).

Skylake-style paging-structure caches hold frequently used entries from
the upper page-table levels (L4, L3, L2) so a walk can skip directly to
the lowest cached level.  They never hold *leaf* entries -- those belong
to the TLB -- which is why the paper finds 96%+ of DRAM page-table
accesses are for leaf PTs (Sec. 2.2): the upper levels map such large
address chunks that these small caches absorb them.

Keyed by the page-table entry's physical address, which is equivalent to
indexing by the partial virtual-page number (the entry address *is* the
table base concatenated with the radix index).
"""

from repro.common.stats import StatGroup


class _Level:
    """Set-associative LRU array for one page-table level."""

    __slots__ = ("assoc", "_sets", "_set_mask")

    def __init__(self, entries, assoc):
        self.assoc = assoc
        num_sets = entries // assoc
        self._set_mask = num_sets - 1
        self._sets = [dict() for _ in range(num_sets)]

    def _set_for(self, entry_paddr):
        # Entries are 8 bytes; drop the byte offset before indexing.
        return self._sets[(entry_paddr >> 3) & self._set_mask]

    def lookup(self, entry_paddr):
        entries = self._set_for(entry_paddr)
        if entry_paddr in entries:
            del entries[entry_paddr]
            entries[entry_paddr] = True
            return True
        return False

    def insert(self, entry_paddr):
        entries = self._set_for(entry_paddr)
        entries.pop(entry_paddr, None)
        if len(entries) >= self.assoc:
            del entries[next(iter(entries))]
        entries[entry_paddr] = True

    def flush(self):
        for entries in self._sets:
            entries.clear()


class MmuCaches:
    """Per-level page-walk caches for levels 4, 3 and 2."""

    CACHED_LEVELS = (4, 3, 2)

    def __init__(self, config, name="mmu_cache"):
        self.config = config
        self._levels = {
            level: _Level(config.entries_per_level, config.assoc)
            for level in self.CACHED_LEVELS
        }
        self.stats = StatGroup(name)
        self._hits = self.stats.counter_handle("hits")
        self._misses = self.stats.counter_handle("misses")
        self._fills = self.stats.counter_handle("fills")

    def lookup(self, level, entry_paddr, is_leaf):
        """True when the walker can source this entry from the MMU cache.

        Leaf entries are never cached here regardless of level (a 1 GB
        leaf lives at L3 but belongs to the TLB, not the walk cache).
        """
        if is_leaf or level not in self._levels:
            return False
        if self._levels[level].lookup(entry_paddr):
            self._hits.value += 1
            return True
        self._misses.value += 1
        return False

    def insert(self, level, entry_paddr, is_leaf):
        """Fill a non-leaf entry after the walker fetched it from memory."""
        if is_leaf or level not in self._levels:
            return
        self._levels[level].insert(entry_paddr)
        self._fills.value += 1

    def flush(self):
        for level in self._levels.values():
            level.flush()
        self.stats.counter("flushes").add()

    def hit_rate(self):
        return self.stats.ratio("hits", "misses")
