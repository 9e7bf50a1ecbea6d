"""The cache hierarchy in its earlier, per-address form.

The differential test in ``test_properties.py`` runs this hierarchy and
:class:`~repro.cache.hierarchy.CacheHierarchy` on the same operations and
requires identical results.  Here every cache level takes a physical
address and shifts it to a line id itself, every eviction, clean or
dirty, comes back as an :class:`EvictedLine`, and each step of the dirty
cascade turns its victim back into an address.  The pending list holds
the LLC's dirty victims, so a drain returns :class:`EvictedLine` objects
and the caller reads each one's ``paddr``.  Construction (levels,
latencies, counters, replacement streams) is shared.
"""

from repro.cache.cache import Cache
from repro.cache.hierarchy import CacheHierarchy


class EvictedLine:
    """A victim pushed out of a cache level."""

    __slots__ = ("line_id", "dirty")

    def __init__(self, line_id, dirty):
        self.line_id = line_id
        self.dirty = dirty

    @property
    def paddr(self):
        return self.line_id << 6


class PerAddressCache(Cache):
    """One level whose probes and fills take a physical address and
    whose fills return every victim."""

    def __init__(self, config, name="cache", rng=None):
        super().__init__(config, name, rng)
        self._line_shift = config.line_bytes.bit_length() - 1

    def lookup(self, paddr, is_write=False):
        line = paddr >> self._line_shift
        entries = self._sets[line & self._set_mask]
        dirty = entries.pop(line, None)
        if dirty is None:
            self._misses.value += 1
            return False
        entries[line] = dirty or is_write
        self._hits.value += 1
        return True

    def contains(self, paddr):
        line = paddr >> self._line_shift
        return line in self._sets[line & self._set_mask]

    def fill(self, paddr, is_write=False, is_prefetch=False):
        line = paddr >> self._line_shift
        entries = self._sets[line & self._set_mask]
        existing = entries.pop(line, None)
        if existing is not None:
            entries[line] = existing or is_write
            return None
        victim = None
        if len(entries) >= self.assoc:
            if self._random_replacement:
                victim_line = list(entries)[self._rng.randint(0, len(entries) - 1)]
            else:
                victim_line = next(iter(entries))
            victim = EvictedLine(victim_line, entries.pop(victim_line))
            self._evictions.value += 1
            if victim.dirty:
                self._dirty_evictions.value += 1
        entries[line] = is_write
        if is_prefetch:
            self._prefetch_fills.value += 1
        else:
            self._fills.value += 1
        return victim


class PerAddressHierarchy(CacheHierarchy):
    """See module docstring; ``drain_writebacks`` is shared."""

    def __init__(self, system_config, num_cores=None, name="caches"):
        super().__init__(system_config, num_cores, name)
        config = system_config
        self.l1 = [PerAddressCache(config.l1, "l1.%d" % cpu) for cpu in range(self.num_cores)]
        self.l2 = [PerAddressCache(config.l2, "l2.%d" % cpu) for cpu in range(self.num_cores)]
        self.llc = PerAddressCache(config.llc, "llc")

    def access(self, cpu, paddr, is_write=False):
        if self.l1[cpu].lookup(paddr, is_write):
            return self._l1_hit
        if self.l2[cpu].lookup(paddr, is_write):
            self._fill_upper(cpu, paddr, is_write, into_l2=False)
            return self._l2_hit
        if self.llc.lookup(paddr, is_write):
            self._fill_upper(cpu, paddr, is_write, into_l2=True)
            return self._llc_hit
        return self._miss

    def _fill_upper(self, cpu, paddr, is_write, into_l2):
        victim = self.l1[cpu].fill(paddr, is_write)
        if victim is not None and victim.dirty:
            self._writeback_to_l2(cpu, victim)
        if into_l2:
            victim = self.l2[cpu].fill(paddr)
            if victim is not None and victim.dirty:
                self._writeback_to_llc(victim)

    def _writeback_to_l2(self, cpu, victim):
        deeper = self.l2[cpu].fill(victim.paddr, is_write=True)
        self._l1_writebacks.value += 1
        if deeper is not None and deeper.dirty:
            self._writeback_to_llc(deeper)

    def _writeback_to_llc(self, victim):
        deeper = self.llc.fill(victim.paddr, is_write=True)
        self._l2_writebacks.value += 1
        if deeper is not None and deeper.dirty:
            self._pending_dram_writebacks.append(deeper)

    def fill_from_memory(self, cpu, paddr, is_write=False):
        llc_victim = self.llc.fill(paddr)
        if llc_victim is not None and llc_victim.dirty:
            self._pending_dram_writebacks.append(llc_victim)
        l2_victim = self.l2[cpu].fill(paddr)
        if l2_victim is not None and l2_victim.dirty:
            self._writeback_to_llc(l2_victim)
        l1_victim = self.l1[cpu].fill(paddr, is_write)
        if l1_victim is not None and l1_victim.dirty:
            self._writeback_to_l2(cpu, l1_victim)

    def prefetch_fill_llc(self, paddr):
        victim = self.llc.fill(paddr, is_prefetch=True)
        self._tempo_llc_prefetch_fills.value += 1
        if victim is not None and victim.dirty:
            self._pending_dram_writebacks.append(victim)
