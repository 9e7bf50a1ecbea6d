"""Three-level cache hierarchy: per-core L1/L2, shared write-back LLC.

The hierarchy is the timing bridge between the core/walker and DRAM:
``access`` reports where a reference hits and how long that took; on a
full miss the caller performs the DRAM access and then calls
``fill_from_memory``.  TEMPO's LLC prefetch enters through
``prefetch_fill_llc`` (paper Figure 7, step 7).

Each call shifts its address to a line id once and works in line ids
from there on.  Dirty victims cascade to the next level
(allocate-on-writeback); the addresses of dirty LLC victims are handed
to the caller so the memory controller can account the DRAM write
traffic.
"""

from typing import NamedTuple, Optional

from repro.common.constants import CACHE_LINE_SHIFT
from repro.common.stats import StatGroup
from repro.cache.cache import Cache


class AccessResult(NamedTuple):
    """Outcome of a hierarchy probe.  Immutable: a hierarchy hands out
    the same four results (one per outcome) to every caller."""

    hit_level: Optional[str]
    latency: int
    needs_dram: bool

    def __repr__(self):
        where = self.hit_level if self.hit_level else "dram"
        return "AccessResult(%s, %d cycles)" % (where, self.latency)


class CacheHierarchy:
    """L1-D and L2 per core, one shared LLC."""

    def __init__(self, system_config, num_cores=None, name="caches"):
        config = system_config
        self.config = config
        self.num_cores = num_cores if num_cores is not None else config.num_cores
        self._l1_latency = config.core.l1_latency
        self._l2_latency = config.core.l2_latency
        self._llc_latency = config.core.llc_latency
        self.l1 = [Cache(config.l1, "l1.%d" % cpu) for cpu in range(self.num_cores)]
        self.l2 = [Cache(config.l2, "l2.%d" % cpu) for cpu in range(self.num_cores)]
        self.llc = Cache(config.llc, "llc")
        self._pending_dram_writebacks = []
        self._l1_hit = AccessResult("l1", self._l1_latency, False)
        self._l2_hit = AccessResult("l2", self._l2_latency, False)
        self._llc_hit = AccessResult("llc", self._llc_latency, False)
        # A full miss costs the time spent discovering it (the LLC tag
        # lookup); the caller goes to DRAM.
        self._miss = AccessResult(None, self._llc_latency, True)
        self.stats = StatGroup(name)
        self._l1_writebacks = self.stats.counter_handle("l1_writebacks")
        self._l2_writebacks = self.stats.counter_handle("l2_writebacks")
        self._tempo_llc_prefetch_fills = self.stats.counter_handle("tempo_llc_prefetch_fills")

    def access(self, cpu, paddr, is_write=False):
        """Probe L1 -> L2 -> LLC for the line holding *paddr*.

        A lower-level hit refills L1 (with the store's dirty bit) and,
        after an LLC hit, L2.  Returns an :class:`AccessResult`;
        ``needs_dram`` means the caller must fetch from memory and then
        call :meth:`fill_from_memory`.
        """
        line = paddr >> CACHE_LINE_SHIFT
        if self.l1[cpu].lookup(line, is_write):
            return self._l1_hit
        if self.l2[cpu].lookup(line, is_write):
            victim = self.l1[cpu].fill(line, is_write)
            if victim is not None:
                self._writeback_to_l2(cpu, victim)
            return self._l2_hit
        if self.llc.lookup(line, is_write):
            victim = self.l1[cpu].fill(line, is_write)
            if victim is not None:
                self._writeback_to_l2(cpu, victim)
            victim = self.l2[cpu].fill(line)
            if victim is not None:
                self._writeback_to_llc(victim)
            return self._llc_hit
        return self._miss

    def _writeback_to_l2(self, cpu, line):
        victim = self.l2[cpu].fill(line, True)
        self._l1_writebacks.value += 1
        if victim is not None:
            self._writeback_to_llc(victim)

    def _writeback_to_llc(self, line):
        victim = self.llc.fill(line, True)
        self._l2_writebacks.value += 1
        if victim is not None:
            self._pending_dram_writebacks.append(victim << CACHE_LINE_SHIFT)

    def fill_from_memory(self, cpu, paddr, is_write=False):
        """Install a DRAM-fetched line in all three levels.

        Dirty LLC victims accumulate; collect them with
        :meth:`drain_writebacks`.
        """
        line = paddr >> CACHE_LINE_SHIFT
        victim = self.llc.fill(line)
        if victim is not None:
            self._pending_dram_writebacks.append(victim << CACHE_LINE_SHIFT)
        victim = self.l2[cpu].fill(line)
        if victim is not None:
            self._writeback_to_llc(victim)
        victim = self.l1[cpu].fill(line, is_write)
        if victim is not None:
            self._writeback_to_l2(cpu, victim)

    def prefetch_fill_llc(self, paddr):
        """TEMPO's LLC prefetch: install the replay line in the LLC only
        (paper Figure 7, step 7)."""
        victim = self.llc.fill(paddr >> CACHE_LINE_SHIFT, False, True)
        self._tempo_llc_prefetch_fills.value += 1
        if victim is not None:
            self._pending_dram_writebacks.append(victim << CACHE_LINE_SHIFT)

    def drain_writebacks(self):
        """Collect the addresses of the dirty LLC victims accumulated
        since the last drain, as a tuple; the memory controller turns
        them into DRAM write traffic."""
        if not self._pending_dram_writebacks:
            return ()
        writebacks = tuple(self._pending_dram_writebacks)
        self._pending_dram_writebacks.clear()
        return writebacks

    def llc_hit_rate(self):
        return self.llc.hit_rate()

    def __repr__(self):
        return "CacheHierarchy(%d cores, LLC %d KB)" % (
            self.num_cores,
            self.config.llc.size_bytes // 1024,
        )
