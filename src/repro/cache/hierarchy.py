"""Three-level cache hierarchy: per-core L1/L2, shared write-back LLC.

The hierarchy is the timing bridge between the core/walker and DRAM:
``access`` reports where a reference hits and how long that took; on a
full miss the caller performs the DRAM access and then calls
``fill_from_memory``.  TEMPO's LLC prefetch enters through
``prefetch_fill_llc`` (paper Figure 7, step 7).

Dirty victims cascade to the next level (allocate-on-writeback); dirty
LLC victims are returned to the caller so the memory controller can
account the DRAM write traffic.
"""

from typing import NamedTuple, Optional

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

        Returns an :class:`AccessResult`; ``needs_dram`` means the caller
        must fetch from memory and then call :meth:`fill_from_memory`.
        """
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
        """Refill L1 (and optionally L2) after a lower-level hit."""
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
        """Install a DRAM-fetched line in all three levels.

        Dirty LLC victims accumulate; collect them with
        :meth:`drain_writebacks`.
        """
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
        """TEMPO's LLC prefetch: install the replay line in the LLC only
        (paper Figure 7, step 7)."""
        victim = self.llc.fill(paddr, is_prefetch=True)
        self._tempo_llc_prefetch_fills.value += 1
        if victim is not None and victim.dirty:
            self._pending_dram_writebacks.append(victim)

    def drain_writebacks(self):
        """Collect dirty LLC victims accumulated since the last drain;
        the memory controller turns them into DRAM write traffic."""
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
