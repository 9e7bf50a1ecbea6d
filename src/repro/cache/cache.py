"""A single set-associative, write-back cache level.

Lines are tracked by line id (``paddr >> 6``); LRU recency uses dict
insertion order, "random" replacement uses a deterministic stream so
experiments stay reproducible.
"""

from repro.common.config import CacheConfig
from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRng
from repro.common.stats import StatGroup


class EvictedLine:
    """A victim pushed out of a cache level."""

    __slots__ = ("line_id", "dirty")

    def __init__(self, line_id, dirty):
        self.line_id = line_id
        self.dirty = dirty

    @property
    def paddr(self):
        return self.line_id << 6

    def __repr__(self):
        return "EvictedLine(0x%x%s)" % (self.paddr, " dirty" if self.dirty else "")


class Cache:
    """One cache level; see :class:`~repro.common.config.CacheConfig`."""

    def __init__(self, config, name="cache", rng=None):
        if not isinstance(config, CacheConfig):
            raise ConfigError(
                "config must be a CacheConfig, got %s" % type(config).__name__,
                context={"cache": name, "config_type": type(config).__name__},
            )
        config.validate()
        self.config = config
        self.name = name
        self.num_sets = config.num_sets
        self.assoc = config.assoc
        self._set_mask = self.num_sets - 1
        self._line_shift = config.line_bytes.bit_length() - 1
        # One dict per set: line_id -> dirty flag (LRU = first key).
        self._sets = [dict() for _ in range(self.num_sets)]
        self._random_replacement = config.replacement == "random"
        self._rng = rng if rng is not None else DeterministicRng(0, "cache.%s" % name)
        self.stats = StatGroup(name)
        # Hot-path counters, bound once (StatGroup lookups are dict+format).
        self._hits = self.stats.counter("hits")
        self._misses = self.stats.counter("misses")
        self._fills = self.stats.counter("fills")
        self._prefetch_fills = self.stats.counter("prefetch_fills")
        self._evictions = self.stats.counter("evictions")
        self._dirty_evictions = self.stats.counter("dirty_evictions")

    def line_id(self, paddr):
        return paddr >> self._line_shift

    def _set_for(self, line_id):
        return self._sets[line_id & self._set_mask]

    def lookup(self, paddr, is_write=False):
        """Probe for the line holding *paddr*; updates recency and dirty
        state on a hit.  Returns True on hit."""
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
        """Non-updating probe (for invariant checks and tests)."""
        line = self.line_id(paddr)
        return line in self._set_for(line)

    def fill(self, paddr, is_write=False, is_prefetch=False):
        """Install the line holding *paddr*.

        Returns the :class:`EvictedLine` victim, or ``None``.
        """
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

    def invalidate(self, paddr):
        """Drop the line holding *paddr*; returns it if it was present."""
        line = self.line_id(paddr)
        entries = self._set_for(line)
        dirty = entries.pop(line, None)
        if dirty is None:
            return None
        self.stats.counter("invalidations").add()
        return EvictedLine(line, dirty)

    def flush(self):
        """Drop every line; returns the dirty victims (writeback set)."""
        dirty_lines = []
        for entries in self._sets:
            dirty_lines.extend(
                EvictedLine(line, True) for line, dirty in entries.items() if dirty
            )
            entries.clear()
        self.stats.counter("flushes").add()
        return dirty_lines

    @property
    def occupancy(self):
        return sum(len(entries) for entries in self._sets)

    def hit_rate(self):
        return self.stats.ratio("hits", "misses")

    def __repr__(self):
        return "Cache(%s, %d KB, %d-way)" % (
            self.name,
            self.config.size_bytes // 1024,
            self.assoc,
        )
