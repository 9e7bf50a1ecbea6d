"""A single set-associative, write-back cache level.

Every method takes a line id (``paddr >> CACHE_LINE_SHIFT``), which the
:class:`~repro.cache.hierarchy.CacheHierarchy` computes once per call;
every level's lines are 64 bytes (``CacheConfig.validate``).  A set is a
dict from line id to dirty flag: LRU recency is its insertion order,
and "random" replacement draws from a deterministic stream so
experiments stay reproducible.  ``fill`` hands back only a dirty
victim, the one line a caller writes back.
"""

from repro.common.config import CacheConfig
from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRng
from repro.common.stats import StatGroup


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

    def lookup(self, line, is_write=False):
        """Probe for *line*; updates recency and dirty state on a hit.
        Returns True on hit."""
        entries = self._sets[line & self._set_mask]
        dirty = entries.pop(line, None)
        if dirty is None:
            self._misses.value += 1
            return False
        entries[line] = dirty or is_write
        self._hits.value += 1
        return True

    def contains(self, line):
        """Non-updating probe (for invariant checks and tests)."""
        return line in self._sets[line & self._set_mask]

    def fill(self, line, is_write=False, is_prefetch=False):
        """Install *line*.

        Returns the line id of the victim it evicts if that victim is
        dirty, else ``None``; a clean victim is only counted.
        """
        entries = self._sets[line & self._set_mask]
        existing = entries.pop(line, None)
        if existing is not None:
            entries[line] = existing or is_write
            return None
        victim = None
        if len(entries) >= self.assoc:
            if self._random_replacement:
                evicted = list(entries)[self._rng.randint(0, len(entries) - 1)]
            else:
                evicted = next(iter(entries))
            self._evictions.value += 1
            if entries.pop(evicted):
                self._dirty_evictions.value += 1
                victim = evicted
        entries[line] = is_write
        if is_prefetch:
            self._prefetch_fills.value += 1
        else:
            self._fills.value += 1
        return victim

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
