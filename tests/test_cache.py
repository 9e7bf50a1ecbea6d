"""Tests for the single-level set-associative cache (addressed by line id)."""

import pytest

from repro.common.config import CacheConfig
from repro.common.errors import ConfigError
from repro.cache.cache import Cache


def _cache(size=4096, assoc=2, replacement="lru"):
    return Cache(CacheConfig(size_bytes=size, assoc=assoc, replacement=replacement))


def test_miss_then_fill_then_hit():
    cache = _cache()
    assert not cache.lookup(0x40)
    cache.fill(0x40)
    assert cache.lookup(0x41) is False  # different line
    assert cache.lookup(0x40)


def test_fill_returns_victim_on_conflict():
    cache = _cache(size=128, assoc=2)  # 1 set, 2 ways
    cache.fill(0, is_write=True)
    cache.fill(1)
    assert cache.fill(2) == 0  # line id 0: callers must test `is not None`
    assert not cache.contains(0)
    assert cache.stats.counter("evictions").value == 1


def test_dirty_victim_propagates_write_state():
    cache = _cache(size=128, assoc=2)
    cache.fill(0)
    cache.fill(1, is_write=True)
    assert cache.fill(2) is None  # clean victim: counted, not returned
    assert cache.stats.counter("evictions").value == 1
    assert cache.stats.counter("dirty_evictions").value == 0
    assert cache.fill(3) == 1
    assert cache.stats.counter("dirty_evictions").value == 1


def test_write_hit_marks_dirty():
    cache = _cache(size=128, assoc=2)
    cache.fill(0)
    cache.lookup(0, is_write=True)
    cache.fill(1)
    assert cache.fill(2) == 0


def test_lru_order_updated_by_hits():
    cache = _cache(size=128, assoc=2)
    cache.fill(0, is_write=True)
    cache.fill(1, is_write=True)
    cache.lookup(0)  # refresh line 0 -> line 1 is LRU
    assert cache.fill(2) == 1


def test_refill_existing_line_is_not_eviction():
    cache = _cache(size=128, assoc=2)
    cache.fill(0)
    assert cache.fill(0) is None
    assert cache.stats.counter("evictions").value == 0


def test_refill_preserves_dirtiness():
    cache = _cache(size=128, assoc=2)
    cache.fill(0, is_write=True)
    cache.fill(0)  # clean refill must not launder the dirty bit
    cache.fill(1)
    assert cache.fill(2) == 0


def test_occupancy_bounded():
    cache = _cache(size=1024, assoc=4)
    for line in range(200):
        cache.fill(line)
    assert cache.occupancy <= 16


def test_random_replacement_is_deterministic():
    a = Cache(CacheConfig(size_bytes=128, assoc=2, replacement="random"), "r1")
    b = Cache(CacheConfig(size_bytes=128, assoc=2, replacement="random"), "r1")
    victims_a = [a.fill(line, is_write=line % 2 == 0) for line in range(10)]
    victims_b = [b.fill(line, is_write=line % 2 == 0) for line in range(10)]
    assert victims_a == victims_b
    assert any(victim is not None for victim in victims_a)
    assert all(victim is None or victim % 2 == 0 for victim in victims_a)


def test_contains_does_not_touch_lru():
    cache = _cache(size=128, assoc=2)
    cache.fill(0, is_write=True)
    cache.fill(1, is_write=True)
    assert cache.contains(0)  # must NOT refresh
    assert cache.fill(2) == 0


def test_prefetch_fill_counted_separately():
    cache = _cache()
    cache.fill(0x40)
    cache.fill(0x80, is_prefetch=True)
    assert cache.stats.counter("fills").value == 1
    assert cache.stats.counter("prefetch_fills").value == 1


def test_hit_rate():
    cache = _cache()
    cache.fill(0x40)
    cache.lookup(0x40)
    cache.lookup(0x240)
    assert cache.hit_rate() == pytest.approx(0.5)


def test_rejects_non_cacheconfig():
    with pytest.raises(ConfigError):
        Cache({"size": 1024})
