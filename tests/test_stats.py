"""Tests for the statistics primitives."""

from repro.common.stats import Counter, Histogram, StatGroup


def test_counter_add_and_reset():
    counter = Counter("hits")
    counter.add()
    counter.add(4)
    assert counter.value == 5
    assert int(counter) == 5
    counter.reset()
    assert counter.value == 0


def test_histogram_mean_and_total():
    histogram = Histogram("latency")
    histogram.record(10, 2)
    histogram.record(30)
    assert histogram.total() == 3
    assert abs(histogram.mean() - (10 * 2 + 30) / 3) < 1e-12


def test_histogram_empty_mean_is_zero():
    assert Histogram("empty").mean() == 0.0


def test_histogram_percentile_nearest_rank():
    histogram = Histogram("lat")
    for value in (10, 20, 30, 40, 50, 60, 70, 80, 90, 100):
        histogram.record(value)
    assert histogram.percentile(50) == 50
    assert histogram.percentile(95) == 100
    assert histogram.percentile(99) == 100
    assert histogram.percentile(0) == 10
    assert histogram.percentile(100) == 100


def test_histogram_percentile_weighted_buckets():
    histogram = Histogram("lat")
    histogram.record(5, 98)
    histogram.record(500, 2)
    assert histogram.percentile(50) == 5
    assert histogram.percentile(95) == 5
    assert histogram.percentile(99) == 500


def test_histogram_percentile_empty_and_bounds():
    import pytest

    empty = Histogram("empty")
    assert empty.percentile(99) == 0
    with pytest.raises(ValueError):
        empty.percentile(101)
    with pytest.raises(ValueError):
        empty.percentile(-1)


def test_histogram_min_max():
    histogram = Histogram("lat")
    assert histogram.min() == 0 and histogram.max() == 0
    histogram.record(7)
    histogram.record(3)
    assert histogram.min() == 3
    assert histogram.max() == 7


def test_stat_group_creates_counters_on_demand():
    group = StatGroup("tlb")
    group.counter("hits").add()
    group.counter("hits").add()
    assert group.as_dict() == {"tlb.hits": 2}


def test_stat_group_ratio():
    group = StatGroup("g")
    group.counter("hits").add(3)
    group.counter("misses").add(1)
    assert group.ratio("hits", "misses") == 0.75
    empty = StatGroup("empty")
    assert empty.ratio("hits", "misses") == 0.0
    assert empty.as_dict() == {}  # reading a rate creates no counters


def test_stat_group_nested_export():
    group = StatGroup("dram")
    group.child("bank").counter("hit").add(2)
    flat = group.as_dict()
    assert flat["dram.bank.hit"] == 2


def test_stat_group_histogram_export():
    group = StatGroup("g")
    group.histogram("lat").record(100)
    flat = group.as_dict()
    assert flat["g.lat.total"] == 1
    assert flat["g.lat.mean"] == 100.0


def test_stat_group_exports_histogram_percentiles():
    group = StatGroup("g")
    histogram = group.histogram("lat")
    histogram.record(10, 99)
    histogram.record(1000, 1)
    flat = group.as_dict()
    assert flat["g.lat.p50"] == 10
    assert flat["g.lat.p95"] == 10
    assert flat["g.lat.p99"] == 10
    histogram.record(1000, 50)
    assert group.as_dict()["g.lat.p95"] == 1000


def test_stat_group_reset_recurses():
    group = StatGroup("root")
    group.counter("a").add()
    group.child("nested").counter("b").add()
    group.histogram("h").record(1)
    group.reset()
    flat = group.as_dict()
    assert flat["root.a"] == 0
    assert flat["root.nested.b"] == 0
    assert flat["root.h.total"] == 0


def test_unused_handle_is_not_exported():
    group = StatGroup("g")
    group.counter_handle("hits")
    group.histogram_handle("lat")
    assert group.as_dict() == {}


def test_peek_reads_handle_without_exporting():
    group = StatGroup("g")
    handle = group.counter_handle("hits")
    assert group.peek("hits") == 0
    assert group.as_dict() == {}
    handle.value += 3
    assert group.peek("hits") == 3
    assert group.ratio("hits", "misses") == 1.0


def test_handle_is_exported_once_nonzero():
    group = StatGroup("g")
    handle = group.counter_handle("hits")
    handle.value += 1
    assert group.as_dict() == {"g.hits": 1}
    handle.value += 1
    assert group.as_dict() == {"g.hits": 2}


def test_handle_used_before_reset_stays_exported_at_zero():
    group = StatGroup("g")
    used = group.counter_handle("used")
    group.counter_handle("unused")
    used.value += 5
    group.reset()
    assert used.value == 0
    assert group.as_dict() == {"g.used": 0}


def test_counter_returns_the_handle_and_exports_it():
    group = StatGroup("g")
    handle = group.counter_handle("hits")
    assert group.counter_handle("hits") is handle
    assert group.counter("hits") is handle
    assert group.as_dict() == {"g.hits": 0}
    assert group.counter_handle("hits") is handle
    handle.value += 1
    assert group.as_dict() == {"g.hits": 1}


def test_histogram_handle_follows_the_handle_rule():
    group = StatGroup("g")
    handle = group.histogram_handle("lat")
    assert group.histogram_handle("lat") is handle
    assert group.as_dict() == {}
    handle.record(7)
    assert group.as_dict()["g.lat.total"] == 1
    group.reset()
    assert group.as_dict()["g.lat.total"] == 0
    fresh = StatGroup("g")
    other = fresh.histogram_handle("lat")
    assert fresh.histogram("lat") is other
    assert fresh.as_dict()["g.lat.total"] == 0
