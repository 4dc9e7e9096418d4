"""Statistics registry."""

import json
import random

import pytest

from repro.common.stats import Histogram, StatsRegistry


def test_add_and_get():
    s = StatsRegistry()
    s.add("a.b")
    s.add("a.b", 2)
    assert s.get("a.b") == 3
    assert s["a.b"] == 3
    assert s.get("missing") == 0


def test_set_overrides():
    s = StatsRegistry()
    s.add("x", 5)
    s.set("x", 1)
    assert s["x"] == 1


def test_scoped_view_prepends_prefix():
    s = StatsRegistry()
    scope = s.scoped("node3")
    scope.add("l1.hits", 4)
    assert s["node3.l1.hits"] == 4
    assert scope.get("l1.hits") == 4


def test_nested_scopes():
    s = StatsRegistry()
    inner = s.scoped("a").scoped("b")
    inner.add("c")
    assert s["a.b.c"] == 1


def test_snapshot_is_a_copy():
    s = StatsRegistry()
    s.add("x", 5)
    snap = s.snapshot()
    s.add("x", 2)
    assert snap == {"x": 5}
    assert s["x"] == 7


def test_counter_handle_declares_without_creating():
    s = StatsRegistry()
    handle = s.scoped("ctrl0").counter("ts_stores")
    assert s.declared("ctrl0.ts_stores")
    assert not s.declared("ctrl1.ts_stores")
    # Declared but untouched: absent from the counters, reads int 0.
    assert "ctrl0.ts_stores" not in s
    assert repr(s.get("ctrl0.ts_stores")) == "0"
    handle.inc(3)
    assert s["ctrl0.ts_stores"] == 3
    assert handle.name == "ctrl0.ts_stores" and handle.value == 3


def test_items_sorted():
    s = StatsRegistry()
    s.add("b")
    s.add("a")
    assert [k for k, _ in s.items()] == ["a", "b"]


def test_contains_and_iter():
    s = StatsRegistry()
    s.add("k")
    assert "k" in s
    assert "other" not in s
    assert list(iter(s)) == ["k"]

# -- histograms -----------------------------------------------------------


def test_histogram_basic_moments():
    h = Histogram()
    for v in (1, 2, 3, 4):
        h.record(v)
    assert h.count == 4
    assert h.mean == 2.5
    assert h.min == 1 and h.max == 4


def test_histogram_record_n():
    h = Histogram()
    h.record(10, n=5)
    assert h.count == 5
    assert h.total == 50


def test_histogram_percentiles_vs_sorted_reference():
    # Percentiles must land within one bucket of the exact
    # nearest-rank answer computed from the sorted sample.
    rng = random.Random(7)
    sample = [rng.randint(1, 5000) for _ in range(2000)]
    h = Histogram()
    for v in sample:
        h.record(v)
    ordered = sorted(sample)
    for p in (50, 95, 99):
        exact = ordered[min(len(ordered) - 1, int(p / 100 * len(ordered)))]
        approx = h.percentile(p)
        # Bucket edges are powers of two: the containing bucket spans
        # [edge/2, edge], so the approximation is within a factor of 2.
        assert exact / 2 <= approx <= exact * 2, (p, exact, approx)


def test_histogram_percentile_bounds_and_edges():
    h = Histogram()
    with pytest.raises(ValueError):
        h.percentile(101)
    assert h.percentile(50) == 0.0  # empty histogram
    h.record(42)
    # A single observation pins every percentile to it exactly.
    assert h.percentile(0) == 42
    assert h.p50 == 42
    assert h.percentile(100) == 42


def test_histogram_merge():
    a, b = Histogram(), Histogram()
    for v in (1, 10, 100):
        a.record(v)
    for v in (5, 50):
        b.record(v)
    a.merge(b)
    assert a.count == 5
    assert a.total == 166
    assert a.min == 1 and a.max == 100


def test_histogram_merge_rejects_different_bounds():
    a = Histogram(bounds=(1, 2, 4))
    b = Histogram(bounds=(1, 10))
    with pytest.raises(ValueError):
        a.merge(b)


def test_histogram_rejects_unsorted_bounds():
    with pytest.raises(ValueError):
        Histogram(bounds=(4, 2, 1))


def test_histogram_summary_json_safe():
    h = Histogram()
    h.record(3)
    summary = h.summary()
    json.dumps(summary)
    assert summary["count"] == 1 and summary["p50"] == 3


def test_registry_histogram_get_or_create():
    s = StatsRegistry()
    h1 = s.histogram("miss_latency")
    h2 = s.histogram("miss_latency")
    assert h1 is h2
    assert s.get_histogram("miss_latency") is h1
    assert s.get_histogram("never") is None
    assert [name for name, _ in s.histogram_items()] == ["miss_latency"]


def test_registry_merged_histogram_by_suffix():
    s = StatsRegistry()
    s.histogram("node0.miss_latency").record(10)
    s.histogram("node1.miss_latency").record(30)
    s.histogram("miss_latency").record(20)  # exact-name match counts too
    s.histogram("node0.queue_depth").record(99)  # different suffix: excluded
    merged = s.merged_histogram("miss_latency")
    assert merged.count == 3
    assert merged.total == 60


def test_scoped_histogram_prefixed():
    s = StatsRegistry()
    s.scoped("node2").histogram("miss_latency").record(5)
    assert s.get_histogram("node2.miss_latency").count == 1


def test_nested_scoped_histogram_prefixing():
    s = StatsRegistry()
    s.scoped("a").scoped("b").histogram("h").record(1)
    assert s.get_histogram("a.b.h").count == 1
