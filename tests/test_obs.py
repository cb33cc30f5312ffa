"""Tests for repro.obs: registry semantics, histogram bucket edges,
span nesting, and the disabled fast path."""

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    ManualClock,
    MetricsRegistry,
    Tracer,
    null_registry,
    render_name,
)


# -- registry semantics -------------------------------------------------------

def test_counter_identity_and_increment():
    m = MetricsRegistry()
    c = m.counter("layer.comp.metric")
    c.inc()
    c.inc(4)
    assert c.value == 5
    # Same (name, labels) -> same instrument.
    assert m.counter("layer.comp.metric") is c
    # Different labels -> different instrument.
    other = m.counter("layer.comp.metric", shard="a")
    assert other is not c
    assert other.value == 0


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        MetricsRegistry().counter("c").inc(-1)


def test_label_order_is_canonical():
    m = MetricsRegistry()
    a = m.counter("c", x="1", y="2")
    b = m.counter("c", y="2", x="1")
    assert a is b
    assert render_name(a.name, a.labels) == "c{x=1,y=2}"


def test_a_gauge_reads_its_level_when_read():
    m = MetricsRegistry()
    level = [7]
    m.gauge_func("storage.versioning.lag", lambda: level[0], consumer="indexer")
    level[0] = 5
    assert m.gauge_value("storage.versioning.lag", consumer="indexer") == 5
    assert m.raw_snapshot()["gauges"] == {
        "storage.versioning.lag{consumer=indexer}": 5}


def test_counter_value_lookup_without_creation():
    m = MetricsRegistry()
    assert m.counter_value("never.recorded") == 0.0
    assert not m._counters  # lookup must not create the instrument


# -- histogram bucket edges ----------------------------------------------------

def test_histogram_bucket_edges_exact():
    m = MetricsRegistry()
    h = m.histogram("h", buckets=(1.0, 2.0, 4.0))
    # bisect_left: a value equal to a bound lands IN that bound's bucket.
    h.observe(1.0)
    h.observe(2.0)
    h.observe(4.0)
    assert h.counts == [1, 1, 1, 0]
    h.observe(4.0001)       # over the last bound -> overflow bucket
    assert h.counts[-1] == 1
    h.observe(0.0)
    assert h.counts[0] == 2


def test_histogram_summary_and_percentiles():
    m = MetricsRegistry()
    h = m.histogram("h", buckets=(0.001, 0.01, 0.1, 1.0))
    for _ in range(98):
        h.observe(0.0005)
    h.observe(0.05)
    h.observe(0.5)
    s = h.summary()
    assert s["count"] == 100
    assert s["min"] == 0.0005
    assert s["max"] == 0.5
    assert s["p50"] <= 0.001
    assert 0.01 < s["p99"] <= 0.5
    # Percentiles never exceed the observed maximum.
    assert h.percentile(1.0) <= 0.5


def test_histogram_empty_summary():
    s = MetricsRegistry().histogram("h").summary()
    assert s["count"] == 0 and s["p99"] == 0.0


def test_histogram_rejects_bad_buckets():
    m = MetricsRegistry()
    with pytest.raises(ValueError):
        m.histogram("bad", buckets=(2.0, 1.0))
    with pytest.raises(ValueError):
        m.histogram("h").percentile(1.5)


def test_default_latency_buckets_ascending():
    assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)
    assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(1e-6)
    assert DEFAULT_LATENCY_BUCKETS[-1] == 10.0


# -- clocks -------------------------------------------------------------------

def test_manual_clock_rejects_backwards_time():
    with pytest.raises(ValueError):
        ManualClock().advance(-1)


# -- disabled registry ----------------------------------------------------------

def test_disabled_registry_is_noop_and_shared():
    m = MetricsRegistry(enabled=False)
    c = m.counter("a")
    c.inc(100)
    m.gauge_func("b", lambda: 5)
    m.histogram("c").observe(1.0)
    assert c.value == 0
    assert m.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
    # All disabled instruments are the same shared object.
    assert m.counter("x") is m.counter("y")


def test_null_registry_singleton():
    assert null_registry() is null_registry()
    assert not null_registry().enabled


# -- tracing ---------------------------------------------------------------------

def test_span_nesting_and_attributes():
    clk = ManualClock()
    t = Tracer(clock=clk)
    with t.span("servlet.archive", user="u1") as outer:
        clk.advance(0.5)
        assert t.current() is outer
        with t.span("storage.write") as inner:
            clk.advance(0.1)
            assert t.current() is inner
        outer.set("pages", 3)
    assert t.current() is None
    done = t.finished()
    assert [s.name for s in done] == ["storage.write", "servlet.archive"]
    inner, outer = done
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None
    assert outer.duration == pytest.approx(0.6)
    assert inner.duration == pytest.approx(0.1)
    assert outer.attributes == {"user": "u1", "pages": 3}


def test_span_records_exception():
    t = Tracer(clock=ManualClock())
    with pytest.raises(ValueError):
        with t.span("bad"):
            raise ValueError("nope")
    span = t.finished("bad")[0]
    assert span.error == "ValueError: nope"
    assert span.end is not None


def test_tracer_ring_buffer_bounded():
    t = Tracer(clock=ManualClock(), capacity=4)
    for i in range(10):
        with t.span(f"s{i}"):
            pass
    names = [s.name for s in t.finished()]
    assert names == ["s6", "s7", "s8", "s9"]
    t.clear()
    assert t.finished() == []


def test_disabled_tracer_is_noop():
    t = Tracer(enabled=False)
    with t.span("whatever") as s:
        s.set("k", "v")   # must not blow up
    assert t.finished() == []
