"""Unit tests for the zero-dependency metrics registry."""

from fnmatch import fnmatchcase

import pytest
from hypothesis import given, settings, strategies as st

from repro.telemetry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
)


class TestInstruments:
    def test_counter_increments(self):
        counter = Counter("x")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4

    def test_gauge_set_and_read(self):
        gauge = Gauge("g")
        assert gauge.read() == 0
        gauge.set(7)
        assert gauge.read() == 7

    def test_gauge_callback_wins(self):
        gauge = Gauge("g", callback=lambda: 42)
        gauge.set(7)
        assert gauge.read() == 42

    def test_histogram_buckets(self):
        histogram = Histogram("h", bounds=(1.0, 2.0))
        for value in (0.5, 1.0, 1.5, 5.0):
            histogram.observe(value)
        assert histogram.bucket_counts == [2, 1, 1]
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(8.0)

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", bounds=())

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestRegistry:
    def test_same_name_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_value_and_total(self):
        registry = MetricsRegistry()
        registry.counter("cbt.router.R1.tx.hello").inc(2)
        registry.counter("cbt.router.R2.tx.hello").inc(3)
        registry.counter("cbt.router.R1.tx.join_request").inc()
        assert registry.value("cbt.router.R1.tx.hello") == 2
        assert registry.value("missing") == 0
        assert registry.total("cbt.router.*.tx.hello") == 5
        assert registry.total("cbt.router.*.tx.*") == 6

    def test_single_star_needs_room_for_head_and_tail(self):
        registry = MetricsRegistry()
        registry.counter("aba").inc()
        registry.counter("ab.ba").inc(10)
        # "aba" starts with "ab" and ends with "ba" but the two overlap.
        assert registry.total("ab*ba") == 10
        assert list(registry.matching("ab*ba")) == ["ab.ba"]

    def test_matching_reads_only_matching_gauges(self):
        registry = MetricsRegistry()
        read = []
        for name in ("netsim.msg.Join.tx", "netsim.msg.Join.rx", "other.tx"):
            registry.gauge(name, callback=lambda n=name: read.append(n) or 1)
        assert registry.matching("netsim.msg.*.tx") == {"netsim.msg.Join.tx": 1}
        assert read == ["netsim.msg.Join.tx"]
        read.clear()
        assert registry.matching("netsim.*.J?in.tx") == {"netsim.msg.Join.tx": 1}
        assert read == ["netsim.msg.Join.tx"]

    def test_matching_is_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc(2)
        assert list(registry.matching("*")) == ["a", "b"]

    def test_snapshot_expands_histograms(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g", callback=lambda: 9)
        registry.histogram("h", bounds=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert snap["c"] == 1
        assert snap["g"] == 9
        assert snap["h.count"] == 1
        assert snap["h.sum"] == pytest.approx(0.5)
        assert snap["h.le_1"] == 1
        assert snap["h.le_inf"] == 0
        assert list(snap) == sorted(snap)

    def test_diff_and_merge(self):
        old = {"a": 1, "b": 2}
        new = {"a": 4, "c": 1}
        diff = MetricsRegistry.diff(new, old)
        assert diff == {"a": 3, "b": -2, "c": 1}
        merged = MetricsRegistry.merge(old, new)
        assert merged == {"a": 5, "b": 2, "c": 1}
        # Zero-difference keys are omitted.
        assert MetricsRegistry.diff({"a": 1}, {"a": 1}) == {}


class TestDisabledRegistry:
    def test_disabled_hands_out_nulls(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("x") is NULL_COUNTER
        assert registry.gauge("g") is NULL_GAUGE
        assert registry.histogram("h") is NULL_HISTOGRAM

    def test_null_instruments_are_inert(self):
        NULL_COUNTER.inc(5)
        NULL_GAUGE.set(5)
        NULL_HISTOGRAM.observe(5)
        assert NULL_COUNTER.value == 0
        assert NULL_GAUGE.read() == 0
        assert NULL_HISTOGRAM.count == 0

    def test_disabled_snapshot_empty(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("x").inc()
        assert registry.snapshot() == {}
        assert registry.total("*") == 0

    def test_disable_after_creation(self):
        registry = MetricsRegistry()
        live = registry.counter("x")
        registry.disable()
        assert registry.counter("y") is NULL_COUNTER
        live.inc()  # pre-existing instruments keep counting
        assert live.value == 1


# -- index-answered queries agree with a plain fnmatch scan ------------------

#: Small alphabets so generated names and patterns overlap often.
_SEGMENT = st.sampled_from(["a", "b", "ab", "ba", "tx", "R1", "R12"])
_NAME = st.lists(_SEGMENT, min_size=1, max_size=4).map(".".join)
_LITERAL = st.text(alphabet="ab.R1tx", max_size=6)
_TOKEN = st.one_of(
    _SEGMENT, st.sampled_from([".", "*", "?", "[ab]", "[!a]", "[R]"])
)


@st.composite
def _cut_pattern(draw):
    """``name[:i] + '*' + name[j:]`` for a generated name: head and
    tail may overlap, so the name itself need not match."""
    name = draw(_NAME)
    i = draw(st.integers(0, len(name)))
    j = draw(st.integers(0, len(name)))
    return f"{name[:i]}*{name[j:]}"


_PATTERN = st.one_of(
    # exactly one '*': leading, middle or trailing
    st.builds(lambda head, tail: f"{head}*{tail}", _LITERAL, _LITERAL),
    _cut_pattern(),
    # anything else: several '*', '?', bracket classes
    st.lists(_TOKEN, min_size=1, max_size=6).map("".join),
)


def _reference_total(counters, gauges, pattern):
    return sum(v for n, v in counters.items() if fnmatchcase(n, pattern)) + sum(
        v for n, v in gauges.items() if fnmatchcase(n, pattern)
    )


def _reference_matching(counters, gauges, pattern):
    merged = dict(counters)
    for name, value in gauges.items():
        merged.setdefault(name, value)
    return {n: merged[n] for n in sorted(merged) if fnmatchcase(n, pattern)}


@settings(max_examples=300, deadline=None)
@given(
    counters=st.dictionaries(_NAME, st.integers(0, 50), max_size=12),
    gauges=st.dictionaries(_NAME, st.integers(0, 50), max_size=12),
    late=st.dictionaries(_NAME, st.integers(0, 50), max_size=4),
    patterns=st.lists(_PATTERN, min_size=1, max_size=4),
)
def test_queries_match_fnmatch_reference(counters, gauges, late, patterns):
    registry = MetricsRegistry()
    for name, value in counters.items():
        registry.counter(name).inc(value)
        registry.histogram(name)
    for name, value in gauges.items():
        registry.gauge(name, callback=lambda v=value: v)
    for pattern in patterns:
        assert registry.total(pattern) == _reference_total(counters, gauges, pattern)
        assert registry.matching(pattern) == _reference_matching(
            counters, gauges, pattern
        )
    # Instruments created after a query must show up in the next one.
    for name, value in late.items():
        if name not in counters:
            registry.counter(name).inc(value)
            registry.histogram(name)
            counters[name] = value
    for pattern in patterns:
        assert registry.total(pattern) == _reference_total(counters, gauges, pattern)
        assert registry.matching(pattern) == _reference_matching(
            counters, gauges, pattern
        )
        assert [h.name for h in registry.histograms_matching(pattern)] == [
            n for n in sorted(counters) if fnmatchcase(n, pattern)
        ]
