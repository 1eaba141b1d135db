"""Metric sink and summary math: windowing, histograms, and the
policy-comparison fingerprint guard."""

import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from sarasim.core import PRIORITY_LEVELS
from sarasim.metrics import (EmptyWindow, MetricsSink, MismatchedScenario,
                             OutOfOrder, PriorityHistogram, bytes_in_window,
                             mean_priority, min_npi, policy_comparison,
                             priority_histogram)


def npi_series(*rows):
    """The NpiSeries a sink holds for (cycle, npi, priority) rows."""
    sink = MetricsSink(["a"])
    for cycle, npi, priority in rows:
        sink.record("a", cycle, npi, priority)
    return sink.series["a"]


def sample(cycle=0, npi=1.0, priority=0):
    return cycle, npi, priority


class TestSink:
    def test_record_appends_in_order(self):
        sink = MetricsSink(["a"])
        sink.record("a", 0, 1.0, 0)
        sink.record("a", 100, 0.5, 3)
        series = sink.series["a"]
        assert list(series.cycle) == [0, 100]
        assert list(series.npi) == [1.0, 0.5]
        assert list(series.priority) == [0, 3]

    def test_out_of_order_rejected(self):
        sink = MetricsSink(["a"])
        sink.record("a", 100, 1.0, 0)
        with pytest.raises(OutOfOrder):
            sink.record("a", 50, 1.0, 0)
        assert list(sink.series["a"].cycle) == [100]

    def test_per_dma_ordering_is_independent(self):
        sink = MetricsSink(["a", "b"])
        sink.record("a", 100, 1.0, 0)
        sink.record("b", 50, 1.0, 0)  # fine: different stream
        sink.record_bytes("a", 100, 64)
        sink.record_bytes("b", 50, 64)
        assert list(sink.series["b"].cycle) == [50]
        assert list(sink.bytes_by_dma["b"].cycle) == [50]

    def test_byte_accounting(self):
        sink = MetricsSink(["a", "b", "c"])
        sink.record_bytes("a", 10, 64)
        sink.record_bytes("a", 20, 64)
        sink.record_bytes("b", 15, 128)
        assert sum(sum(s.nbytes) for s in sink.bytes_by_dma.values()) == 256
        assert bytes_in_window(sink.bytes_by_dma["a"], 0, 15) == 64
        assert bytes_in_window(sink.bytes_by_dma["c"], 0, 15) == 0

    def test_out_of_order_bytes_rejected(self):
        # bytes_in_window bisects the cycles, so they must not fall
        sink = MetricsSink(["a"])
        sink.record_bytes("a", 100, 64)
        sink.record_bytes("a", 100, 64)  # an equal cycle is in order
        with pytest.raises(OutOfOrder):
            sink.record_bytes("a", 50, 64)
        assert list(sink.bytes_by_dma["a"].cycle) == [100, 100]

    def test_columns_cost_at_most_24_bytes_a_record(self):
        n = 20_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sink = MetricsSink(["a"])
            for i in range(n):
                sink.record("a", 100 * i, 1.0 + i / n, i % PRIORITY_LEVELS)
                sink.record_bytes("a", 100 * i, 64 * i)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(sink.series["a"].cycle) == len(sink.bytes_by_dma["a"].cycle)
        assert held / (2 * n) <= 24


# -- the columnar queries against a naive reference --------------------------

def governing(rows, start, end):
    """The rows that govern [start, end): the one in force at `start` (the
    last taken at or before it) and those taken after it, before `end`."""
    return [r for r in rows if r[0] <= start][-1:] + [
        r for r in rows if start < r[0] < end]


def naive_fractions(rows, start, end):
    """Each level's share of the cycles in [start, end) that some row
    governs; a row's level holds until the next row."""
    held = [0] * PRIORITY_LEVELS
    for t in range(start, end):
        in_force = [r for r in rows if r[0] <= t]
        if in_force:
            held[in_force[-1][2]] += 1
    return [h / sum(held) for h in held]


SORTED_ROWS = st.lists(
    st.tuples(st.integers(0, 300), st.floats(0.0, 2.0),
              st.integers(0, PRIORITY_LEVELS - 1)),
    min_size=1, max_size=30).map(lambda rows: sorted(rows, key=lambda r: r[0]))
BYTE_ROWS = st.lists(st.tuples(st.integers(0, 300), st.integers(0, 10 ** 6)),
                     max_size=30).map(sorted)
TWO = [(50, 0.5, 2), (120, 1.5, 6)]


class TestColumnsMatchNaiveReference:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(rows=SORTED_ROWS, pairs=BYTE_ROWS, start=st.integers(-20, 320),
           length=st.integers(0, 340))
    @example(rows=TWO, pairs=[(50, 64)], start=0, length=100)  # starts early
    @example(rows=TWO, pairs=[(300, 64)], start=60, length=500)  # ends late
    @example(rows=[(40, 0.25, 7)], pairs=[(40, 64)], start=10, length=100)
    def test_window_queries(self, rows, pairs, start, length):
        end = start + length
        series = npi_series(*rows)
        sink = MetricsSink(["a"])
        for cycle, nbytes in pairs:
            sink.record_bytes("a", cycle, nbytes)
        assert bytes_in_window(sink.bytes_by_dma["a"], start, end) == sum(
            b for c, b in pairs if start <= c < end)
        picked = governing(rows, start, end)
        if not length or not picked:
            for query in (min_npi, priority_histogram, mean_priority):
                with pytest.raises(EmptyWindow):
                    query(series, start, end)
            return
        assert min_npi(series, start, end) == min(r[1] for r in picked)
        fractions = naive_fractions(rows, start, end)
        assert priority_histogram(series, start, end).fraction_of_time \
            == fractions
        assert mean_priority(series, start, end) == pytest.approx(
            sum(level * f for level, f in enumerate(fractions)))


class TestMinNpi:
    def test_minimum_over_window(self):
        series = npi_series(*(sample(cycle=c, npi=v)
                              for c, v in ((0, 1.2), (100, 0.13), (200, 0.9))))
        assert min_npi(series, 0, 300) == 0.13

    def test_sample_before_window_governs_start(self):
        series = npi_series(sample(cycle=0, npi=0.2),
                            sample(cycle=500, npi=1.0))
        # at cycle 100 the governing sample is still the one from cycle 0
        assert min_npi(series, 100, 400) == 0.2

    def test_empty_window_rejected(self):
        with pytest.raises(EmptyWindow):
            min_npi(npi_series(sample(cycle=0)), 100, 100)

    def test_no_governing_samples_rejected(self):
        with pytest.raises(EmptyWindow):
            min_npi(npi_series(sample(cycle=900)), 0, 500)


class TestHistogram:
    def test_half_and_half(self):
        series = npi_series(sample(cycle=0, priority=0),
                            sample(cycle=50, priority=3))
        hist = priority_histogram(series, 0, 100)
        assert hist.fraction_of_time[0] == 0.5
        assert hist.fraction_of_time[3] == 0.5

    def test_fractions_sum_to_one(self):
        series = npi_series(*(sample(cycle=c, priority=c % 8)
                              for c in range(0, 1000, 37)))
        hist = priority_histogram(series, 100, 900)
        assert sum(hist.fraction_of_time) == pytest.approx(1.0)

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ValueError):
            PriorityHistogram([0.5] * 8)

    def test_mean_priority(self):
        series = npi_series(sample(cycle=0, priority=2),
                            sample(cycle=75, priority=6))
        # 75% at level 2, 25% at level 6
        assert mean_priority(series, 0, 100) == pytest.approx(3.0)

    def test_single_sample_spans_whole_window(self):
        series = npi_series(sample(cycle=0, priority=5))
        hist = priority_histogram(series, 0, 1000)
        assert hist.fraction_of_time[5] == 1.0


class _FakeReport:
    def __init__(self, fingerprint, dmas):
        self.fingerprint = fingerprint
        self.dma_order = dmas
        self.row_hit_rate = 0.5

    def min_npi(self, dma):
        return 1.0

    def mean_bandwidth(self, dma):
        return 1e6

    def total_bandwidth(self):
        return 2e6


class TestPolicyComparison:
    def test_rows_per_policy_and_dma(self):
        reports = {"QOS": _FakeReport(("s", 7), ["a", "b"]),
                   "FCFS": _FakeReport(("s", 7), ["a", "b"])}
        rows = policy_comparison(reports)
        assert len(rows) == 4
        assert {(r.policy, r.dma_id) for r in rows} == {
            ("QOS", "a"), ("QOS", "b"), ("FCFS", "a"), ("FCFS", "b")}

    def test_identical_runs_have_zero_deltas(self):
        reports = {"QOS": _FakeReport(("s", 7), ["a"]),
                   "QOS_RB": _FakeReport(("s", 7), ["a"])}
        rows = policy_comparison(reports)
        assert rows[0].min_npi == rows[1].min_npi
        assert rows[0].total_bw_bytes_s == rows[1].total_bw_bytes_s

    def test_mismatched_scenarios_rejected(self):
        reports = {"QOS": _FakeReport(("s", 7), ["a"]),
                   "FCFS": _FakeReport(("other", 9), ["a"])}
        with pytest.raises(MismatchedScenario):
            policy_comparison(reports)
