"""Metric sink and summary math: windowing, histograms, and the
policy-comparison fingerprint guard."""

import pytest

from sarasim.metrics import (EmptyWindow, MetricsSink, MismatchedScenario,
                             NpiSample, OutOfOrder, PriorityHistogram,
                             bytes_in_window, mean_priority, min_npi,
                             policy_comparison, priority_histogram)


def sample(dma="a", cycle=0, npi=1.0, priority=0):
    return NpiSample(dma_id=dma, cycle=cycle, npi=npi, priority=priority)


class TestSink:
    def test_record_appends_in_order(self):
        sink = MetricsSink()
        sink.record(sample(cycle=0))
        sink.record(sample(cycle=100))
        assert [s.cycle for s in sink.series["a"]] == [0, 100]

    def test_out_of_order_rejected(self):
        sink = MetricsSink()
        sink.record(sample(cycle=100))
        with pytest.raises(OutOfOrder):
            sink.record(sample(cycle=50))

    def test_per_dma_ordering_is_independent(self):
        sink = MetricsSink()
        sink.record(sample(dma="a", cycle=100))
        sink.record(sample(dma="b", cycle=50))  # fine: different stream
        assert set(sink.series) == {"a", "b"}

    def test_byte_accounting(self):
        sink = MetricsSink()
        sink.record_bytes("a", 10, 64)
        sink.record_bytes("a", 20, 64)
        sink.record_bytes("b", 15, 128)
        assert sum(b for pairs in sink.bytes_by_dma.values()
                   for _, b in pairs) == 256
        assert bytes_in_window(sink.bytes_by_dma["a"], 0, 15) == 64


class TestMinNpi:
    def test_minimum_over_window(self):
        series = [sample(cycle=c, npi=v)
                  for c, v in ((0, 1.2), (100, 0.13), (200, 0.9))]
        assert min_npi(series, 0, 300) == 0.13

    def test_sample_before_window_governs_start(self):
        series = [sample(cycle=0, npi=0.2), sample(cycle=500, npi=1.0)]
        # at cycle 100 the governing sample is still the one from cycle 0
        assert min_npi(series, 100, 400) == 0.2

    def test_empty_window_rejected(self):
        with pytest.raises(EmptyWindow):
            min_npi([sample(cycle=0)], 100, 100)

    def test_no_governing_samples_rejected(self):
        with pytest.raises(EmptyWindow):
            min_npi([sample(cycle=900)], 0, 500)


class TestHistogram:
    def test_half_and_half(self):
        series = [sample(cycle=0, priority=0), sample(cycle=50, priority=3)]
        hist = priority_histogram(series, 0, 100)
        assert hist.fraction_of_time[0] == 0.5
        assert hist.fraction_of_time[3] == 0.5

    def test_fractions_sum_to_one(self):
        series = [sample(cycle=c, priority=c % 8) for c in range(0, 1000, 37)]
        hist = priority_histogram(series, 100, 900)
        assert sum(hist.fraction_of_time) == pytest.approx(1.0)

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ValueError):
            PriorityHistogram("a", [0.5] * 8)

    def test_mean_priority(self):
        series = [sample(cycle=0, priority=2), sample(cycle=75, priority=6)]
        # 75% at level 2, 25% at level 6
        assert mean_priority(series, 0, 100) == pytest.approx(3.0)

    def test_single_sample_spans_whole_window(self):
        series = [sample(cycle=0, priority=5)]
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
