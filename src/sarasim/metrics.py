"""Metric recording and the policy-comparison summaries.

The sink stores per-DMA NPI samples (one per re-evaluation epoch) and
per-DMA completed-byte counts per epoch, as typed columns in cycle order.
Histograms are time-weighted: a sample's level holds until the next sample.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import NamedTuple

from .core import PRIORITY_LEVELS


class OutOfOrder(Exception):
    pass


class EmptyWindow(Exception):
    pass


class MismatchedScenario(Exception):
    pass


class NpiSeries(NamedTuple):
    """A DMA's NPI samples: when each was taken, its NPI and its level."""
    cycle: array     # 'q'
    npi: array       # 'd'
    priority: array  # 'b'


class ByteSeries(NamedTuple):
    """A DMA's completed bytes: `nbytes[i]` were counted at `cycle[i]`."""
    cycle: array   # 'q'
    nbytes: array  # 'q'


@dataclass
class PriorityHistogram:
    fraction_of_time: list

    def __post_init__(self):
        total = sum(self.fraction_of_time)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"fractions sum to {total}, expected 1")


class MetricsSink:
    def __init__(self, dma_ids):
        self.series = {d: NpiSeries._make(map(array, "qdb")) for d in dma_ids}
        self.bytes_by_dma = {d: ByteSeries._make(map(array, "qq"))
                             for d in dma_ids}

    def record(self, dma_id: str, cycle: int, npi: float, priority: int):
        _append(self.series[dma_id], dma_id, cycle, npi, priority)

    def record_bytes(self, dma_id: str, cycle: int, nbytes: int) -> None:
        _append(self.bytes_by_dma[dma_id], dma_id, cycle, nbytes)


def _append(series, dma_id: str, *row) -> None:
    """Append `row`, whose first value is its cycle, to `series`.  Cycles
    never fall, so the window queries can bisect them."""
    if series.cycle and row[0] < series.cycle[-1]:
        raise OutOfOrder(f"{dma_id}: cycle {row[0]} after {series.cycle[-1]}")
    for column, value in zip(series, row):
        column.append(value)


def _window_samples(series: NpiSeries, start: int, end: int) -> range:
    """Indices of the sample in force at `start`, then of the rest to `end`."""
    if end <= start:
        raise EmptyWindow(f"window [{start}, {end}) is empty")
    picked = range(max(bisect_right(series.cycle, start) - 1, 0),
                   bisect_left(series.cycle, end))
    if not picked:
        raise EmptyWindow("no samples govern the window")
    return picked


def min_npi(series: NpiSeries, start: int, end: int) -> float:
    return min(series.npi[i] for i in _window_samples(series, start, end))


def priority_histogram(series: NpiSeries, start: int,
                       end: int) -> PriorityHistogram:
    picked = _window_samples(series, start, end)
    weights = [0.0] * PRIORITY_LEVELS
    for i in picked:
        t0 = max(series.cycle[i], start)
        t1 = series.cycle[i + 1] if i + 1 < picked.stop else end
        if t1 > t0:
            weights[series.priority[i]] += t1 - t0
    total = sum(weights)
    if total == 0:
        raise EmptyWindow("window has zero weighted time")
    return PriorityHistogram([w / total for w in weights])


def mean_priority(series: NpiSeries, start: int, end: int) -> float:
    hist = priority_histogram(series, start, end)
    return sum(level * frac for level, frac in enumerate(hist.fraction_of_time))


def bytes_in_window(series: ByteSeries, start: int, end: int) -> int:
    c = series.cycle  # the bytes counted at a cycle in [start, end)
    return sum(series.nbytes[bisect_left(c, start):bisect_left(c, end)])


@dataclass
class PolicySummaryRow:
    policy: str
    dma_id: str
    min_npi: float
    mean_bw_bytes_s: float
    total_bw_bytes_s: float
    row_hit_rate: float


def policy_comparison(reports: dict) -> list:
    """Summary rows for runs differing only in scheduling policy.

    `reports` maps policy name -> SimulationReport.  All reports must come
    from the same scenario fingerprint (name, seed, duration, frequency).
    """
    fingerprints = {p: r.fingerprint for p, r in reports.items()}
    if len(set(fingerprints.values())) > 1:
        raise MismatchedScenario(f"scenario fingerprints differ: {fingerprints}")
    rows = []
    for policy, report in reports.items():
        total = report.total_bandwidth()
        for dma_id in report.dma_order:
            rows.append(PolicySummaryRow(
                policy=policy,
                dma_id=dma_id,
                min_npi=report.min_npi(dma_id),
                mean_bw_bytes_s=report.mean_bandwidth(dma_id),
                total_bw_bytes_s=total,
                row_hit_rate=report.row_hit_rate,
            ))
    return rows
