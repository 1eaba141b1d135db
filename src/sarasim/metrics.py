"""Metric recording and the policy-comparison summaries.

The sink stores per-DMA NPI samples (one per re-evaluation epoch) and
per-DMA completed-byte counts per epoch.  Histograms are time-weighted: a
sample's priority level holds until the next sample.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .core import PRIORITY_LEVELS


class OutOfOrder(Exception):
    pass


class EmptyWindow(Exception):
    pass


class MismatchedScenario(Exception):
    pass


@dataclass(slots=True)
class NpiSample:
    dma_id: str
    cycle: int
    npi: float
    priority: int


@dataclass
class PriorityHistogram:
    dma_id: str
    fraction_of_time: list

    def __post_init__(self):
        total = sum(self.fraction_of_time)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"fractions sum to {total}, expected 1")


class MetricsSink:
    def __init__(self):
        self.series = {}        # dma -> list of NpiSample
        self.bytes_by_dma = {}  # dma -> list of (cycle, bytes completed)

    def record(self, sample: NpiSample) -> None:
        series = self.series.get(sample.dma_id)
        last = series[-1].cycle if series else -1
        if sample.cycle < last:
            raise OutOfOrder(
                f"{sample.dma_id}: cycle {sample.cycle} after {last}")
        self.series.setdefault(sample.dma_id, []).append(sample)

    def record_bytes(self, dma_id: str, cycle: int, nbytes: int) -> None:
        self.bytes_by_dma.setdefault(dma_id, []).append((cycle, nbytes))


def _window_samples(series, start: int, end: int):
    """Samples governing [start, end): those inside plus the one before."""
    if end <= start:
        raise EmptyWindow(f"window [{start}, {end}) is empty")
    cycles = [s.cycle for s in series]
    lo = bisect_right(cycles, start) - 1
    hi = bisect_left(cycles, end)
    picked = series[max(lo, 0):hi]
    if not picked:
        raise EmptyWindow("no samples govern the window")
    return picked


def min_npi(series, start: int, end: int) -> float:
    return min(s.npi for s in _window_samples(series, start, end))


def priority_histogram(series, start: int, end: int) -> PriorityHistogram:
    picked = _window_samples(series, start, end)
    weights = [0.0] * PRIORITY_LEVELS
    for i, s in enumerate(picked):
        t0 = max(s.cycle, start)
        t1 = picked[i + 1].cycle if i + 1 < len(picked) else end
        t1 = min(t1, end)
        if t1 > t0:
            weights[s.priority] += t1 - t0
    total = sum(weights)
    if total == 0:
        raise EmptyWindow("window has zero weighted time")
    return PriorityHistogram(picked[0].dma_id,
                             [w / total for w in weights])


def mean_priority(series, start: int, end: int) -> float:
    hist = priority_histogram(series, start, end)
    return sum(level * frac for level, frac in enumerate(hist.fraction_of_time))


def bytes_in_window(pairs, start: int, end: int) -> int:
    return sum(b for c, b in pairs if start <= c < end)


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
    distinct = set(fingerprints.values())
    if len(distinct) > 1:
        raise MismatchedScenario(f"scenario fingerprints differ: {fingerprints}")
    rows = []
    for policy in reports:
        report = reports[policy]
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
