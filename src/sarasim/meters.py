"""Per-DMA self-monitoring: normalized performance indicators and the
lookup-table translation from NPI to a priority level.

Four meter kinds are supported: average read latency against a limit, frame
progress against a linear reference, read-buffer occupancy against its
initial level, and delivered bandwidth against a target.  All of them report
1.0 exactly at the target boundary, saturate at NPI_MAX when there is no
feedback yet, and are clamped to [0, NPI_MAX].
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import PRIORITY_LEVELS, READ, Transaction, ValidationError
from .dram import InvalidWindow

NPI_MAX = 16.0

DRAIN = 0  # display-style: DMA refills, consumer drains
FILL = 1   # camera-style: producer fills, DMA drains to DRAM


class MalformedLut(ValidationError):
    pass


def clamp_npi(value: float) -> float:
    if value != value or value == float("inf"):  # NaN or +inf
        return NPI_MAX
    if value < 0.0:
        return 0.0
    if value > NPI_MAX:
        return NPI_MAX
    return value


@dataclass(frozen=True)
class PriorityLut:
    """PRIORITY_LEVELS lower-bound NPI values; entries[p] is the lowest NPI
    admitted at priority level p.  Monotone non-increasing, floor entry 0."""

    entries: tuple = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.0)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if len(self.entries) != PRIORITY_LEVELS:
            raise MalformedLut(f"expected {PRIORITY_LEVELS} entries")
        if any(a < b for a, b in zip(self.entries, self.entries[1:])):
            raise MalformedLut("entries must be monotone non-increasing")
        if self.entries[-1] != 0.0:
            raise MalformedLut("floor entry must be 0")


# default lower bounds for frame-progress meters: level 0 when on reference,
# then bands at 0.75 and 0.5 of the reference slope
FRAME_PROGRESS_LUT = (1.0, 1.0, 1.0, 0.75, 0.75, 0.5, 0.5, 0.0)


def translate(lut: PriorityLut, npi: float) -> int:
    """Lowest priority level whose NPI lower bound admits `npi`.  Expects a
    validated `lut`, as every `PriorityLut` is once constructed."""
    for level, bound in enumerate(lut.entries):
        if npi >= bound:
            return level
    return len(lut.entries) - 1  # unreachable: floor entry is 0


class LatencyMeter:
    """Ring of the last W completed-read latencies versus a preset limit."""

    def __init__(self, dma_id: str, max_latency_limit: float, window: int = 64):
        self.dma_id = dma_id
        self.max_latency_limit = max_latency_limit
        self.samples = deque(maxlen=window)
        self._sum = 0.0

    @property
    def average_latency(self) -> float:
        return self._sum / len(self.samples) if self.samples else 0.0

    def on_completion(self, txn: Transaction, cycle: int) -> None:
        if txn.kind != READ:
            return  # writes are posted
        if len(self.samples) == self.samples.maxlen:
            self._sum -= self.samples[0]
        lat = txn.t_completed - txn.t_created
        self.samples.append(lat)
        self._sum += lat

    def npi(self, cycle: int = 0) -> float:
        avg = self.average_latency
        if avg == 0.0:
            return NPI_MAX
        return clamp_npi(self.max_latency_limit / avg)


class FrameProgressMeter:
    """Frame progress against a linear reference growing over the frame
    period.  No feedback yet this frame reads as NPI_MAX."""

    def __init__(self, dma_id: str, frame_bytes: int, frame_period_cycles: int,
                 reference_slope: float = 1.0):
        self.dma_id = dma_id
        self.frame_bytes = frame_bytes
        self.frame_period_cycles = frame_period_cycles
        self.reference_slope = reference_slope
        self.bytes_done = 0
        self.frame_start_cycle = 0

    def start_frame(self, cycle: int) -> None:
        self.bytes_done = 0
        self.frame_start_cycle = cycle

    def on_completion(self, txn: Transaction, cycle: int) -> None:
        self.bytes_done = min(self.bytes_done + txn.size_bytes,
                              self.frame_bytes)

    def npi(self, cycle: int) -> float:
        elapsed = cycle - self.frame_start_cycle
        if elapsed <= 0:
            return NPI_MAX
        if self.bytes_done == 0:
            # nothing completed yet this frame: no feedback to judge by
            return NPI_MAX
        progress = self.bytes_done / self.frame_bytes
        # ScenarioConfig.validate keeps the reference positive
        reference = self.reference_slope * elapsed / self.frame_period_cycles
        return clamp_npi(progress / reference)


class OccupancyMeter:
    """Buffer occupancy versus its initial level, half the buffer, normalized
    by the bytes the consumer drains over a fixed measurement horizon
    (window_cycles).

    direction DRAIN models the display (consumer empties the buffer at
    R_read, the DMA refills it); direction FILL models the camera (sensor
    fills it, the DMA drains it to DRAM).  The external party's rate starts
    acting only after the first DMA completion, so startup reads exactly 1.0.
    """

    def __init__(self, dma_id: str, buffer_bytes: float,
                 drain_rate_bytes_per_s: float, clock_freq_hz: float,
                 direction: int = DRAIN, window_cycles: int = 100):
        if window_cycles <= 0:
            raise InvalidWindow("window_cycles must be positive")
        self.dma_id = dma_id
        self.buffer_bytes = buffer_bytes
        self.rate_per_cycle = drain_rate_bytes_per_s / clock_freq_hz
        self.direction = direction
        self.initial_occupancy = buffer_bytes / 2
        self.occupancy = self.initial_occupancy
        self.window_cycles = window_cycles
        self.active_since = None  # external rate starts at first completion
        self._last_flow_cycle = 0

    def _apply_flow(self, cycle: int) -> None:
        if self.active_since is None:
            self._last_flow_cycle = cycle
            return
        dt = cycle - self._last_flow_cycle
        if dt <= 0:
            return
        delta = self.rate_per_cycle * dt
        if self.direction == DRAIN:
            self.occupancy = max(0.0, self.occupancy - delta)
        else:
            self.occupancy = min(self.buffer_bytes, self.occupancy + delta)
        self._last_flow_cycle = cycle

    def on_completion(self, txn: Transaction, cycle: int) -> None:
        self._apply_flow(cycle)
        if self.active_since is None:
            self.active_since = cycle
            self._last_flow_cycle = cycle
        if self.direction == DRAIN:
            self.occupancy = min(self.buffer_bytes,
                                 self.occupancy + txn.size_bytes)
        else:
            self.occupancy = max(0.0, self.occupancy - txn.size_bytes)

    def npi(self, cycle: int) -> float:
        self._apply_flow(cycle)
        delta = self.occupancy - self.initial_occupancy
        if self.direction == FILL:
            delta = -delta  # a filling backlog is the unhealthy direction
        return clamp_npi(1.0 + delta
                         / (self.rate_per_cycle * self.window_cycles))


class BandwidthMeter:
    """Delivered bytes over a sliding cycle window versus a target rate."""

    def __init__(self, dma_id: str, target_bytes_per_s: float,
                 clock_freq_hz: float, window_cycles: int = 100):
        if window_cycles <= 0:
            raise InvalidWindow("window_cycles must be positive")
        self.dma_id = dma_id
        self.target_bytes_per_s = target_bytes_per_s
        self.clock_freq_hz = clock_freq_hz
        self.window_cycles = window_cycles
        self.completions = deque()  # (cycle, bytes)
        self.bytes_in_window = 0
        self.ever_completed = False

    def on_completion(self, txn: Transaction, cycle: int) -> None:
        self.completions.append((cycle, txn.size_bytes))
        self.bytes_in_window += txn.size_bytes
        self.ever_completed = True

    def _trim(self, cycle: int) -> None:
        horizon = cycle - self.window_cycles
        comp = self.completions
        while comp and comp[0][0] <= horizon:
            self.bytes_in_window -= comp.popleft()[1]

    def npi(self, cycle: int) -> float:
        if self.target_bytes_per_s == 0.0:
            return NPI_MAX
        self._trim(cycle)
        if not self.ever_completed:
            return NPI_MAX  # startup: no feedback to judge by yet
        measured = (self.bytes_in_window * self.clock_freq_hz
                    / self.window_cycles)
        return clamp_npi(measured / self.target_bytes_per_s)
