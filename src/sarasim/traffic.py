"""Synthetic per-DMA memory request streams.

Four source kinds cover the camcorder dataflow:

  bursty_frame    whole frame payload becomes eligible at each frame
                  boundary, emitted as fast as backpressure permits
  constant_rate   credit-paced stream; when tied to an occupancy meter the
                  pace is boosted while the buffer has headroom, so a healthy
                  stream builds cushion instead of tracking the drain exactly
  latency_probe   single reads with exponential inter-arrival
  bandwidth_stream credit-paced elastic stream at an offered rate that may
                  exceed the meter target (the surplus is best-effort filler)

Addresses walk the DMA's region sequentially; with probability
(1 - locality) a request jumps to a random aligned address in the region.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import READ, WRITE, TXN_SIZE_BYTES, Transaction
from .dram import NEVER
from .meters import DRAIN

BURSTY_FRAME = "bursty_frame"
CONSTANT_RATE = "constant_rate"
LATENCY_PROBE = "latency_probe"
BANDWIDTH_STREAM = "bandwidth_stream"
SOURCE_KINDS = (BURSTY_FRAME, CONSTANT_RATE, LATENCY_PROBE, BANDWIDTH_STREAM)
CREDIT_KINDS = (CONSTANT_RATE, BANDWIDTH_STREAM)

CREDIT_CAP_TXNS = 32
_CREDIT_CAP = float(CREDIT_CAP_TXNS * TXN_SIZE_BYTES)  # a float, like the credit


@dataclass
class DmaSpec:
    dma_id: str
    source_kind: str
    rate_bytes_per_s: float = 0.0
    frame_period_cycles: int = 0
    frame_bytes: int = 0
    address_region: tuple = (0, 1 << 20)
    locality: float = 1.0
    read_fraction: float = 1.0
    pace_boost: float = 2.0  # occupancy-gated refill headroom factor


@dataclass
class GeneratorState:
    byte_credit: float = 0.0
    bytes_left_in_frame: int = 0
    next_address: int = 0
    inflight_bytes: int = 0
    next_probe_cycle: float = 0.0
    pending_probes: int = 0
    last_cycle: int = 0
    next_boundary: int = 0


class Generator:
    """Stepwise request source for one DMA."""

    def __init__(self, spec: DmaSpec, rng, clock_freq_hz: float,
                 id_base: int = 0, occupancy_meter=None):
        self.spec = spec
        self.rng = rng
        self.state = GeneratorState(next_address=spec.address_region[0])
        self.rate_per_cycle = spec.rate_bytes_per_s / clock_freq_hz
        self.occupancy_meter = occupancy_meter
        # credit earned per cycle by a credit-paced stream
        self.pace = self.rate_per_cycle
        if occupancy_meter is not None:
            self.pace *= spec.pace_boost
        self._next_id = id_base
        if spec.source_kind == LATENCY_PROBE and self.rate_per_cycle > 0:
            mean = TXN_SIZE_BYTES / self.rate_per_cycle
            self.state.next_probe_cycle = rng.exponential(mean)

    # -- address stream ----------------------------------------------------

    def _next_addr(self) -> int:
        base, length = self.spec.address_region
        addr = self.state.next_address
        size = TXN_SIZE_BYTES
        if self.spec.locality < 1.0 and self.rng.random() >= self.spec.locality:
            slots = length // size
            addr = base + self.rng.integers(slots) * size
        nxt = addr + size
        if nxt >= base + length:
            nxt = base
        self.state.next_address = nxt
        return addr

    def _kind(self) -> int:
        rf = self.spec.read_fraction
        if rf >= 1.0:
            return READ
        if rf <= 0.0:
            return WRITE
        return READ if self.rng.random() < rf else WRITE

    def _make(self, now: int, priority: int) -> Transaction:
        txn = Transaction(id=self._next_id, source=self.spec.dma_id,
                          kind=self._kind(), address=self._next_addr(),
                          priority=priority, t_created=now)
        self._next_id += 1
        self.state.inflight_bytes += txn.size_bytes
        return txn

    def on_completion(self, txn: Transaction) -> None:
        self.state.inflight_bytes -= txn.size_bytes

    # -- emission ----------------------------------------------------------

    def _occupancy_space(self) -> bool:
        meter = self.occupancy_meter
        if meter is None:
            return True
        size = TXN_SIZE_BYTES
        if meter.direction == DRAIN:  # refill only while there is headroom
            return (meter.occupancy + self.state.inflight_bytes + size
                    <= meter.buffer_bytes)
        # FILL: drain only what the producer has actually buffered
        return meter.occupancy - self.state.inflight_bytes >= size

    def next_requests(self, now: int, space: int, priority: int = 0) -> list:
        """Emit up to `space` transactions for this cycle."""
        spec, st = self.spec, self.state
        out = []
        if space <= 0 or self.rate_per_cycle == 0.0:
            st.last_cycle = now
            return out
        kind = spec.source_kind
        size = TXN_SIZE_BYTES

        if kind == BURSTY_FRAME:
            while now >= st.next_boundary:
                st.bytes_left_in_frame += spec.frame_bytes
                st.next_boundary += spec.frame_period_cycles
            while st.bytes_left_in_frame >= size and len(out) < space:
                out.append(self._make(now, priority))
                st.bytes_left_in_frame -= size

        elif kind in CREDIT_KINDS:
            self._accrue(now)
            limit = 1 if kind == CONSTANT_RATE else space
            while (st.byte_credit >= size and len(out) < limit
                   and self._occupancy_space()):
                out.append(self._make(now, priority))
                st.byte_credit -= size

        elif kind == LATENCY_PROBE:
            mean = size / self.rate_per_cycle
            while st.next_probe_cycle <= now:
                st.pending_probes += 1
                st.next_probe_cycle += self.rng.exponential(mean)
            while st.pending_probes > 0 and len(out) < space:
                out.append(self._make(now, priority))
                st.pending_probes -= 1

        st.last_cycle = now
        return out

    def _accrue(self, now: int) -> None:
        st = self.state
        st.byte_credit += self.pace * (now - st.last_cycle)
        if st.byte_credit > _CREDIT_CAP:
            st.byte_credit = _CREDIT_CAP
        st.last_cycle = now

    def idle_poll(self) -> bool:
        """Whether polls emit nothing until this DMA's own completion or an
        epoch's `OccupancyMeter.npi` changes the buffer room: an
        occupancy-gated stream has earned its credit, which only grows,
        but its buffer has no room for the transaction.  Polls behind a
        full leaf never reach the generator (see `poll_from`)."""
        return (self.spec.source_kind in CREDIT_KINDS
                and self.occupancy_meter is not None
                and self.state.byte_credit >= TXN_SIZE_BYTES
                and not self._occupancy_space())

    def skip_polls(self, poll: int, until: int) -> int:
        """Replay the polls due from cycle `poll` up to `until` during
        which `idle_poll()` held, exactly as polling at each due cycle
        would; returns the first poll cycle at or after `until`."""
        if poll >= until:
            return poll
        st = self.state
        cap = _CREDIT_CAP
        if st.byte_credit < cap:  # a capped credit stays capped
            self._accrue(poll)
            # earned credit keeps next_action_cycle at the poll itself, so
            # each later poll is one cycle after the last: pace * 1 == pace
            credit, pace = st.byte_credit, self.pace
            for _ in range(until - poll - 1):
                if credit >= cap:
                    break
                credit += pace
                if credit > cap:
                    credit = cap
            st.byte_credit = credit
        st.last_cycle = until - 1
        return until

    def poll_from(self, poll: int, cycle: int) -> int:
        """First cycle at or after `cycle` in the poll sequence `poll`,
        `next_poll_after(poll)`, ... of a generator whose state does not
        change, as behind a full leaf, where the engine does not call
        `next_requests`.  With fixed state that sequence takes one step
        and then keeps a constant stride: a credit deficit fixes the
        stride, and a frame boundary or probe arrival already reached is
        polled every cycle."""
        if poll >= cycle:
            return poll
        poll = self.next_poll_after(poll)
        if poll >= cycle:
            return poll
        stride = self.next_poll_after(poll) - poll
        return poll + -(-(cycle - poll) // stride) * stride

    def next_poll_after(self, now: int) -> int:
        """Cycle of the poll that follows a poll at `now`."""
        return max(self.next_action_cycle(now), now + 1)

    def next_action_cycle(self, now: int) -> int:
        """Earliest cycle at which this generator may emit again."""
        spec, st = self.spec, self.state
        if self.rate_per_cycle == 0.0:
            return NEVER
        if spec.source_kind == BURSTY_FRAME:
            if st.bytes_left_in_frame >= TXN_SIZE_BYTES:
                return now
            return st.next_boundary
        if spec.source_kind == LATENCY_PROBE:
            if st.pending_probes > 0:
                return now
            return int(st.next_probe_cycle)
        deficit = TXN_SIZE_BYTES - st.byte_credit
        if deficit <= 0:
            return now
        return now + max(1, int(deficit / self.pace))
