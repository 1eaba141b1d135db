"""Cycle-driven event loop tying generators, meters, NoC, controller and
DRAM together.

Fixed phase order inside one cycle:

  1. traffic generation into the NoC leaf queues
  2. meter update, frame-boundary resets, priority re-evaluation, aging
  3. NoC arbitration (roots first, then cluster arbiters: one hop per cycle)
  4. controller scheduling and DRAM command issue, one per channel
  5. completion delivery, meter feedback and metric recording

DMAs are always iterated in sorted id order so the result is independent of
any incidental container ordering.

A stepped cycle runs only the layers that can act on it.  Phase 1 and the
poll loop of `skip_idle` pop only the due polls from `_polls`, a heap of
(next poll, DMA) that holds every DMA neither parked nor gate-parked (see
below); ties pop in DMA id order.  Phase 2 runs only on an epoch, frame or
aging boundary (`_boundary`, which `step` and `skip_idle` keep).  An epoch
re-levels a DMA's leaf (`NocFabric.relevel`) only when the DMA's level
changed, because every request in the leaf was made at, or re-levelled
to, the old level.  Phase 4 calls `ControllerState.select` only for a
channel whose `next_try` has come.  The NoC skips its own idle clusters
and full-pool enqueues (see `noc`).

A generator whose leaf queue is full is parked: it is not polled until the
NoC takes a head from that leaf (`NocFabric.drained`).  Its polls in the
meantime would find the leaf full, call no `next_requests` and leave its
state unchanged, so on waking it resumes at `Generator.poll_from`, the
cycle those polls would have reached.

An occupancy-gated stream whose leaf has room but whose buffer has none
(`Generator.idle_poll`) is gate-parked: its room depends only on its meter
occupancy and its in-flight bytes, which change only with its own
emissions, its own completions (phase 5) and an epoch's
`OccupancyMeter.npi` (phase 2).  So it is woken by a completion of one of
its transactions or by an epoch, never by a leaf drain, and
`Generator.skip_polls` then replays the credit accrual of the polls it
missed.

`run` steps a cycle and then fast-forwards over the cycles in which no phase
can act (`World.skip_idle`): no epoch, aging or frame boundary falls on
them, no completion is due, no NoC head is eligible, every channel holding
controller transactions waits for its `next_try`, and no generator poll is
due on them; a due poll that would find no buffer room does not stop the
skip, it gate-parks its stream.  The results equal those of calling
`World.step` on every cycle, which stays the single-cycle reference.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from . import metrics
from .config import ScenarioConfig
from .controller import ControllerState, QUEUE_NAMES
from .core import PRIORITY_LEVELS
from .dram import DramModel
from .meters import (DRAIN, FILL, FRAME_PROGRESS_LUT, BandwidthMeter,
                     FrameProgressMeter, LatencyMeter, OccupancyMeter,
                     PriorityLut, translate)
from .noc import NocFabric
from .rng import dma_stream
from .traffic import Generator

ID_STRIDE = 1 << 32  # per-DMA transaction id spacing


@dataclass
class SimulationReport:
    policy: str
    fingerprint: tuple
    dma_order: list
    duration_cycles: int
    warmup_cycles: int
    clock_freq_hz: float
    desk_scale: int
    sink: metrics.MetricsSink
    row_hits: int = 0
    row_misses: int = 0
    bank_opens: int = 0
    total_bytes: int = 0
    max_wait: int = 0
    generated: int = 0
    completed: int = 0
    resident_at_end: int = 0
    target_bytes_per_s: dict = field(default_factory=dict)

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses + self.bank_opens
        return self.row_hits / total if total else 0.0

    def _window(self) -> tuple:
        return self.warmup_cycles, self.duration_cycles

    def min_npi(self, dma_id: str) -> float:
        return metrics.min_npi(self.sink.series[dma_id], *self._window())

    def priority_histogram(self, dma_id: str):
        return metrics.priority_histogram(self.sink.series[dma_id],
                                          *self._window())

    def mean_priority(self, dma_id: str) -> float:
        return metrics.mean_priority(self.sink.series[dma_id], *self._window())

    def dma_bytes(self, dma_id: str) -> int:
        return metrics.bytes_in_window(self.sink.bytes_by_dma[dma_id],
                                       *self._window())

    def mean_bandwidth(self, dma_id: str) -> float:
        start, end = self._window()
        if end <= start:
            return 0.0
        scaled = self.dma_bytes(dma_id) * self.clock_freq_hz / (end - start)
        return scaled * self.desk_scale  # report at nominal scale

    def total_bandwidth(self) -> float:
        start, end = self._window()
        if end <= start:
            return 0.0
        total = sum(self.dma_bytes(d) for d in self.dma_order)
        return total * self.clock_freq_hz / (end - start) * self.desk_scale


class World:
    def __init__(self, cfg: ScenarioConfig):
        cfg.validate()
        self.cfg = cfg
        clock_hz = cfg.command_clock_hz
        self.cycle = 0  # the next cycle to step, in command-clock cycles
        self.dram = DramModel(cfg.dram)

        entries = sorted(cfg.dmas, key=lambda e: e.dma_id)
        self.dma_order = [e.dma_id for e in entries]
        queue_of = {e.dma_id: QUEUE_NAMES.index(e.queue) for e in entries}
        self.controller = ControllerState(
            policy=cfg.policy, capacity=cfg.capacity, delta=cfg.delta,
            queue_of_dma=queue_of, static_split=cfg.static_split)
        self.policy = self.controller.policy

        self.meters = {}
        self.luts = {}
        self.generators = {}
        self.level = {}
        self.media_dmas = frozenset(e.dma_id for e in entries
                                    if e.queue == "media")
        self.frame_meters = []
        leaf_depth = {}
        for i, e in enumerate(entries):
            spec = e.spec_for(cfg.desk_scale, cfg.frame_period_cycles)
            window = e.window_cycles or cfg.meter_window_cycles
            leaf_depth[e.dma_id] = e.queue_depth or cfg.noc_depth
            meter = self._build_meter(e, spec, clock_hz, window,
                                      cfg.desk_scale)
            self.meters[e.dma_id] = meter
            if e.lut:
                lut = PriorityLut(entries=tuple(e.lut))
            elif e.meter == "frame_progress":
                lut = PriorityLut(entries=FRAME_PROGRESS_LUT)
            else:
                lut = PriorityLut()
            self.luts[e.dma_id] = lut
            rng = dma_stream(cfg.seed, e.dma_id)
            occ = meter if isinstance(meter, OccupancyMeter) else None
            self.generators[e.dma_id] = Generator(
                spec, rng, clock_hz, id_base=(i + 1) * ID_STRIDE,
                occupancy_meter=occ)
            self.level[e.dma_id] = 0
            if isinstance(meter, FrameProgressMeter):
                self.frame_meters.append(meter)
        cluster_depth = cfg.noc_cluster_depth
        self.noc = NocFabric(
            {e.dma_id: e.cluster for e in entries}, leaf_depth,
            cfg.noc_depth if cluster_depth is None else cluster_depth,
            cfg.dram.channels, self.policy.noc_mode)

        self.inflight = []  # heap of (completion, seq, txn)
        self._seq = 0
        self.sink = metrics.MetricsSink(self.dma_order)
        self._epoch_bytes = {d: 0 for d in self.dma_order}
        self.generated = 0
        self.completed = 0
        self.max_wait = 0
        self._polls = [(0, d) for d in self.dma_order]  # sorted: a heap
        # parked DMA -> its next poll, which would find the leaf full
        self._parked = {}
        # gate-parked DMA -> its next poll, which would find no buffer room
        self._gated = {}
        # periods of the phase-2 boundaries, and the next boundary cycle
        self._periods = [cfg.epoch_cycles, cfg.frame_period_cycles]
        if self.policy.aging:
            self._periods.append(cfg.aging_period)
        self._boundary = -1
        self._channels = range(cfg.dram.channels)

    @staticmethod
    def _build_meter(e, spec, clock_hz, window, desk_scale):
        # ScenarioConfig.validate() has checked the meter kind and its inputs
        if e.meter == "latency":
            return LatencyMeter(e.dma_id, e.latency_limit_cycles)
        if e.meter == "frame_progress":
            return FrameProgressMeter(e.dma_id, spec.frame_bytes,
                                      spec.frame_period_cycles,
                                      e.reference_slope)
        if e.meter == "occupancy":
            buffer_bytes = e.buffer_kb * 1024 / desk_scale
            direction = DRAIN if e.direction == "drain" else FILL
            return OccupancyMeter(e.dma_id, buffer_bytes,
                                  spec.rate_bytes_per_s, clock_hz,
                                  direction=direction, window_cycles=window)
        return BandwidthMeter(e.dma_id, e.target_bytes_per_s / desk_scale,
                              clock_hz, window_cycles=window)

    # -- one cycle ---------------------------------------------------------

    def step(self) -> None:
        now = self.cycle
        cfg = self.cfg

        # phase 1, when a poll is due: traffic generation; a DMA whose leaf
        # is full is parked until the NoC drains the leaf, and one whose
        # buffer has no room is gate-parked until a completion or an epoch
        polls = self._polls
        while polls and polls[0][0] <= now:
            dma = heapq.heappop(polls)[1]
            gen = self.generators[dma]
            space = self.noc.leaf_space(dma)
            if space > 0:
                for txn in gen.next_requests(now, space, self.level[dma]):
                    self.dram.decode_into(txn)
                    self.noc.offer(dma, txn, now)
                    self.generated += 1
                    space -= 1
            if space == 0:
                self._parked[dma] = gen.next_poll_after(now)
            elif gen.idle_poll():
                self._gated[dma] = now + 1
            else:
                heapq.heappush(polls, (gen.next_poll_after(now), dma))

        # phase 2, on an epoch, frame or aging boundary: meters, priorities,
        # aging
        if now > self._boundary:
            self._boundary = self._next_boundary(now)
        if now == self._boundary:
            if now % cfg.frame_period_cycles == 0:
                for meter in self.frame_meters:
                    meter.start_frame(now)
            if now > 0 and now % cfg.epoch_cycles == 0:
                self._reevaluate(now)
                for dma in list(self._gated):
                    self._wake(dma, now)
            if (now > 0 and self.policy.aging
                    and now % cfg.aging_period == 0):
                self.controller.apply_aging(now, cfg.aging_period)
                self.noc.age_resident(now, cfg.aging_period)

        # phase 3: NoC arbitration, then wake the parked DMAs it drained:
        # their polls up to now found the leaf full and changed nothing
        self.noc.step(now, self.controller)
        drained = self.noc.drained
        if drained:
            for dma in drained:
                poll = self._parked.pop(dma, None)
                if poll is not None:
                    poll = self.generators[dma].poll_from(poll, now + 1)
                    heapq.heappush(self._polls, (poll, dma))
            drained.clear()

        # phase 4: scheduling + DRAM issue on each channel whose next_try
        # has come (select would return None before it; this saves the call)
        next_try = self.controller.next_try
        for ch in self._channels:
            if now < next_try[ch]:
                continue
            txn = self.controller.select(self.dram, ch, now)
            if txn is not None:
                completion = self.dram.issue(txn, now)
                heapq.heappush(self.inflight, (completion, self._seq, txn))
                self._seq += 1

        # phase 5: completion delivery
        inflight = self.inflight
        while inflight and inflight[0][0] <= now:
            _, _, txn = heapq.heappop(inflight)
            txn.t_completed = now
            self.meters[txn.source].on_completion(txn, now)
            self.generators[txn.source].on_completion(txn)
            if txn.source in self._gated:
                self._wake(txn.source, now)
            self._epoch_bytes[txn.source] += txn.size_bytes
            self.completed += 1
            wait = now - txn.t_created
            if wait > self.max_wait:
                self.max_wait = wait

        self.cycle = now + 1

    def _wake(self, dma: str, now: int) -> None:
        """Resume a gate-parked DMA at `now + 1`, replaying the polls it
        missed: each found no room and only accrued credit."""
        poll = self.generators[dma].skip_polls(self._gated.pop(dma), now + 1)
        heapq.heappush(self._polls, (poll, dma))

    def skip_idle(self, end: int) -> None:
        """Advance `cycle` to the first cycle before `end` at which a
        phase could change state (or to `end`), gate-parking the streams
        whose due polls would find no buffer room."""
        now = self.cycle
        target = self.noc.next_activity(now)  # the commonest reason to stop
        if target <= now:
            return
        if now > self._boundary:
            self._boundary = self._next_boundary(now)
        target = min(target, end, self._boundary,
                     self.controller.next_activity())
        if self.inflight:
            target = min(target, self.inflight[0][0])
        if target <= now:
            return
        polls = self._polls
        while polls and polls[0][0] < target:
            poll, dma = polls[0]
            if not self.generators[dma].idle_poll():
                target = poll
                break
            heapq.heappop(polls)
            self._gated[dma] = poll
        self.cycle = target

    def _next_boundary(self, now: int) -> int:
        """The first epoch, frame or aging boundary at or after `now`."""
        return min(-(-now // p) * p for p in self._periods)

    def _reevaluate(self, now: int) -> None:
        if self.policy.media_first:
            self.controller.boosted = self.media_dmas
        for dma in self.dma_order:
            meter = self.meters[dma]
            npi = meter.npi(now)
            level = translate(self.luts[dma], npi)
            if self.policy.media_first:
                # frame-level QoS: media cores ride at the top level for the
                # whole frame, every other source stays at the base level
                level = PRIORITY_LEVELS - 1 if dma in self.media_dmas else 0
            if level != self.level[dma]:
                # the leaf holds only requests made at the old level
                self.level[dma] = level
                self.noc.relevel(dma, level, now)
            self.sink.record(dma, now, npi, level)
            nbytes = self._epoch_bytes[dma]
            if nbytes:
                self.sink.record_bytes(dma, now, nbytes)
                self._epoch_bytes[dma] = 0

    def resident_count(self) -> int:
        return (self.noc.resident_count() + self.controller.occupancy
                + len(self.inflight))

    def report(self) -> SimulationReport:
        cfg = self.cfg
        duration = self.cycle
        for dma in self.dma_order:  # flush trailing partial epoch
            if self._epoch_bytes[dma]:
                self.sink.record_bytes(dma, duration, self._epoch_bytes[dma])
                self._epoch_bytes[dma] = 0
        targets = {}
        for e in cfg.dmas:
            targets[e.dma_id] = e.target_bytes_per_s
        return SimulationReport(
            policy=cfg.policy,
            fingerprint=cfg.fingerprint(),
            dma_order=self.dma_order,
            duration_cycles=duration,
            warmup_cycles=min(cfg.warmup_cycles, max(duration - 1, 0)),
            clock_freq_hz=cfg.command_clock_hz,
            desk_scale=cfg.desk_scale,
            sink=self.sink,
            row_hits=self.dram.row_hits,
            row_misses=self.dram.row_misses,
            bank_opens=self.dram.bank_opens,
            total_bytes=self.dram.bytes_done,
            max_wait=self.max_wait,
            generated=self.generated,
            completed=self.completed,
            resident_at_end=self.resident_count(),
            target_bytes_per_s=targets,
        )


def run(scenario: ScenarioConfig, duration_cycles: int | None = None
        ) -> SimulationReport:
    """Run a scenario to completion and return its report."""
    world = World(scenario)
    total = scenario.resolved_duration() if duration_cycles is None \
        else duration_cycles
    while world.cycle < total:
        world.step()
        world.skip_idle(total)
    return world.report()
