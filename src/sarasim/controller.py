"""Transaction-queue memory controller with pluggable scheduling policies.

Five queues (CPU, GPU, DSP, media, system) share a 42-entry pool by default.
Policies:

  FCFS      globally oldest ready transaction
  RR        round-robin over the five queues, oldest ready within a queue
  FRAME_QOS ready transactions from media DMAs, from the first epoch on,
            outrank everything, otherwise FCFS
  QOS       priority round-robin (highest priority wins, queue round-robin
            as tie-break) with periodic aging
  QOS_RB    QOS extended to prefer open-row transactions while nobody is
            above the urgency threshold delta
  FR_FCFS   ready row-hits first, FCFS among them, FCFS otherwise

Aged transactions outrank every priority level until completed; aging is
active only under QOS and QOS_RB.  `POLICY` describes each policy once, as
one `Policy` record that the engine, the NoC and this controller all read.

Ready set.  Each held transaction caches its last `DramModel.earliest_issue`
result (`issue_at`) and the end of the data burst behind it (`done_at`), and
a scan of a channel recomputes a transaction only when

  - it arrived since the last scan of the channel (`issue_at` is -1),
  - its cached cycle is earlier than `now` (it was ready but lost),
  - the sequence issued since the last scan used the same rank and bank,
  - that sequence activated a row in the same rank while the transaction
    needs an activate itself (tRRD/tFAW), or
  - that sequence's data window overlaps the cached one,

and recomputes every transaction of the channel when anything else may have
happened: more than one sequence issued since the last scan, another
DramModel, or a scan at an earlier cycle than the last.  Every other cached
value is exact.  A new command only removes legal start cycles and never
adds one, and `_ChannelBus.prune` drops only windows that end at or before
`now`, so a cached start that is still legal is still the earliest.  In the
engine at most one sequence is issued on a channel between two scans: an
issue resets `next_try`, so the next `select` on the channel scans again.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from . import noc
from .core import Transaction, age_queues, next_in_turn
from .dram import NEVER, ROW_HIT, DramModel

QUEUE_NAMES = ("cpu", "gpu", "dsp", "media", "system")
NUM_QUEUES = len(QUEUE_NAMES)


def _arrival_key(txn: Transaction):
    return (txn.t_enqueued, txn.seq)


def _oldest(txns) -> Transaction:
    return min(txns, key=_arrival_key)


def _row_hits(ready, dram: DramModel) -> list:
    return [t for t in ready if dram.classify(t) == ROW_HIT]


@dataclass(frozen=True)
class Policy:
    """What one scheduling policy sets in every layer."""

    noc_mode: str  # arbitration mode of every NoC node, one of noc.MODES
    aging: bool  # periodic aging of controller and NoC queues
    # media DMAs ride at the top priority level and every other DMA at the
    # base level, and from the first epoch on the media DMAs are boosted
    media_first: bool
    # ControllerState select rule, called on a non-empty ready set as
    # select(controller, ready, dram, boosted DMAs)
    select: Callable


class ControllerState:
    def __init__(self, policy: str = "QOS", capacity: int = 42,
                 aging_period: int = 10000, delta: int = 6,
                 queue_of_dma: dict | None = None,
                 static_split: bool = False):
        if policy not in POLICY:
            raise ValueError(f"unknown policy {policy}")
        self.policy = POLICY[policy]
        self.capacity = capacity
        self.aging_period = aging_period
        self.delta = delta
        self.queue_of_dma = dict(queue_of_dma or {})
        self.static_split = static_split
        self.queues = [deque() for _ in range(NUM_QUEUES)]
        self.occupancy = 0
        self.rr_pointer = 0
        self._seq = 0
        # per-channel cycle before which select cannot possibly succeed;
        # refreshed on every enqueue/issue touching the channel
        self.next_try = {}
        self._held = {}  # channel -> transactions held for it, oldest first
        # channel -> (DramModel, its issue count, cycle) at the last scan
        self._scanned = {}

    # -- queue admission ---------------------------------------------------

    def enqueue(self, txn: Transaction, now: int) -> bool:
        """Append txn to its designated queue; False means backpressure."""
        qi = self.queue_of_dma[txn.source]
        if self.static_split:
            if len(self.queues[qi]) >= self.capacity // NUM_QUEUES:
                return False
        elif self.occupancy >= self.capacity:
            return False
        txn.queue = qi
        txn.t_enqueued = now
        txn.seq = self._seq
        txn.issue_at = -1
        self._seq += 1
        self.next_try[txn.channel] = 0
        held = self._held.get(txn.channel)
        if held is None:
            held = self._held[txn.channel] = []
        held.append(txn)
        self.queues[qi].append(txn)
        self.occupancy += 1
        return True

    # -- aging -------------------------------------------------------------

    def apply_aging(self, now: int) -> None:
        if self.policy.aging:
            age_queues(self.queues, now, self.aging_period)

    # -- scheduling --------------------------------------------------------

    def _ready(self, dram: DramModel, channel: int, now: int) -> tuple:
        """(issuable txns, earliest future cycle any txn could become ready),
        recomputing only the cached values the module docstring names."""
        issued, rank, bank, activated, w_start, w_end = dram.last_issue[channel]
        last = self._scanned.get(channel)
        self._scanned[channel] = (dram, issued, now)
        stale = (last is None or last[0] is not dram or now < last[2]
                 or issued - last[1] > 1)
        if not stale and issued == last[1]:  # nothing issued since
            rank, w_start = -1, NEVER
        hit_latency = dram.latency[ROW_HIT]
        # a cached burst ending at done_at overlaps [w_start, w_end) iff
        # w_start < done_at < w_end + tBURST
        w_end += dram.timing.tBURST
        out = []
        horizon = NEVER
        for txn in self._held.get(channel, ()):
            at = txn.issue_at
            if (stale or at < now
                    or txn.rank == rank and (
                        txn.bank == bank
                        or activated and txn.done_at - at > hit_latency)
                    or w_start < txn.done_at < w_end):
                at = txn.issue_at = dram.earliest_issue(txn, now)
                txn.done_at = at + dram.latency[dram.classify(txn)]
            if at == now:
                out.append(txn)
            elif at < horizon:
                horizon = at
        return out, horizon

    # select rules, one per policy: (ready set, dram, boosted DMAs) -> the
    # transaction to issue

    def _first_come(self, ready, dram, boosted) -> Transaction:
        return _oldest(ready)

    def _round_robin(self, ready, dram, boosted) -> Transaction:
        """Oldest ready transaction of the first queue in turn after
        rr_pointer."""
        oldest = {}
        for t in ready:
            prev = oldest.get(t.queue)
            if prev is None or _arrival_key(t) < _arrival_key(prev):
                oldest[t.queue] = t
        self.rr_pointer = next_in_turn(sorted(oldest), self.rr_pointer)
        return oldest[self.rr_pointer]

    def _boosted_first(self, ready, dram, boosted) -> Transaction:
        return _oldest([t for t in ready if t.source in boosted] or ready)

    def _row_hits_first(self, ready, dram, boosted) -> Transaction:
        return _oldest(_row_hits(ready, dram) or ready)

    def _priority_round_robin(self, ready, dram, boosted) -> Transaction:
        """Policy 1: aged first, then the highest priority, round-robin
        over the queues among those."""
        aged = [t for t in ready if t.aged]
        if aged:
            candidates = aged
        else:
            maxp = max(t.priority for t in ready)
            candidates = [t for t in ready if t.priority == maxp]
        return self._round_robin(candidates, dram, boosted)

    def _row_buffer_aware(self, ready, dram, boosted) -> Transaction:
        """Policy 2: the oldest row hit while nothing is aged and nobody is
        above delta (or everyone is at one level), else policy 1."""
        if not any(t.aged for t in ready):
            prios = {t.priority for t in ready}
            if len(prios) == 1 or max(prios) < self.delta:
                hits = _row_hits(ready, dram)
                if hits:
                    return _oldest(hits)
        return self._priority_round_robin(ready, dram, boosted)

    def _select_from(self, ready, dram: DramModel, now: int,
                     unhealthy: set) -> Transaction:
        return self.policy.select(self, ready, dram, unhealthy)

    def select(self, dram: DramModel, channel: int, now: int,
               unhealthy: set = frozenset()):
        """Pick and remove one issuable transaction for `channel`, or None.

        When nothing is issuable, `next_try[channel]` is advanced so the
        caller can skip select until a queue event or that cycle arrives.
        """
        if now < self.next_try.get(channel, 0):
            return None
        ready, horizon = self._ready(dram, channel, now)
        if not ready:
            self.next_try[channel] = horizon
            return None
        self.next_try[channel] = 0  # an issue changes bank and bus state
        txn = self._select_from(ready, dram, now, unhealthy)
        self.queues[txn.queue].remove(txn)
        self._held[channel].remove(txn)
        self.occupancy -= 1
        return txn

    def next_activity(self) -> int:
        """Earliest cycle at which `select` could issue, or NEVER: the
        `next_try` of every channel that holds a transaction."""
        return min((self.next_try.get(ch, 0)
                    for ch, held in self._held.items() if held),
                   default=NEVER)


_C = ControllerState  # the select rules are its methods
POLICY = {
    "FCFS": Policy(noc.FCFS, False, False, _C._first_come),
    "RR": Policy(noc.ROUND_ROBIN, False, False, _C._round_robin),
    "FRAME_QOS": Policy(noc.PRIORITY, False, True, _C._boosted_first),
    "QOS": Policy(noc.PRIORITY, True, False, _C._priority_round_robin),
    "QOS_RB": Policy(noc.PRIORITY, True, False, _C._row_buffer_aware),
    "FR_FCFS": Policy(noc.ROUND_ROBIN, False, False, _C._row_hits_first),
}
POLICIES = tuple(POLICY)
