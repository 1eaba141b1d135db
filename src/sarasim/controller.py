"""Transaction-queue memory controller with pluggable scheduling policies.

Five queues (CPU, GPU, DSP, media, system) share a 42-entry pool by default.
Policies:

  FCFS      globally oldest ready transaction
  RR        round-robin over the five queues, oldest ready within a queue
  FRAME_QOS ready transactions from media DMAs currently behind their
            real-time reference outrank everything, otherwise FCFS
  QOS       priority round-robin (highest priority wins, queue round-robin
            as tie-break) with periodic aging
  QOS_RB    QOS extended to prefer open-row transactions while nobody is
            above the urgency threshold delta
  FR_FCFS   ready row-hits first, FCFS among them, FCFS otherwise

Aged transactions outrank every priority level until completed; aging is
active only under QOS and QOS_RB.

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

from .core import Transaction, age_queues, next_in_turn
from .dram import NEVER, ROW_HIT, DramModel

QUEUE_NAMES = ("cpu", "gpu", "dsp", "media", "system")
NUM_QUEUES = len(QUEUE_NAMES)

FCFS = "FCFS"
RR = "RR"
FRAME_QOS = "FRAME_QOS"
QOS = "QOS"
QOS_RB = "QOS_RB"
FR_FCFS = "FR_FCFS"
POLICIES = (FCFS, RR, FRAME_QOS, QOS, QOS_RB, FR_FCFS)

AGING_POLICIES = (QOS, QOS_RB)


class ControllerState:
    def __init__(self, policy: str = QOS, capacity: int = 42,
                 aging_period: int = 10000, delta: int = 6,
                 queue_of_dma: dict | None = None,
                 static_split: bool = False):
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy}")
        self.policy = policy
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
        if self.policy in AGING_POLICIES:
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

    def _arrival_key(self, txn: Transaction):
        return (txn.t_enqueued, txn.seq)

    def _oldest(self, txns) -> Transaction:
        return min(txns, key=self._arrival_key)

    def _round_robin(self, candidates) -> Transaction:
        """Oldest candidate of the first queue in turn after rr_pointer."""
        oldest = {}
        for t in candidates:
            prev = oldest.get(t.queue)
            if prev is None or self._arrival_key(t) < self._arrival_key(prev):
                oldest[t.queue] = t
        self.rr_pointer = next_in_turn(sorted(oldest), self.rr_pointer)
        return oldest[self.rr_pointer]

    def _priority_round_robin(self, ready) -> Transaction:
        """Policy 1 over an arbitrary ready set."""
        aged = [t for t in ready if t.aged]
        if aged:
            candidates = aged
        else:
            maxp = max(t.priority for t in ready)
            candidates = [t for t in ready if t.priority == maxp]
        return self._round_robin(candidates)

    def _select_from(self, ready, dram: DramModel, now: int,
                     unhealthy: set) -> Transaction:
        policy = self.policy
        if policy == FCFS:
            return self._oldest(ready)
        if policy == RR:
            return self._round_robin(ready)
        if policy == FRAME_QOS:
            boosted = [t for t in ready if t.source in unhealthy]
            return self._oldest(boosted) if boosted else self._oldest(ready)
        if policy == FR_FCFS:
            hits = [t for t in ready if dram.classify(t) == ROW_HIT]
            return self._oldest(hits) if hits else self._oldest(ready)
        if policy == QOS:
            return self._priority_round_robin(ready)
        if policy == QOS_RB:
            if not any(t.aged for t in ready):
                prios = {t.priority for t in ready}
                if len(prios) == 1 or max(prios) < self.delta:
                    hits = [t for t in ready if dram.classify(t) == ROW_HIT]
                    if hits:
                        return self._oldest(hits)
            return self._priority_round_robin(ready)
        raise AssertionError(f"unhandled policy {policy}")

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

    def resident(self):
        for q in self.queues:
            yield from q
