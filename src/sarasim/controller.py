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

Aged transactions rank alike, above every level (`core.rank`), until completed;
aging runs only under QOS and QOS_RB.  `POLICY` describes each policy once,
as one `Policy` record that the engine, the NoC and this controller all read.

Arrival order.  The caller uses one `DramModel` and enqueues and scans at
nondecreasing cycles, as `World` does, so the enqueue count `seq` is
arrival order: a larger `seq` never has an earlier enqueue cycle.

Ready set.  The transactions held for a channel sit in groups keyed by
(rank, bank, row, kind), in `seq` order (`enqueue` appends), as in the
per-bank queues of FR-FCFS controllers (Rixner et al., ISCA 2000).  The
groups are the controller's only store of held transactions; each of the
five queues keeps only a count (`held`), which the static split reads.
`DramModel.earliest_issue` and the row class depend only on that key, the
DRAM state and `now`, so each group caches one issue cycle (`issue_at`)
and whether it is a row hit (`hit`) for all its transactions.  The DRAM
state changes only by an issue, so a scan of a channel recomputes every
group when `DramModel.issued[channel]` differs from its value at the
channel's last scan, and otherwise only the groups that are new or whose
cached cycle is earlier than `now` (ready but lost): a cached start at or
after `now` is still the earliest, also for a transaction that joins the
group later.  An emptied group is deleted.  `_ready` returns the ready
groups and the ready row-hit groups, and the select rules read them: the
oldest transaction of a set of groups is the oldest of their heads, and
only the rules that look at each transaction (RR, QOS, FRAME_QOS and
QOS_RB's checks) walk all of them.

`next_try`.  A scan that finds nothing ready sets `next_try` to the
earliest cached issue cycle of the channel.  An enqueue resets it only when
the transaction opens a new group: a transaction that joins a group shares
the group's issue cycle, which `next_try` already counts.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

from . import noc
from .core import Transaction, age_queues, next_in_turn, rank
from .dram import NEVER, ROW_HIT, DramModel

QUEUE_NAMES = ("cpu", "gpu", "dsp", "media", "system")
NUM_QUEUES = len(QUEUE_NAMES)


def _oldest(groups) -> Transaction:
    """The oldest transaction of `groups`: the oldest of their heads."""
    best = None
    for group in groups:
        txn = group.txns[0]
        if best is None or txn.seq < best.seq:
            best = txn
    return best


class _Group:
    """Held transactions of one `group_key`, oldest first, and their cache."""

    __slots__ = ("txns", "issue_at", "hit")

    def __init__(self):
        self.txns, self.issue_at, self.hit = [], -1, False


def group_key(txn: Transaction) -> tuple:
    return txn.rank, txn.bank, txn.row, txn.kind


@dataclass(frozen=True)
class Policy:
    """What one scheduling policy sets in every layer."""

    noc_mode: str  # arbitration mode of every NoC node, one of noc.MODES
    aging: bool  # periodic aging of controller and NoC queues
    # media DMAs ride at the top priority level and every other DMA at the
    # base level, and from the first epoch on the media DMAs are boosted
    media_first: bool
    # ControllerState select rule, called on the non-empty ready groups as
    # select(controller, ready groups, their row hits, boosted DMAs)
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
        self.held = [0] * NUM_QUEUES  # transactions held per queue
        self.occupancy = 0
        self.rr_pointer = 0
        self._seq = 0
        # per-channel cycle before which select cannot possibly succeed;
        # reset by an issue and by an enqueue that opens a group
        self.next_try = defaultdict(int)
        self._groups = defaultdict(dict)  # channel -> group_key -> _Group
        # channel -> DramModel.issued[channel] at the channel's last scan
        self._scanned = {}

    # -- queue admission ---------------------------------------------------

    def full(self) -> bool:
        """True when `enqueue` refuses every transaction: the pool is at
        capacity.  Under a static split the per-queue shares add up to at
        most the capacity, so a full pool has every queue at its share."""
        return self.occupancy >= self.capacity

    def enqueue(self, txn: Transaction, now: int) -> bool:
        """Append txn to its designated queue; False means backpressure:
        the pool is `full`, or under a static split the queue is at its
        share."""
        qi = self.queue_of_dma[txn.source]
        if self.full() or (self.static_split and self.held[qi]
                           >= self.capacity // NUM_QUEUES):
            return False
        txn.queue = qi
        txn.t_enqueued = now
        txn.seq = self._seq
        self._seq += 1
        groups, key = self._groups[txn.channel], group_key(txn)
        group = groups.get(key)
        if group is None:  # see `next_try` in the module docstring
            group = groups[key] = _Group()
            self.next_try[txn.channel] = 0
        group.txns.append(txn)
        self.held[qi] += 1
        self.occupancy += 1
        return True

    # -- aging -------------------------------------------------------------

    def apply_aging(self, now: int) -> None:
        if self.policy.aging:
            age_queues((group.txns for groups in self._groups.values()
                        for group in groups.values()), now, self.aging_period)

    # -- scheduling --------------------------------------------------------

    def _ready(self, dram: DramModel, channel: int, now: int) -> tuple:
        """(groups issuable at `now`, the row hits among them, earliest
        future cycle any group could become ready), recomputing only the
        groups the module docstring names."""
        issued = dram.issued[channel]
        stale = issued != self._scanned.get(channel)
        self._scanned[channel] = issued
        out, hits = [], []
        horizon = NEVER
        for group in self._groups[channel].values():
            at = group.issue_at
            if stale or at < now:
                txn = group.txns[0]
                cls = dram.classify(txn)
                at = group.issue_at = dram.earliest_issue(txn, now, cls)
                group.hit = cls == ROW_HIT
            if at == now:
                out.append(group)
                if group.hit:
                    hits.append(group)
            elif at < horizon:
                horizon = at
        return out, hits, horizon

    # select rules, one per policy: (ready groups, their row hits, boosted
    # DMAs) -> the transaction to issue

    def _first_come(self, ready, hits, boosted) -> Transaction:
        return _oldest(ready)

    def _priority_round_robin(self, ready, hits, boosted,
                              ranked=True) -> Transaction:
        """Policy 1: aged first, then the highest priority, round-robin
        over the queues among those, oldest first within a queue.  Unless
        `ranked` every transaction ranks the same (RR)."""
        ranks, picks = [-1] * NUM_QUEUES, [None] * NUM_QUEUES
        for group in ready:
            for txn in group.txns:
                r = rank(txn) if ranked else 0
                qi = txn.queue
                if r > ranks[qi]:
                    ranks[qi], picks[qi] = r, txn
                elif r == ranks[qi] and txn.seq < picks[qi].seq:
                    picks[qi] = txn
        top = max(ranks)
        self.rr_pointer = next_in_turn(
            [qi for qi, r in enumerate(ranks) if r == top],
            self.rr_pointer)
        return picks[self.rr_pointer]

    def _round_robin(self, ready, hits, boosted) -> Transaction:
        """Oldest ready transaction of the first queue in turn after
        rr_pointer."""
        return self._priority_round_robin(ready, hits, boosted, False)

    def _boosted_first(self, ready, hits, boosted) -> Transaction:
        mine = [t for g in ready for t in g.txns if t.source in boosted]
        return min(mine, key=lambda t: t.seq) if mine else _oldest(ready)

    def _row_hits_first(self, ready, hits, boosted) -> Transaction:
        return _oldest(hits or ready)

    def _row_buffer_aware(self, ready, hits, boosted) -> Transaction:
        """Policy 2: the oldest row hit while nothing is aged and nobody is
        above delta (or everyone is at one level), else policy 1."""
        if hits:
            low = high = ready[0].txns[0].priority
            for group in ready:
                for txn in group.txns:
                    if txn.aged:
                        return self._priority_round_robin(ready, hits, boosted)
                    if txn.priority > high:
                        high = txn.priority
                    elif txn.priority < low:
                        low = txn.priority
            if low == high or high < self.delta:
                return _oldest(hits)
        return self._priority_round_robin(ready, hits, boosted)

    def select(self, dram: DramModel, channel: int, now: int,
               unhealthy: set = frozenset()):
        """Pick and remove one issuable transaction for `channel`, or None.

        When nothing is issuable, `next_try[channel]` is advanced so the
        caller can skip select until a new group or that cycle arrives;
        the engine reads `next_try` before it calls.
        """
        if now < self.next_try[channel]:
            return None
        ready, hits, horizon = self._ready(dram, channel, now)
        if not ready:
            self.next_try[channel] = horizon
            return None
        self.next_try[channel] = 0  # an issue changes bank and bus state
        txn = self.policy.select(self, ready, hits, unhealthy)
        self.held[txn.queue] -= 1
        groups, key = self._groups[channel], group_key(txn)
        groups[key].txns.remove(txn)
        if not groups[key].txns:
            del groups[key]
        self.occupancy -= 1
        return txn

    def next_activity(self) -> int:
        """Earliest cycle at which `select` could issue, or NEVER: the
        `next_try` of every channel that holds a transaction."""
        at = NEVER
        for ch, groups in self._groups.items():
            if groups and self.next_try[ch] < at:
                at = self.next_try[ch]
        return at


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
