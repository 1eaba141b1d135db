"""On-chip network modeled as a tree of priority-aware arbiters.

Default shape: a media-cluster arbiter and a system-cluster arbiter feed a
root arbiter per DRAM channel, next to direct ports for the remaining DMAs.
Every queue hop costs one cycle (a transaction cannot be granted in the
cycle it entered a queue) and every queue is a bounded FIFO, so backpressure
propagates without loss.  Per-DMA FIFO order is preserved end-to-end: each
cluster keeps a single output FIFO whose head is eligible only at the root
of its target channel.

Arbitration modes: "priority" (aged flag first, then priority level,
round-robin tie-break), "fcfs" (oldest head by creation time) and "rr"
(priority-blind round-robin).

Root memo.  Each root keeps the ports `keep` last kept for it (under FCFS
its one winner) and the cycle it built them, and rebuilds them only once
the fabric-wide `_stale_from` cycle has passed that build.  Given the
one-cycle hop, a root's eligible heads change only when a root grant pops a
head or a transaction enters an empty cluster-output FIFO or direct leaf
(stale from the next cycle, and for the later roots of this cycle, whose
memos are older), or when an epoch re-levels the leaves (`relevel`) or
`age_resident` runs (stale from this cycle).  A refused grant then costs
one `next_in_turn` step, which still moves `rr_pointer`.

Full pool.  A root with kept ports always takes its turn, so `rr_pointer`
moves as if it offered its head, but it does not call
`ControllerState.enqueue` while the pool is `full`: the pool would refuse
any head.

Cluster wake.  Each cluster keeps the earliest cycle at which one of its
leaf heads can be eligible, and `step` skips the cluster before it.  An
offer into an empty leaf lowers it to the next cycle.  An arbitration that
finds no eligible head sets it to the next cycle if a leaf holds a head
(which entered this cycle), else to NEVER.  A grant leaves it as it is: the
new head of the granted leaf entered before this cycle.
"""

from __future__ import annotations

from collections import deque

from .core import PRIORITY_LEVELS, Transaction, age_queues, next_in_turn
from .dram import NEVER

PRIORITY = "priority"
FCFS = "fcfs"
ROUND_ROBIN = "rr"
MODES = (PRIORITY, FCFS, ROUND_ROBIN)


def keep(ports, eligible, mode: str) -> list:
    """The ports that may win among `eligible`, the ascending indices of
    the `ports` whose head may be granted.

    FCFS keeps the oldest head (lowest index on a tie), PRIORITY the ports
    whose head ranks highest by (aged, priority) and RR them all.
    """
    if not eligible or mode == ROUND_ROBIN:
        return eligible
    if mode == FCFS:
        return [min(eligible, key=lambda i: ports[i][0].t_created)]
    kept, best = [], -1
    for i in eligible:
        head = ports[i][0]
        rank = head.priority + PRIORITY_LEVELS * head.aged
        if rank > best:
            kept, best = [i], rank
        elif rank == best:
            kept.append(i)
    return kept


class ArbiterNode:
    """One switch: bounded FIFO per input port, one grant per cycle."""

    def __init__(self, name: str, num_ports: int, depth: int = 8,
                 mode: str = PRIORITY):
        if mode not in MODES:
            raise ValueError(f"unknown arbitration mode {mode}")
        self.name = name
        self.ports = [deque() for _ in range(num_ports)]
        self.depth = depth
        self.mode = mode
        self.rr_pointer = 0

    def offer(self, port: int, txn: Transaction, now: int) -> bool:
        q = self.ports[port]
        if len(q) >= self.depth:
            return False
        txn.t_hop = now
        q.append(txn)
        return True

    def arbitrate(self, now: int):
        """Pick the winning port index among the ports whose head entered
        before `now`, or None.  Does not move the txn."""
        eligible = [i for i, q in enumerate(self.ports)
                    if q and q[0].t_hop < now]
        if not eligible:
            return None
        return self.take_turn(keep(self.ports, eligible, self.mode))

    def take_turn(self, kept) -> int:
        """The first of the non-empty `kept` in turn after `rr_pointer`,
        which moves to it unless the mode is FCFS."""
        win = next_in_turn(kept, self.rr_pointer)
        if self.mode != FCFS:
            self.rr_pointer = win
        return win

    def grant(self, port: int) -> Transaction:
        return self.ports[port].popleft()


class NocFabric:
    """Leaf queue per DMA, optional cluster arbiters, one root per channel."""

    def __init__(self, clusters: dict, direct: list, dma_order: list,
                 channels: int, depth: int = 8, cluster_depth: int | None = None,
                 mode: str = PRIORITY, leaf_depths: dict | None = None):
        self.cluster_depth = depth if cluster_depth is None else cluster_depth
        self.leaf_depth = {d: (leaf_depths or {}).get(d) or depth
                           for d in dma_order}
        self.dma_order = list(dma_order)
        self.leaf = {}
        self._cluster_of = dict.fromkeys(dma_order)  # None: a direct DMA
        self.cluster_nodes = []
        self.cluster_members = []  # DMA id of each cluster port
        self.cluster_out = []  # one FIFO per cluster, shared across channels
        for name in sorted(clusters):
            members = [d for d in dma_order if d in clusters[name]]
            node = ArbiterNode(name, len(members), depth, mode)
            for port, dma in enumerate(members):
                self.leaf[dma] = node.ports[port]
                self._cluster_of[dma] = len(self.cluster_nodes)
            self.cluster_nodes.append(node)
            self.cluster_members.append(members)
            self.cluster_out.append(deque())
        # cluster wake (module docstring): per cluster, the earliest cycle
        # at which one of its leaf heads can be eligible
        self._wake = [NEVER] * len(self.cluster_nodes)
        self.direct = [d for d in dma_order if d in direct]
        for d in self.direct:
            self.leaf[d] = deque()
        # root ports: cluster output FIFOs first, then direct DMA leaves;
        # each root's arbitration view shares these FIFOs
        self._root_queues = self.cluster_out + [self.leaf[d] for d in self.direct]
        self.roots = []
        for ch in range(channels):
            root = ArbiterNode(f"root{ch}", len(self._root_queues), depth, mode)
            root.ports = list(self._root_queues)
            self.roots.append(root)
        # DMA id behind each root port: None for a cluster output
        self._root_leaf = [None] * len(self.cluster_out) + self.direct
        # root memo (module docstring): kept ports and build cycle per root
        self._kept = [[] for _ in range(channels)]
        self._built = [-1] * channels
        self._stale_from = 0
        # DMAs whose leaf lost a head in `step`, in grant order; the caller
        # empties it
        self.drained = []

    # -- injection ---------------------------------------------------------

    def offer(self, dma_id: str, txn: Transaction, now: int) -> bool:
        q = self.leaf[dma_id]
        if len(q) >= self.leaf_depth[dma_id]:
            return False
        if not q:
            ci = self._cluster_of[dma_id]
            if ci is None:
                self._stale_from = now + 1
            elif self._wake[ci] > now:
                self._wake[ci] = now + 1
        txn.t_hop = now
        q.append(txn)
        return True

    def relevel(self, dma_id: str, level: int, now: int) -> None:
        """Give the requests still waiting in `dma_id`'s leaf the DMA's
        current `level`, so an escalation is not blocked by stale heads."""
        for txn in self.leaf[dma_id]:
            txn.priority = level
        self._stale_from = max(self._stale_from, now)

    def leaf_space(self, dma_id: str) -> int:
        return self.leaf_depth[dma_id] - len(self.leaf[dma_id])

    # -- one simulation cycle ---------------------------------------------

    def step(self, now: int, controller) -> None:
        # roots drain cluster outputs and direct leaves into the controller;
        # a full pool would refuse any head, so it is not offered one
        for ch, root in enumerate(self.roots):
            if self._built[ch] < self._stale_from:
                self._kept[ch] = keep(root.ports, [
                    i for i, q in enumerate(root.ports)
                    if q and q[0].t_hop < now and q[0].channel == ch
                ], root.mode)
                self._built[ch] = now
            kept = self._kept[ch]
            if not kept:
                continue
            win = root.take_turn(kept)
            if controller.full():
                continue
            q = root.ports[win]
            if controller.enqueue(q[0], now):
                q.popleft()
                self._stale_from = now + 1
                if self._root_leaf[win] is not None:
                    self.drained.append(self._root_leaf[win])

        # clusters move leaf heads into their output FIFO, from their wake
        # cycle on
        wake = self._wake
        for ci, node in enumerate(self.cluster_nodes):
            if now < wake[ci]:
                continue
            out = self.cluster_out[ci]
            if len(out) >= self.cluster_depth:
                continue
            win = node.arbitrate(now)
            if win is None:
                # every leaf head entered this cycle, or no leaf holds one
                wake[ci] = now + 1 if any(node.ports) else NEVER
                continue
            txn = node.grant(win)
            txn.t_hop = now
            if not out:
                self._stale_from = now + 1
            out.append(txn)
            self.drained.append(self.cluster_members[ci][win])

    def next_activity(self, now: int) -> int:
        """Earliest cycle at or after `now` at which `step` could move a
        transaction, or NEVER.

        A head becomes eligible the cycle after it entered its queue. Root
        heads count even when the controller would refuse them, because a
        refused grant still moves the root's round-robin pointer; leaves of
        a cluster whose output FIFO is full do not count.
        """
        first = NEVER  # earliest entry cycle of a head that counts
        for q in self._root_queues:
            if q:
                if q[0].t_hop < now:
                    return now
                first = min(first, q[0].t_hop)
        for node, out in zip(self.cluster_nodes, self.cluster_out):
            if len(out) < self.cluster_depth:
                for q in node.ports:
                    if q:
                        if q[0].t_hop < now:
                            return now
                        first = min(first, q[0].t_hop)
        return first + 1 if first < NEVER else NEVER

    # -- aging / accounting ------------------------------------------------

    def age_resident(self, now: int, period: int) -> None:
        age_queues(self.all_queues(), now, period)
        self._stale_from = max(self._stale_from, now)

    def all_queues(self):
        for dma in self.dma_order:
            yield self.leaf[dma]
        yield from self.cluster_out

    def resident_count(self) -> int:
        return sum(len(q) for q in self.all_queues())
