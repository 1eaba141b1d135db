"""On-chip network modeled as a tree of priority-aware arbiters.

Default shape: a media-cluster arbiter and a system-cluster arbiter feed a
root arbiter per DRAM channel, next to direct ports for the remaining DMAs.
Every queue hop costs one cycle (a transaction cannot be granted in the
cycle it entered a queue) and every queue is a bounded FIFO, so backpressure
propagates without loss.  Per-DMA FIFO order is preserved end-to-end: each
cluster keeps a single output FIFO whose head is eligible only at the root
of its target channel.

Arbitration modes: "priority" (highest `core.rank`, round-robin tie-break),
"fcfs" (oldest head by creation time) and "rr" (priority-blind round-robin).

Memo.  Each node keeps the ports it last kept (under FCFS its one winner)
and the cycle it built them, and rebuilds them in one pass over its ports
(`_rebuild`) only once its `stale_from` cycle has passed that build.  Given
the one-cycle hop, the heads a node may grant change only when
- a head enters an empty queue the node reads: a leaf (its cluster, or
  every root for a direct DMA) or a cluster output (every root); stale
  from the next cycle;
- a grant pops a head: the granting node rebuilds at its next arbitration,
  and a root grant makes every root stale from the next cycle, because the
  roots share their queues (the later roots of this cycle have older
  memos);
- an epoch re-levels a leaf (`relevel`: the nodes it feeds) or
  `age_resident` runs (every node); stale from this cycle.
A memo hit still takes one `next_in_turn` step, which moves `rr_pointer`
as a rebuild would; an idle node's empty memo costs no rescan.

Full pool.  A root with kept ports always takes its turn, so `rr_pointer`
moves as if it offered its head, but it does not call
`ControllerState.enqueue` while the pool is `full`: the pool would refuse
any head.
"""

from __future__ import annotations

from collections import deque

from .core import Transaction, age_queues, next_in_turn, rank
from .dram import NEVER

PRIORITY = "priority"
FCFS = "fcfs"
ROUND_ROBIN = "rr"
MODES = (PRIORITY, FCFS, ROUND_ROBIN)


class ArbiterNode:
    """One switch: bounded FIFO per input port, one grant per cycle.  A
    root takes only the heads bound for its `channel`; a cluster (channel
    None) takes any."""

    def __init__(self, name: str, num_ports: int, depth: int = 8,
                 mode: str = PRIORITY, channel: int | None = None):
        if mode not in MODES:
            raise ValueError(f"unknown arbitration mode {mode}")
        self.name = name
        self.ports = [deque() for _ in range(num_ports)]
        self.depth = depth
        self.mode = mode
        self.channel = channel
        self.rr_pointer = 0
        # memo (module docstring): kept ports, their build cycle, and the
        # first cycle at which they may differ
        self.kept = []
        self.built = -1
        self.stale_from = 0

    def offer(self, port: int, txn: Transaction, now: int) -> bool:
        q = self.ports[port]
        if len(q) >= self.depth:
            return False
        if not q:
            self.stale_from = now + 1
        txn.t_hop = now
        q.append(txn)
        return True

    def arbitrate(self, now: int):
        """Pick the winning port index among the ports whose head entered
        before `now`, or None, and move `rr_pointer` to it unless the mode
        is FCFS.  Does not move the txn."""
        if self.built < self.stale_from:
            self._rebuild(now)
        kept = self.kept
        if not kept:
            return None
        win = next_in_turn(kept, self.rr_pointer)
        if self.mode != FCFS:
            self.rr_pointer = win
        return win

    def _rebuild(self, now: int) -> None:
        """In one pass over the ports, keep those whose head entered before
        `now`, is bound for this node's channel and ranks highest in the
        node's mode; under FCFS only the first oldest."""
        ch, mode = self.channel, self.mode
        kept, best = [], -NEVER
        for i, q in enumerate(self.ports):
            if q:
                head = q[0]
                if head.t_hop < now and (ch is None or head.channel == ch):
                    if mode == PRIORITY:
                        r = rank(head)
                    elif mode == FCFS:
                        r = -head.t_created
                    else:
                        r = 0
                    if r > best:
                        kept, best = [i], r
                    elif r == best and mode != FCFS:
                        kept.append(i)
        self.kept, self.built = kept, now

    def grant(self, port: int) -> Transaction:
        self.built = -1
        return self.ports[port].popleft()


class NocFabric:
    """Leaf queue per DMA, optional cluster arbiters, one root per channel.
    `route` maps each DMA, in DMA order, to its cluster or "direct"."""

    def __init__(self, route: dict, leaf_depth: dict, cluster_depth: int,
                 channels: int, mode: str = PRIORITY):
        self.leaf_depth, self.cluster_depth = leaf_depth, cluster_depth
        self.leaf = {}
        self.cluster_nodes = []
        self.cluster_out = []  # one FIFO per cluster, shared across channels
        self.roots = []
        self._feeds = {}  # the nodes each DMA's leaf feeds
        members = {}
        for dma, where in route.items():
            members.setdefault(where, []).append(dma)
        direct = members.pop("direct", [])
        for name, dmas in sorted(members.items()):
            node = ArbiterNode(name, len(dmas), mode=mode)
            for port, dma in enumerate(dmas):
                self.leaf[dma] = node.ports[port]
                self._feeds[dma] = (node,)
            self.cluster_nodes.append(node)
            self.cluster_out.append(deque())
        for d in direct:
            self.leaf[d] = deque()
            self._feeds[d] = self.roots
        # root ports: cluster output FIFOs first, then direct DMA leaves;
        # each root's arbitration view shares these FIFOs
        self._root_queues = self.cluster_out + [self.leaf[d] for d in direct]
        for ch in range(channels):
            root = ArbiterNode(f"root{ch}", len(self._root_queues), mode=mode,
                               channel=ch)
            root.ports = list(self._root_queues)
            self.roots.append(root)
        # DMAs whose leaf lost a head in `step`, in grant order; the caller
        # empties it
        self.drained = []

    # -- injection ---------------------------------------------------------

    def offer(self, dma_id: str, txn: Transaction, now: int) -> bool:
        q = self.leaf[dma_id]
        if len(q) >= self.leaf_depth[dma_id]:
            return False
        if not q:
            for node in self._feeds[dma_id]:
                node.stale_from = now + 1
        txn.t_hop = now
        q.append(txn)
        return True

    def relevel(self, dma_id: str, level: int, now: int) -> None:
        """Give the requests still waiting in `dma_id`'s leaf the DMA's
        current `level`, so an escalation is not blocked by stale heads."""
        for txn in self.leaf[dma_id]:
            txn.priority = level
        for node in self._feeds[dma_id]:
            node.stale_from = max(node.stale_from, now)

    def leaf_space(self, dma_id: str) -> int:
        return self.leaf_depth[dma_id] - len(self.leaf[dma_id])

    # -- one simulation cycle ---------------------------------------------

    def step(self, now: int, controller) -> None:
        # roots drain cluster outputs and direct leaves into the controller;
        # a full pool would refuse any head, so it is not offered one
        for root in self.roots:
            win = root.arbitrate(now)
            if win is None or controller.full():
                continue
            q = root.ports[win]
            if controller.enqueue(q[0], now):
                txn = q.popleft()
                for r in self.roots:
                    r.stale_from = now + 1
                if win >= len(self.cluster_out):  # a direct DMA's leaf
                    self.drained.append(txn.source)

        # clusters move leaf heads into their output FIFO
        for node, out in zip(self.cluster_nodes, self.cluster_out):
            if len(out) >= self.cluster_depth:
                continue
            win = node.arbitrate(now)
            if win is None:
                continue
            txn = node.grant(win)
            txn.t_hop = now
            if not out:
                for root in self.roots:
                    root.stale_from = now + 1
            out.append(txn)
            self.drained.append(txn.source)

    def next_activity(self, now: int) -> int:
        """`now` if `step(now)` could move a transaction, else NEVER.

        Called right after `step(now - 1)`, so every queued head entered
        before `now` and is eligible.  Root heads count even when the
        controller would refuse them, because a refused grant still moves
        the root's round-robin pointer; leaves of a cluster whose output
        FIFO is full do not count.
        """
        if any(self._root_queues):
            return now
        for node, out in zip(self.cluster_nodes, self.cluster_out):
            if len(out) < self.cluster_depth and any(node.ports):
                return now
        return NEVER

    # -- aging / accounting ------------------------------------------------

    def age_resident(self, now: int, period: int) -> None:
        age_queues(self.all_queues(), now, period)
        for node in self.cluster_nodes + self.roots:
            node.stale_from = max(node.stale_from, now)

    def all_queues(self):
        yield from self.leaf.values()
        yield from self.cluster_out

    def resident_count(self) -> int:
        return sum(len(q) for q in self.all_queues())
