"""Core domain types shared by every stage of the simulator.

A Transaction is one 64-byte (by default) memory request.  It carries the
dynamic priority level its source DMA held at creation time, plus the cycle
stamps needed by the performance meters and the metrics sink.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field

PRIORITY_BITS = 3
PRIORITY_LEVELS = 1 << PRIORITY_BITS  # 0 = healthy/lowest urgency, 7 = highest
TXN_SIZE_BYTES = 64

READ = 0
WRITE = 1


class ValidationError(Exception):
    """A scenario value that parses but is out of range or inconsistent."""


@dataclass(frozen=True)
class Interval:
    """The finite numbers from `lo` (excluded if `open_lo`) to `hi`."""
    lo: float
    hi: float = math.inf
    open_lo: bool = False

    def __contains__(self, value) -> bool:
        return ((self.lo < value if self.open_lo else self.lo <= value)
                and value <= self.hi and abs(value) != math.inf)

    def __str__(self) -> str:
        return (f"{'(' if self.open_lo or self.lo == -math.inf else '['}"
                f"{self.lo}, {self.hi}{')' if self.hi == math.inf else ']'}")


def within(domain, default=MISSING):
    """A dataclass field whose value must lie in `domain`, an `Interval` or
    a tuple of the allowed values, as `ScenarioConfig.validate` checks."""
    return field(default=default, metadata={"domain": domain})


def next_in_turn(indices, pointer: int) -> int:
    """Round-robin turn that starts after `pointer`: the first of the
    ascending, non-empty `indices` above `pointer`, else the lowest."""
    for i in indices:
        if i > pointer:
            return i
    return indices[0]


def rank(txn) -> int:
    """Arbitration rank: the priority level, or above every level if aged."""
    return PRIORITY_LEVELS if txn.aged else txn.priority


def age_queues(queues, now: int, period: int) -> None:
    """The one aging sweep: mark aged every queued transaction created at
    least `period` cycles before `now`."""
    for q in queues:
        for txn in q:
            if not txn.aged and now - txn.t_created >= period:
                txn.aged = True


@dataclass(slots=True, eq=False)
class Transaction:
    id: int
    source: str
    kind: int  # READ or WRITE
    address: int
    size_bytes: int = TXN_SIZE_BYTES
    priority: int = 0
    aged: bool = False
    t_created: int = 0
    t_enqueued: int = -1
    t_completed: int = -1
    # decoded address fields, filled in once at creation to keep the
    # per-cycle scheduling loops cheap
    channel: int = 0
    rank: int = 0
    bank: int = 0
    row: int = 0
    queue: int = 0  # controller queue index, assigned on arrival
    seq: int = -1  # controller arrival order, counted by enqueue
    t_hop: int = -1  # cycle the txn entered its current NoC queue
