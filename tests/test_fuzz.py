"""Long randomized runs checked against an independent timing shadow.

The shadow re-derives every DRAM protocol window (tRCD, tRP, tRRD, tFAW,
tWTR, tRTP, tWR, data-bus occupancy) from first principles, using only the
observable command schedule, and flags any violation.  A scheduler bug that
slipped past the model's own legality check would be caught here.
"""

import numpy as np
import pytest

from sarasim.controller import NUM_QUEUES, POLICIES, QUEUE_NAMES, \
    ControllerState
from sarasim.core import READ, WRITE, Transaction
from sarasim.dram import (BANK_CLOSED, ROW_HIT, ROW_MISS, DramModel,
                          DramTimingConfig)

CYCLES_PER_POLICY = 170_000  # six policies -> just over 10^6 cycles total


class TimingShadow:
    """Independent bookkeeping of protocol windows per bank/rank/channel."""

    def __init__(self, timing):
        self.t = timing
        self.acts = {}        # (ch, rank) -> activate times, newest last
        self.open_row = {}    # (ch, rank, bank) -> row
        self.rd_ready = {}    # (ch, rank, bank) -> earliest next column cmd
        self.wr_ready = {}
        self.pre_ready = {}   # earliest legal precharge
        self.act_ready = {}   # earliest legal activate (bank-level)
        self.bus = {}         # ch -> list of (start, end) data windows
        self.violations = []

    def _flag(self, what, txn, detail):
        self.violations.append(f"{what}: txn {txn.id} {detail}")

    def observe(self, txn, issued_at, completion):
        t = self.t
        key = (txn.channel, txn.rank, txn.bank)
        rank_key = (txn.channel, txn.rank)
        prev_row = self.open_row.get(key)
        if prev_row is None:
            cls = BANK_CLOSED
        elif prev_row == txn.row:
            cls = ROW_HIT
        else:
            cls = ROW_MISS

        if cls == ROW_HIT:
            access = issued_at
        else:
            if cls == BANK_CLOSED:
                t_act = issued_at
            else:
                t_pre = issued_at
                if t_pre < self.pre_ready.get(key, 0):
                    self._flag("tRTP/tWR", txn,
                               f"precharge at {t_pre} before "
                               f"{self.pre_ready[key]}")
                t_act = t_pre + t.tRP
            # rank-level activate windows
            acts = self.acts.setdefault(rank_key, [])
            if acts and t_act < acts[-1] + t.tRRD:
                self._flag("tRRD", txn,
                           f"activate at {t_act} after one at {acts[-1]}")
            if len(acts) >= 4 and t_act < acts[-4] + t.tFAW:
                self._flag("tFAW", txn,
                           f"activate at {t_act}, fifth in window "
                           f"starting {acts[-4]}")
            if t_act < self.act_ready.get(key, 0):
                self._flag("tRRD-bank", txn, f"activate at {t_act}")
            acts.append(t_act)
            del acts[:-4]
            self.act_ready[key] = t_act + t.tRRD
            self.open_row[key] = txn.row
            access = t_act + t.tRCD
        # column command legality
        ready = self.rd_ready if txn.kind == READ else self.wr_ready
        if access < ready.get(key, 0):
            self._flag("tWTR/tBURST", txn,
                       f"column cmd at {access} before {ready[key]}")
        expect_completion = access + t.CL + t.tBURST
        if completion != expect_completion:
            self._flag("latency", txn,
                       f"completion {completion} != {expect_completion}")
        if txn.kind == READ:
            self.rd_ready[key] = access + t.tBURST
            self.wr_ready[key] = access + t.tBURST
            self.pre_ready[key] = max(self.pre_ready.get(key, 0),
                                      access + t.tRTP)
        else:
            self.rd_ready[key] = completion + t.tWTR
            self.wr_ready[key] = access + t.tBURST
            self.pre_ready[key] = max(self.pre_ready.get(key, 0),
                                      completion + t.tWR)
        # shared data bus: windows on one channel may never overlap
        windows = self.bus.setdefault(txn.channel, [])
        start = completion - t.tBURST
        for w0, w1 in windows:
            if w0 < completion and w1 > start:
                self._flag("bus", txn,
                           f"window ({start},{completion}) overlaps "
                           f"({w0},{w1})")
        windows.append((start, completion))
        if len(windows) > 64:
            windows.sort()
            del windows[:-32]


def fuzz_policy(policy, cycles, seed):
    """Drive random traffic through controller + DRAM for `cycles` cycles;
    returns the shadow's violation list."""
    rng = np.random.default_rng(seed)
    timing = DramTimingConfig()
    dram = DramModel(timing)
    shadow = TimingShadow(timing)
    queue_of = {name: i for i, name in enumerate(QUEUE_NAMES)}
    ctrl = ControllerState(policy=policy, queue_of_dma=queue_of,
                           delta=int(rng.integers(1, 8)))
    next_id = 0
    ctrl.boosted = frozenset({"media"} if policy == "FRAME_QOS" else ())
    for now in range(cycles):
        # random arrivals, bursty enough to keep the queues under pressure
        for _ in range(int(rng.integers(0, 3))):
            if ctrl.occupancy >= ctrl.capacity:
                break
            addr = dram.address_map.encode(
                channel=int(rng.integers(timing.channels)),
                rank=int(rng.integers(timing.ranks)),
                bank=int(rng.integers(timing.banks)),
                row=int(rng.integers(4)),
                column=int(rng.integers(1 << timing.column_bits)))
            txn = Transaction(
                id=next_id, source=QUEUE_NAMES[int(rng.integers(NUM_QUEUES))],
                kind=READ if rng.random() < 0.7 else WRITE, address=addr,
                priority=int(rng.integers(8)), t_created=now)
            dram.decode_into(txn)
            ctrl.enqueue(txn, now)
            next_id += 1
        if policy in ("QOS", "QOS_RB") and now % 10_000 == 0 and now:
            ctrl.apply_aging(now, 10_000)
        for ch in range(timing.channels):
            txn = ctrl.select(dram, ch, now)
            if txn is not None:
                completion = dram.issue(txn, now)
                shadow.observe(txn, now, completion)
    return shadow.violations


@pytest.mark.parametrize("policy", POLICIES)
def test_million_cycle_fuzz_has_zero_timing_violations(policy):
    import zlib
    seed = zlib.crc32(policy.encode())
    violations = fuzz_policy(policy, CYCLES_PER_POLICY, seed=seed)
    assert violations == [], violations[:5]
