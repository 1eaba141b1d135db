"""Bank-level DRAM timing model with row-buffer state.

The model enforces per-bank command windows (tRCD, tRP, tRTP, tWR, tWTR),
per-rank activate spacing (tRRD, tFAW) and a shared data bus per channel:
every access reserves a tBURST-cycle data window, and windows on one channel
may never overlap (they may be granted out of order, so activate/precharge
work in one bank overlaps data transfer from another).  Bus cycles before a
channel's last issue count as free, which is exact for every window asked
for while calls come at nondecreasing cycles, as `controller.py` requires.

A whole command sequence (optional PRE, optional ACT, then RD/WR) is issued
atomically; `issue` re-checks `earliest_issue`, so an IllegalIssue can only
indicate a scheduler bug.  `issued` counts the sequences issued on each
channel; only an issue changes the state `earliest_issue` reads, so a
scheduler that caches its results knows they hold while the count stands.

Open-page policy: a row stays open until a conflicting access forces a
precharge.  Refresh is not modeled.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import READ, TXN_SIZE_BYTES, Interval, Transaction, within

ROW_HIT = 0
ROW_MISS = 1
BANK_CLOSED = 2

NEVER = 1 << 62


class IllegalIssue(Exception):
    pass


class InvalidWindow(Exception):
    pass


# [dram] bounds: the bank state grows with channels * ranks * banks, the
# work of every cycle with channels, and each data-bus bit mask with timings
MAX_BANKS = 1 << 16
POWERS_OF_TWO = tuple(1 << i for i in range(MAX_BANKS.bit_length()))
TIMING = Interval(1, 1 << 20)


@dataclass
class DramTimingConfig:
    CL: int = within(TIMING, 36)
    tRCD: int = within(TIMING, 34)
    tRP: int = within(TIMING, 34)
    tWTR: int = within(TIMING, 19)
    tRTP: int = within(TIMING, 14)
    tWR: int = within(TIMING, 34)
    tRRD: int = within(TIMING, 19)
    tFAW: int = within(TIMING, 75)
    tBURST: int = within(TIMING, 8)
    channels: int = within(POWERS_OF_TWO[:9], 2)  # at most 256
    ranks: int = within(POWERS_OF_TWO, 2)
    banks: int = within(POWERS_OF_TWO, 8)
    # columns per row per channel = 2**column_bits
    column_bits: int = within(Interval(0, 32), 5)


def service_latency(classification: int, timing: DramTimingConfig) -> int:
    """Cycles from command issue until the data burst completes."""
    if classification == ROW_HIT:
        return timing.CL + timing.tBURST
    if classification == BANK_CLOSED:
        return timing.tRCD + timing.CL + timing.tBURST
    if classification == ROW_MISS:
        return timing.tRP + timing.tRCD + timing.CL + timing.tBURST
    raise ValueError(f"unknown classification {classification}")


class AddressMap:
    """Bit-field layout byte-offset | channel | column | bank | rank | row.

    Bijective over any address range; addresses sharing all bits above the
    column field land in the same (channel, rank, bank, row).
    """

    def __init__(self, timing: DramTimingConfig):
        self.channel_bits = (timing.channels - 1).bit_length()
        self.column_bits = timing.column_bits
        self.bank_bits = (timing.banks - 1).bit_length()
        self.rank_bits = (timing.ranks - 1).bit_length()
        self._ch_shift = (TXN_SIZE_BYTES - 1).bit_length()  # byte offset
        self._col_shift = self._ch_shift + self.channel_bits
        self._bank_shift = self._col_shift + self.column_bits
        self._rank_shift = self._bank_shift + self.bank_bits
        self._row_shift = self._rank_shift + self.rank_bits
        self._ch_mask = (1 << self.channel_bits) - 1
        self._col_mask = (1 << self.column_bits) - 1
        self._bank_mask = (1 << self.bank_bits) - 1
        self._rank_mask = (1 << self.rank_bits) - 1

    def decode(self, addr: int):
        """addr -> (channel, rank, bank, row, column)."""
        return (
            (addr >> self._ch_shift) & self._ch_mask,
            (addr >> self._rank_shift) & self._rank_mask,
            (addr >> self._bank_shift) & self._bank_mask,
            addr >> self._row_shift,
            (addr >> self._col_shift) & self._col_mask,
        )

    def encode(self, channel: int, rank: int, bank: int, row: int,
               column: int = 0, offset: int = 0) -> int:
        return (offset
                | (channel << self._ch_shift)
                | (column << self._col_shift)
                | (bank << self._bank_shift)
                | (rank << self._rank_shift)
                | (row << self._row_shift))


class BankState:
    __slots__ = ("open_row", "earliest_activate", "earliest_read",
                 "earliest_write", "earliest_precharge")

    def __init__(self):
        self.open_row = None
        self.earliest_activate = 0
        self.earliest_read = 0
        self.earliest_write = 0
        self.earliest_precharge = 0


class _ChannelBus:
    """Non-overlapping data windows, granted in any order.  Bit i of `busy`
    marks cycle `base + i` busy; cycles before `base` count as free, so
    `earliest` is exact for windows that start at or after the last prune."""

    __slots__ = ("busy", "base", "burst", "span")

    def __init__(self, burst: int):
        self.busy = self.base = 0
        self.burst = burst
        self.span = (1 << burst) - 1  # one burst of bits

    def prune(self, now: int) -> None:
        if now > self.base:
            self.busy >>= now - self.base
            self.base = now

    def earliest(self, completion: int) -> int:
        """Smallest legal completion cycle >= `completion`."""
        while True:
            i = completion - self.burst - self.base  # burst start - base
            clash = (self.busy << -i if i < 0 else self.busy >> i) & self.span
            if not clash:
                return completion
            completion += clash.bit_length()  # past the last busy cycle

    def reserve(self, completion: int) -> None:
        self.busy |= self.span << (completion - self.burst - self.base)


class DramModel:
    """All channel/rank/bank state plus bandwidth and row-hit accounting."""

    def __init__(self, timing: DramTimingConfig):
        self.timing = timing
        self.address_map = AddressMap(timing)
        self.banks = [[[BankState() for _ in range(timing.banks)]
                       for _ in range(timing.ranks)]
                      for _ in range(timing.channels)]
        # last 4 activate times per (channel, rank), newest last; -NEVER: none
        self.rank_activates = [[(-NEVER,) * 4] * timing.ranks
                               for _ in range(timing.channels)]
        self.bus = [_ChannelBus(timing.tBURST) for _ in range(timing.channels)]
        # cycles from issue to the end of the data burst, by classification
        self.latency = tuple(service_latency(c, timing)
                             for c in (ROW_HIT, ROW_MISS, BANK_CLOSED))
        self.issued = [0] * timing.channels  # sequences issued per channel
        self.row_hits = 0
        self.row_misses = 0
        self.bank_opens = 0
        self.bytes_done = 0

    def decode_into(self, txn: Transaction) -> None:
        ch, rank, bank, row, _col = self.address_map.decode(txn.address)
        txn.channel, txn.rank, txn.bank, txn.row = ch, rank, bank, row

    def classify(self, txn: Transaction) -> int:
        bank = self.banks[txn.channel][txn.rank][txn.bank]
        if bank.open_row is None:
            return BANK_CLOSED
        return ROW_HIT if bank.open_row == txn.row else ROW_MISS

    def _faw_bound(self, channel: int, rank: int) -> tuple:
        """(earliest activate from tRRD, earliest from tFAW)."""
        acts = self.rank_activates[channel][rank]
        return acts[3] + self.timing.tRRD, acts[0] + self.timing.tFAW

    def earliest_issue(self, txn: Transaction, now: int,
                       cls: int | None = None) -> int:
        """Exact earliest cycle >= now at which txn's sequence could start,
        assuming no further commands are issued in between.  `cls` is
        `classify(txn)`, for a caller that has it already."""
        t = self.timing
        bank = self.banks[txn.channel][txn.rank][txn.bank]
        if cls is None:
            cls = self.classify(txn)
        if cls == ROW_HIT:
            ready = bank.earliest_read if txn.kind == READ else bank.earliest_write
        elif cls == BANK_CLOSED:
            rrd, faw = self._faw_bound(txn.channel, txn.rank)
            ready = max(bank.earliest_activate, rrd, faw)
        else:
            rrd, faw = self._faw_bound(txn.channel, txn.rank)
            ready = max(bank.earliest_precharge,
                        bank.earliest_activate - t.tRP,
                        rrd - t.tRP, faw - t.tRP)
        start = max(now, ready)
        data_latency = self.latency[cls]
        completion = self.bus[txn.channel].earliest(start + data_latency)
        return completion - data_latency

    def issue(self, txn: Transaction, now: int) -> int:
        """Issue the full command sequence for txn; returns completion cycle."""
        cls = self.classify(txn)
        if self.earliest_issue(txn, now, cls) != now:
            raise IllegalIssue(
                f"txn {txn.id} not issuable at cycle {now} "
                f"(ch{txn.channel} r{txn.rank} b{txn.bank} row {txn.row})")
        t = self.timing
        bank = self.banks[txn.channel][txn.rank][txn.bank]
        if cls == ROW_HIT:
            access = now
            self.row_hits += 1
        else:
            if cls == BANK_CLOSED:
                t_act = now
                self.bank_opens += 1
            else:
                t_act = now + t.tRP
                self.row_misses += 1
            acts = self.rank_activates[txn.channel]
            acts[txn.rank] = acts[txn.rank][1:] + (t_act,)
            bank.open_row = txn.row
            bank.earliest_activate = t_act + t.tRRD
            access = t_act + t.tRCD
        completion = access + t.CL + t.tBURST
        if txn.kind == READ:
            bank.earliest_read = access + t.tBURST
            bank.earliest_write = access + t.tBURST
            bank.earliest_precharge = max(bank.earliest_precharge,
                                          access + t.tRTP)
        else:
            bank.earliest_read = completion + t.tWTR
            bank.earliest_write = access + t.tBURST
            bank.earliest_precharge = max(bank.earliest_precharge,
                                          completion + t.tWR)
        bus = self.bus[txn.channel]
        bus.prune(now)
        bus.reserve(completion)
        self.issued[txn.channel] += 1
        self.bytes_done += txn.size_bytes
        return completion
