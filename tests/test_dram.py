"""Bank-timing model: exact latency oracles, activate-window legality and
the structural row-buffer properties."""

import pytest
from hypothesis import given, settings, strategies as st

from sarasim.core import READ, WRITE, Transaction
from sarasim.dram import (BANK_CLOSED, ROW_HIT, ROW_MISS, AddressMap,
                          DramModel, DramTimingConfig, IllegalIssue,
                          _ChannelBus, service_latency)


def timing(**kw):
    return DramTimingConfig(**kw)


def txn(model, channel=0, rank=0, bank=0, row=0, column=0, kind=READ, id=0):
    addr = model.address_map.encode(channel, rank, bank, row, column)
    t = Transaction(id=id, source="t", kind=kind, address=addr)
    model.decode_into(t)
    return t


# -- latency oracles ---------------------------------------------------------

class TestServiceLatency:
    def test_row_hit_read(self):
        assert service_latency(ROW_HIT, timing()) == 36 + 8  # CL + tBURST

    def test_bank_closed_read(self):
        assert service_latency(BANK_CLOSED, timing()) == 34 + 36 + 8

    def test_row_miss_read(self):
        assert service_latency(ROW_MISS, timing()) == 34 + 34 + 36 + 8

    def test_unknown_classification_rejected(self):
        with pytest.raises(ValueError):
            service_latency(99, timing())


class TestClassify:
    def test_hit_miss_closed(self):
        m = DramModel(timing())
        a = txn(m, row=5)
        assert m.classify(a) == BANK_CLOSED
        m.issue(a, 0)
        assert m.classify(txn(m, row=5, column=1)) == ROW_HIT
        assert m.classify(txn(m, row=9)) == ROW_MISS


# -- end-to-end issue timing -------------------------------------------------

class TestIssue:
    def test_first_access_opens_bank(self):
        m = DramModel(timing())
        done = m.issue(txn(m, row=3), 0)
        assert done == 34 + 36 + 8  # tRCD + CL + tBURST
        assert m.bank_opens == 1

    def test_row_hit_completion(self):
        m = DramModel(timing())
        m.issue(txn(m, row=3), 0)
        t2 = txn(m, row=3, column=1, id=1)
        at = m.earliest_issue(t2, 0)
        assert m.issue(t2, at) - at == 36 + 8
        assert m.row_hits == 1

    def test_back_to_back_hits_are_tburst_apart(self):
        m = DramModel(timing())
        m.issue(txn(m, row=3), 0)
        first = None
        for i in range(1, 4):
            t = txn(m, row=3, column=i, id=i)
            at = m.earliest_issue(t, 0)
            done = m.issue(t, at)
            if first is not None:
                assert done - first == m.timing.tBURST
            first = done

    def test_row_miss_completion(self):
        m = DramModel(timing())
        m.issue(txn(m, row=3), 0)
        t2 = txn(m, row=9, id=1)
        at = m.earliest_issue(t2, 0)
        assert m.issue(t2, at) - at == 34 + 34 + 36 + 8
        assert m.row_misses == 1

    def test_trrd_spacing_enforced(self):
        m = DramModel(timing())
        m.issue(txn(m, bank=0), 0)  # activate at 0
        other = txn(m, bank=1, id=1)
        # a second activate on the same rank at delta = 18 is illegal
        assert m.earliest_issue(other, 18) == 19
        with pytest.raises(IllegalIssue):
            m.issue(txn(m, bank=2, id=2), 18)

    def test_tfaw_window(self):
        # tRRD shrunk so the four-activates-per-window rule is what binds
        t = timing(tRRD=10)
        m = DramModel(t)
        for i in range(4):
            tx = txn(m, bank=i, id=i)
            at = m.earliest_issue(tx, 0)
            assert at == i * t.tRRD
            m.issue(tx, at)
        fifth = txn(m, bank=4, id=4)
        # the fifth activate may not start before cycle 75 (= 0 + tFAW)
        assert m.earliest_issue(fifth, 30) == 75
        with pytest.raises(IllegalIssue):
            m.issue(fifth, 74)

    def test_tfaw_lower_bound_at_default_trrd(self):
        t = timing()
        m = DramModel(t)
        for i in range(4):
            tx = txn(m, bank=i, id=i)
            m.issue(tx, m.earliest_issue(tx, 0))  # 0, 19, 38, 57
        fifth = txn(m, bank=4, id=4)
        assert m.earliest_issue(fifth, 57) >= 75

    def test_other_rank_not_constrained_by_tfaw(self):
        m = DramModel(timing())
        for i in range(4):
            tx = txn(m, bank=i, id=i)
            m.issue(tx, m.earliest_issue(tx, 0))
        other = txn(m, rank=1, id=9)
        # rank 1 has no activate history; only the shared data bus delays it
        assert m.earliest_issue(other, 57) < 75

    def test_write_to_read_turnaround(self):
        t = timing()
        m = DramModel(t)
        w = txn(m, row=3, kind=WRITE)
        done = m.issue(w, 0)
        r = txn(m, row=3, column=1, id=1)
        # same-bank read must wait tWTR after the write burst completes
        assert m.earliest_issue(r, done) == done + t.tWTR

    def test_channels_are_independent_buses(self):
        m = DramModel(timing())
        a, b = txn(m, channel=0), txn(m, channel=1, id=1)
        m.issue(a, 0)
        assert m.earliest_issue(b, 0) == 0  # no shared-bus conflict

    def test_same_channel_bus_serializes(self):
        m = DramModel(timing())
        m.issue(txn(m, bank=0, row=1), 0)
        nxt = txn(m, bank=0, row=1, column=1, id=1)
        at = m.earliest_issue(nxt, 0)
        done0 = 34 + 36 + 8
        assert m.issue(nxt, at) == done0 + 8  # burst windows abut


# -- channel data bus --------------------------------------------------------

def scanned_earliest(windows, burst, completion):
    """Reference for _ChannelBus.earliest: walk every window from the head
    of the list."""
    start = completion - burst
    for w0, w1 in windows:
        if w0 >= start + burst:
            break
        if w1 > start:
            start = w1
    return start + burst


class TestChannelBus:
    @given(burst=st.integers(1, 16),
           gaps=st.lists(st.integers(0, 40), max_size=12),
           order=st.randoms(use_true_random=False),
           completions=st.lists(st.integers(-20, 700), min_size=1,
                                max_size=10),
           now=st.integers(-5, 700))
    def test_matches_a_scan_from_the_head(self, burst, gaps, order,
                                          completions, now):
        # sorted, disjoint windows of one burst each, granted in any order
        windows, end = [], 0
        for gap in gaps:
            windows.append((end + gap, end + gap + burst))
            end += gap + burst
        bus = _ChannelBus(burst)
        for w in order.sample(windows, len(windows)):
            bus.reserve(w[1])
        for c in completions:
            assert bus.earliest(c) == scanned_earliest(windows, burst, c)
        # after a prune, exact for the spans that start at or after it
        bus.prune(now)
        kept = [w for w in windows if w[1] > now]
        for c in completions:
            if c - burst >= now:
                assert bus.earliest(c) == scanned_earliest(kept, burst, c)


# -- address map -------------------------------------------------------------

class TestAddressMap:
    @given(st.integers(min_value=0, max_value=(1 << 30) - 1))
    def test_bijective(self, addr):
        amap = AddressMap(timing())
        ch, rank, bank, row, col = amap.decode(addr)
        assert amap.encode(ch, rank, bank, row, col, offset=addr & 63) == addr

    def test_same_row_same_bank(self):
        amap = AddressMap(timing())
        a = amap.encode(1, 0, 3, 7, 0)
        b = amap.encode(1, 0, 3, 7, 4)
        assert amap.decode(a)[:4] == amap.decode(b)[:4]

    def test_row_stride(self):
        amap = AddressMap(timing())
        a = 0
        b = 1 << amap._row_shift  # consecutive rows of the same bank
        ca, ra, ba, rowa, _ = amap.decode(a)
        cb, rb, bb, rowb, _ = amap.decode(b)
        assert (ca, ra, ba) == (cb, rb, bb)
        assert rowb == rowa + 1

    def test_64_byte_lines_alternate_channels(self):
        amap = AddressMap(timing())
        assert amap.decode(0)[0] == 0
        assert amap.decode(64)[0] == 1
        assert amap.decode(128)[0] == 0


# -- structural row-buffer properties ----------------------------------------

class TestRowBufferProperties:
    def _run_sequence(self, rows):
        m = DramModel(timing())
        now = 0
        for i, row in enumerate(rows):
            t = txn(m, row=row, column=i % 32, id=i)
            now = m.earliest_issue(t, now)
            now = m.issue(t, now) - m.timing.tBURST  # next may pipeline
        return now + m.timing.tBURST

    def test_hits_never_slower_than_misses(self):
        same_row = self._run_sequence([1] * 16)
        alternating = self._run_sequence([1, 2] * 8)
        assert same_row <= alternating

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=3),
                    min_size=8, max_size=24))
    def test_bandwidth_nondecreasing_in_hit_rate(self, rows):
        # same request count, more locality -> never less bandwidth
        t_mixed = self._run_sequence(rows)
        t_local = self._run_sequence(sorted(rows))
        assert t_local <= t_mixed
