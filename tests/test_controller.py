"""Memory-controller scheduling: queue admission, aging, and policy
behavior.  The centerpiece is an oracle-equivalence sweep: 10^4 random
controller states are checked against independent brute-force references
that implement the priority-round-robin and row-buffer-aware policy texts
literally."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sarasim.controller import (NUM_QUEUES, POLICIES, QUEUE_NAMES,
                                ControllerState, group_key)
from sarasim.core import READ, WRITE, Transaction, next_in_turn
from sarasim.dram import NEVER, ROW_HIT, DramModel, DramTimingConfig


def model():
    return DramModel(DramTimingConfig())


def make_controller(policy="QOS", **kw):
    queue_of = {name: i for i, name in enumerate(QUEUE_NAMES)}
    return ControllerState(policy=policy, queue_of_dma=queue_of, **kw)


def make_txn(m, id, queue=0, priority=0, bank=0, row=0, column=0,
             aged=False, created=0):
    addr = m.address_map.encode(0, 0, bank, row, column)
    t = Transaction(id=id, source=QUEUE_NAMES[queue], kind=READ, address=addr,
                    priority=priority, aged=aged, t_created=created)
    m.decode_into(t)
    return t


def select_from(ctrl, ready, dram):
    """The oracle entry to ctrl's select rule: the rule's choice among
    `ready`, a union of the groups that ctrl's `enqueue` built, with each
    group's row class found by classifying its head against `dram`."""
    chosen = {id(t) for t in ready}
    groups = [group for groups in ctrl._groups.values()
              for group in groups.values()
              if any(id(t) in chosen for t in group.txns)]
    assert sorted(id(t) for g in groups for t in g.txns) == sorted(chosen)
    hits = [g for g in groups if dram.classify(g.txns[0]) == ROW_HIT]
    return ctrl.policy.select(ctrl, groups, hits)


# -- admission ---------------------------------------------------------------

class TestEnqueue:
    def test_designated_queue(self):
        m, c = model(), make_controller()
        t = make_txn(m, 1, queue=QUEUE_NAMES.index("dsp"))
        assert c.enqueue(t, 0)
        assert t.queue == QUEUE_NAMES.index("dsp") and t in resident(c)
        assert c.held == [0, 0, 1, 0, 0]

    def test_media_designation(self):
        m, c = model(), make_controller()
        t = make_txn(m, 1, queue=QUEUE_NAMES.index("media"))
        c.enqueue(t, 0)
        assert t.queue == QUEUE_NAMES.index("media") and t in resident(c)
        assert c.held == [0, 0, 0, 1, 0]

    def test_shared_pool_backpressure_at_capacity(self):
        m, c = model(), make_controller()
        for i in range(42):
            assert c.enqueue(make_txn(m, i, queue=i % NUM_QUEUES), 0)
        assert c.occupancy == 42
        assert not c.enqueue(make_txn(m, 99), 0)

    def test_static_split_caps_per_queue(self):
        m, c = model(), make_controller(static_split=True)
        cap = 42 // NUM_QUEUES
        for i in range(cap):
            assert c.enqueue(make_txn(m, i, queue=0), 0)
        assert not c.enqueue(make_txn(m, 99, queue=0), 0)
        assert c.enqueue(make_txn(m, 100, queue=1), 0)


# -- aging -------------------------------------------------------------------

class TestAging:
    def test_waited_t_cycles_is_aged(self):
        m, c = make_controller(policy="QOS"), None
        dram, c = model(), make_controller(policy="QOS")
        t = make_txn(dram, 1, created=0)
        c.enqueue(t, 0)
        c.apply_aging(10000, 10000)
        assert t.aged

    def test_just_under_t_not_aged(self):
        dram, c = model(), make_controller(policy="QOS")
        t = make_txn(dram, 1, created=1)
        c.enqueue(t, 1)
        c.apply_aging(10000, 10000)  # waited 9999
        assert not t.aged

    def test_aged_low_priority_beats_fresh_high(self):
        dram, c = model(), make_controller(policy="QOS")
        old = make_txn(dram, 1, queue=0, priority=0, bank=0, aged=True)
        new = make_txn(dram, 2, queue=1, priority=7, bank=1)
        c.enqueue(old, 0)
        c.enqueue(new, 0)
        assert c.select(dram, 0, 0) is old

    def test_aged_alike_whatever_their_priority(self):
        dram, c = model(), make_controller(policy="QOS")
        for qi, priority in enumerate((7, 0, 7)):
            c.enqueue(make_txn(dram, qi, queue=qi, priority=priority,
                               bank=qi, aged=True), 0)
        served = [c.select(dram, 0, now).queue for now in (0, 1, 2)]
        assert served == [1, 2, 0]  # queue turn from rr_pointer 0


# -- brute-force policy references -------------------------------------------

def arrival_order(txns):
    return sorted(txns, key=lambda t: (t.t_enqueued, t.seq))


def resident(ctrl):
    """Every transaction the controller holds, group by group."""
    return [t for groups in ctrl._groups.values()
            for group in groups.values() for t in group.txns]


def reference_policy1(ctrl, ready):
    """Priority round-robin, written straight from the rule text:
    aged transactions outrank everything; otherwise only the highest
    priority competes; the five queues are served round-robin starting
    after the current pointer, oldest-first within a queue."""
    aged = [t for t in ready if t.aged]
    pool = aged if aged else [
        t for t in ready
        if t.priority == max(x.priority for x in ready)]
    for step in range(1, NUM_QUEUES + 1):
        qi = (ctrl.rr_pointer + step) % NUM_QUEUES
        in_queue = [t for t in pool if t.queue == qi]
        if in_queue:
            return arrival_order(in_queue)[0]
    raise AssertionError("pool cannot be empty")


def reference_policy2(ctrl, dram, ready):
    """Row-buffer-aware extension: while nobody aged is waiting and either
    all priorities tie or every priority is below delta, serve the oldest
    ready row-hit; otherwise fall back to priority round-robin."""
    if not any(t.aged for t in ready):
        prios = {t.priority for t in ready}
        if len(prios) == 1 or max(prios) < ctrl.delta:
            hits = [t for t in ready if dram.classify(t) == ROW_HIT]
            if hits:
                return arrival_order(hits)[0]
    return reference_policy1(ctrl, ready)


def random_state(rng, policy):
    """A controller holding 1 to 8 ready transactions in at most 12 groups
    (half of the states have a group of several), enqueued in ascending
    order of their drawn cycles, ties in draw order."""
    dram = DramModel(DramTimingConfig())
    ctrl = make_controller(policy=policy, delta=int(rng.integers(1, 8)))
    ctrl.rr_pointer = int(rng.integers(NUM_QUEUES))
    # open a random subset of rows so classify() varies
    for bank in range(4):
        if rng.random() < 0.7:
            dram.banks[0][0][bank].open_row = int(rng.integers(3))
    n = int(rng.integers(1, 9))  # at most 8 ready transactions
    drawn = []
    for i in range(n):
        t = make_txn(dram, id=i,
                     queue=int(rng.integers(NUM_QUEUES)),
                     priority=int(rng.integers(8)),
                     bank=int(rng.integers(4)),
                     row=int(rng.integers(3)),
                     aged=bool(rng.random() < 0.15),
                     created=int(rng.integers(100)))
        drawn.append((int(rng.integers(100, 200)), t))
    drawn.sort(key=lambda pair: pair[0])
    for at, t in drawn:
        ctrl.enqueue(t, at)
    return dram, ctrl, [t for _, t in drawn]


class TestOracleEquivalence:
    def test_policy1_matches_reference_10k_states(self):
        rng = np.random.default_rng(1234)
        for _ in range(10_000):
            dram, ctrl, ready = random_state(rng, "QOS")
            expect = reference_policy1(ctrl, ready)
            got = select_from(ctrl, ready, dram)
            assert got is expect

    def test_policy2_matches_reference_10k_states(self):
        rng = np.random.default_rng(5678)
        for _ in range(10_000):
            dram, ctrl, ready = random_state(rng, "QOS_RB")
            expect = reference_policy2(ctrl, dram, ready)
            got = select_from(ctrl, ready, dram)
            assert got is expect


# -- the transaction-list select rules that the group rules replaced ---------

def oldest(txns):
    return min(txns, key=lambda t: (t.t_enqueued, t.seq))


def list_round_robin(ctrl, ready):
    oldest_of = {}
    for t in ready:
        prev = oldest_of.get(t.queue)
        if prev is None or (t.t_enqueued, t.seq) < (prev.t_enqueued, prev.seq):
            oldest_of[t.queue] = t
    ctrl.rr_pointer = next_in_turn(sorted(oldest_of), ctrl.rr_pointer)
    return oldest_of[ctrl.rr_pointer]


def list_priority_round_robin(ctrl, ready):
    aged = [t for t in ready if t.aged]
    if aged:
        return list_round_robin(ctrl, aged)
    top = max(t.priority for t in ready)
    return list_round_robin(ctrl, [t for t in ready if t.priority == top])


def list_row_buffer_aware(ctrl, ready, hits):
    if hits and not any(t.aged for t in ready):
        prios = {t.priority for t in ready}
        if len(prios) == 1 or max(prios) < ctrl.delta:
            return oldest(hits)
    return list_priority_round_robin(ctrl, ready)


LIST_RULES = {  # policy -> rule(ctrl, ready, hits)
    "FCFS": lambda c, ready, hits: oldest(ready),
    "RR": lambda c, ready, hits: list_round_robin(c, ready),
    "FRAME_QOS": lambda c, ready, hits: oldest(
        [t for t in ready if t.source in c.boosted] or ready),
    "QOS": lambda c, ready, hits: list_priority_round_robin(c, ready),
    "QOS_RB": lambda c, ready, hits: list_row_buffer_aware(c, ready, hits),
    "FR_FCFS": lambda c, ready, hits: oldest(hits or ready),
}

ENQUEUE = st.tuples(st.just("enqueue"), st.integers(0, 2),  # bank
                    st.integers(0, 2), st.integers(0, NUM_QUEUES - 1),
                    st.integers(0, 7), st.booleans(),  # priority, aged
                    st.integers(0, 5))  # cycles to wait, then enqueue
SELECT = st.tuples(st.just("select"), st.integers(0, 60))  # cycles to wait


class TestGroupRules:
    """Each group stays in arrival order under enqueues and selects at
    nondecreasing cycles, and every select rule, reading the ready groups,
    chooses what the transaction-list rule chooses on the same ready
    transactions."""

    @pytest.mark.parametrize("policy", POLICIES)
    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(st.one_of(ENQUEUE, SELECT), min_size=1, max_size=50),
           pointer=st.integers(0, NUM_QUEUES - 1))
    def test_groups_in_arrival_order_and_list_rule_choice(self, policy, ops,
                                                          pointer):
        dram, ctrl = model(), make_controller(policy=policy, delta=4)
        ctrl.rr_pointer = pointer
        ctrl.boosted = frozenset({"media", "gpu"})
        now = 100
        for i, op in enumerate(ops):
            if op[0] == "enqueue":
                _, bank, row, queue, priority, aged, wait = op
                now += wait
                ctrl.enqueue(make_txn(dram, i, queue, priority, bank, row,
                                      aged=aged), now)
            else:
                now += op[1]
                held = resident(ctrl)
                ready = [t for t in held if dram.earliest_issue(t, now) == now]
                hits = [t for t in ready if dram.classify(t) == ROW_HIT]
                rr = ctrl.rr_pointer
                expect = (LIST_RULES[policy](ctrl, ready, hits)
                          if ready else None)
                rr, ctrl.rr_pointer = ctrl.rr_pointer, rr
                got = ctrl.select(dram, 0, now)
                assert got is expect and ctrl.rr_pointer == rr
                if got is not None:
                    dram.issue(got, now)
            for groups in ctrl._groups.values():
                for group in groups.values():
                    arrival = [(t.t_enqueued, t.seq) for t in group.txns]
                    assert arrival == sorted(arrival)


# -- pairwise policy-text examples -------------------------------------------

class TestPolicyExamples:
    def test_qos_higher_priority_wins(self):
        dram, c = model(), make_controller(policy="QOS")
        a = make_txn(dram, 1, queue=0, priority=3, bank=0)
        b = make_txn(dram, 2, queue=1, priority=1, bank=1)
        c.enqueue(a, 0)
        c.enqueue(b, 0)
        assert c.select(dram, 0, 0) is a

    def test_qos_equal_priority_alternates(self):
        dram, c = model(), make_controller(policy="QOS")
        first = second = None
        a = make_txn(dram, 1, queue=0, priority=4, bank=0)
        b = make_txn(dram, 2, queue=1, priority=4, bank=1)
        c.enqueue(a, 0)
        c.enqueue(b, 0)
        first = c.select(dram, 0, 0)
        # refill the drained side with an identical competitor
        c.enqueue(make_txn(dram, 3, queue=first.queue, priority=4,
                           bank=first.bank), 1)
        second = c.select(dram, 0, 200)
        assert {first.queue, second.queue} == {0, 1}

    def _rb_state(self, pa, pb, delta=6):
        dram, c = model(), make_controller(policy="QOS_RB", delta=delta)
        a = make_txn(dram, 1, queue=0, priority=pa, bank=0, row=0)
        b = make_txn(dram, 2, queue=1, priority=pb, bank=0, row=1)
        dram.banks[0][0][0].open_row = 0  # A is the row-hit, B the miss
        c.enqueue(a, 0)
        c.enqueue(b, 1)
        return dram, c, a, b

    def test_rb_prefers_hit_below_delta(self):
        dram, c, a, b = self._rb_state(pa=2, pb=5)
        assert select_from(c, [a, b], dram) is a

    def test_rb_urgent_miss_wins(self):
        dram, c, a, b = self._rb_state(pa=2, pb=7)
        assert select_from(c, [a, b], dram) is b

    def test_rb_equal_top_priorities_prefer_hit(self):
        dram, c, a, b = self._rb_state(pa=7, pb=7)
        assert select_from(c, [a, b], dram) is a

    def test_fr_fcfs_always_picks_a_ready_hit(self):
        dram, c = model(), make_controller(policy="FR_FCFS")
        hit = make_txn(dram, 1, queue=0, bank=0, row=0, created=50)
        miss = make_txn(dram, 2, queue=1, bank=0, row=1, created=0)
        dram.banks[0][0][0].open_row = 0
        c.enqueue(miss, 55)
        c.enqueue(hit, 60)
        assert select_from(c, [hit, miss], dram) is hit

    def test_fcfs_is_globally_oldest(self):
        dram, c = model(), make_controller(policy="FCFS")
        a = make_txn(dram, 1, queue=0, bank=0)
        b = make_txn(dram, 2, queue=1, bank=1)
        c.enqueue(b, 0)
        c.enqueue(a, 5)
        assert c.select(dram, 0, 10) is b

    def test_frame_qos_boosts_unhealthy_media(self):
        dram, c = model(), make_controller(policy="FRAME_QOS")
        other = make_txn(dram, 1, queue=0, bank=0, created=0)
        media = make_txn(dram, 2, queue=QUEUE_NAMES.index("media"),
                         bank=1, created=50)
        c.enqueue(other, 0)
        c.enqueue(media, 1)
        c.boosted = frozenset({"media"})
        assert c.select(dram, 0, 60) is media


# -- structural properties over random states --------------------------------

class TestPolicyProperties:
    def test_rb_dominance_below_delta(self):
        # whenever every priority is below delta, the choice is a row-hit
        # if any ready row-hit exists
        rng = np.random.default_rng(9)
        checked = 0
        for _ in range(4000):
            dram, ctrl, ready = random_state(rng, "QOS_RB")
            if any(t.aged for t in ready):
                continue
            if max(t.priority for t in ready) >= ctrl.delta:
                continue
            hits = [t for t in ready if dram.classify(t) == ROW_HIT]
            if not hits:
                continue
            got = select_from(ctrl, ready, dram)
            assert dram.classify(got) == ROW_HIT
            checked += 1
        assert checked > 200

    def test_rb_preserves_qos_choice_when_urgent(self):
        # priorities unequal with someone at or above delta: Policy 2 must
        # choose exactly what Policy 1 chooses on the same state
        rng = np.random.default_rng(10)
        checked = 0
        for _ in range(4000):
            dram, ctrl, ready = random_state(rng, "QOS_RB")
            prios = {t.priority for t in ready}
            if len(prios) == 1 or max(prios) < ctrl.delta:
                continue
            twin = make_controller(policy="QOS")
            twin.rr_pointer = ctrl.rr_pointer  # before select advances it
            expect = reference_policy1(twin, ready)
            got = select_from(ctrl, ready, dram)
            assert got is expect
            checked += 1
        assert checked > 200

    def test_fr_fcfs_maximality(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(2000):
            dram, ctrl, ready = random_state(rng, "FR_FCFS")
            hits = [t for t in ready if dram.classify(t) == ROW_HIT]
            if not hits:
                continue
            got = select_from(ctrl, ready, dram)
            assert dram.classify(got) == ROW_HIT
            checked += 1
        assert checked > 200

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_controller(policy="LIFO")


# -- cached ready set against a brute-force scan -----------------------------

def random_txn(rng, dram, id, now):
    t = dram.timing
    addr = dram.address_map.encode(
        channel=int(rng.integers(t.channels)), rank=int(rng.integers(t.ranks)),
        bank=int(rng.integers(t.banks)), row=int(rng.integers(3)),
        column=int(rng.integers(1 << t.column_bits)))
    txn = Transaction(id=id, source=QUEUE_NAMES[int(rng.integers(NUM_QUEUES))],
                      kind=READ if rng.random() < 0.7 else WRITE, address=addr,
                      priority=int(rng.integers(8)), t_created=now)
    dram.decode_into(txn)
    return txn


def group_of(ctrl, txn):
    """The group whose cached values hold for the held `txn`."""
    return ctrl._groups[txn.channel][group_key(txn)]


class TestCachedReadySet:
    """select caches one earliest_issue result per group of held
    transactions; before every select the ready set and horizon are
    recomputed from scratch by calling earliest_issue on every held
    transaction of the channel, and select's choice, its next_try and the
    cached values read through each transaction's group must match."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_select_matches_brute_force_scan(self, policy):
        rng = np.random.default_rng(zlib.crc32(policy.encode()))
        dram = DramModel(DramTimingConfig())
        ctrl = make_controller(policy=policy, delta=int(rng.integers(1, 8)))
        ctrl.boosted = frozenset({"media"} if policy == "FRAME_QOS" else ())
        next_id, now, issued = 0, 0, 0
        while now < 12_000:
            for _ in range(int(rng.integers(0, 3))):
                ctrl.enqueue(random_txn(rng, dram, next_id, now), now)
                next_id += 1
            if rng.random() < 0.01:
                ctrl.apply_aging(now + int(rng.integers(10_000)), 10_000)
            for ch in range(dram.timing.channels):
                held = [t for t in resident(ctrl) if t.channel == ch]
                at = {t.id: dram.earliest_issue(t, now) for t in held}
                ready = [t for t in held if at[t.id] == now]
                horizon = min(at.values(), default=NEVER)
                scans = now >= ctrl.next_try.get(ch, 0)
                rr = ctrl.rr_pointer
                expect = select_from(ctrl, ready, dram) if ready else None
                ctrl.rr_pointer = rr
                got = ctrl.select(dram, ch, now)
                if not scans:
                    # skipped: nothing can be ready before next_try
                    assert not ready and ctrl.next_try[ch] == horizon
                    continue
                assert got is expect
                assert ctrl.next_try[ch] == (0 if ready else horizon)
                for t in held:
                    if t is not got:
                        assert group_of(ctrl, t).issue_at == at[t.id]
                        assert group_of(ctrl, t).hit == (
                            dram.classify(t) == ROW_HIT)
                if got is not None and rng.random() < 0.98:
                    dram.issue(got, now)
                    issued += 1
            if rng.random() < 0.05:
                # sequences issued behind the controller's back
                for _ in range(int(rng.integers(1, 3))):
                    txn = random_txn(rng, dram, next_id, now)
                    next_id += 1
                    if dram.earliest_issue(txn, now) == now:
                        dram.issue(txn, now)
            now += 1 if rng.random() < 0.9 else int(rng.integers(2, 60))
        assert issued > 1000

    def test_same_key_enqueued_later_reads_the_group_value(self):
        dram, c = model(), make_controller(policy="FCFS")
        dram.issue(make_txn(dram, 1, bank=0, row=0), 0)
        a = make_txn(dram, 2, bank=0, row=1)
        b = make_txn(dram, 3, bank=0, row=1)  # same rank, bank, row, kind
        c.enqueue(a, 1)
        assert c.select(dram, 0, 1) is None  # caches the row miss
        c.enqueue(b, 5)  # joins a's group, whose cached miss holds for b
        for now in (5, 47):
            assert c.select(dram, 0, now) is None
            for t in (a, b):
                assert group_of(c, t).issue_at == dram.earliest_issue(t, now)
                assert group_of(c, t).hit == (dram.classify(t) == ROW_HIT)
        at = group_of(c, b).issue_at
        assert c.select(dram, 0, at) is a
        assert group_of(c, b).issue_at == dram.earliest_issue(b, at) == at

    def test_only_a_new_group_resets_next_try(self):
        dram, c = model(), make_controller(policy="FCFS")
        dram.issue(make_txn(dram, 1, bank=0, row=0), 0)
        c.enqueue(make_txn(dram, 2, bank=0, row=1), 1)
        assert c.select(dram, 0, 1) is None
        wait = c.next_try[0]
        assert wait > 1
        c.enqueue(make_txn(dram, 3, bank=0, row=1), 2)  # joins the group
        assert c.next_try[0] == wait
        c.enqueue(make_txn(dram, 4, bank=1), 3)  # opens a group
        assert c.next_try[0] == 0
