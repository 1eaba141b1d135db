"""Arbiter-tree behavior: grant rules per mode, hop latency, backpressure,
and the fabric-level fairness/ordering properties."""

import numpy as np
import pytest

from sarasim.config import load_packaged_scenario
from sarasim.controller import ControllerState, QUEUE_NAMES
from sarasim.core import PRIORITY_LEVELS, READ, Transaction, next_in_turn
from sarasim.dram import DramModel, DramTimingConfig
from sarasim.engine import World
from sarasim.noc import (FCFS, MODES, PRIORITY, ROUND_ROBIN, ArbiterNode,
                         NocFabric)


def keep(ports, eligible, mode: str) -> list:
    """The oracle of an arbiter's rebuild: the ports that may win among
    `eligible`, the ascending indices of the `ports` whose head may be
    granted.

    FCFS keeps the oldest head (lowest index on a tie), PRIORITY the ports
    whose head ranks highest and RR them all.  An aged head ranks above
    every priority level and all aged heads rank alike; an unaged head
    ranks by its priority level.
    """
    if not eligible or mode == ROUND_ROBIN:
        return eligible
    if mode == FCFS:
        return [min(eligible, key=lambda i: ports[i][0].t_created)]
    kept, best = [], -1
    for i in eligible:
        head = ports[i][0]
        rank = PRIORITY_LEVELS if head.aged else head.priority
        if rank > best:
            kept, best = [i], rank
        elif rank == best:
            kept.append(i)
    return kept


def make_txn(id, priority=0, created=0, channel=0, aged=False, source="a"):
    t = Transaction(id=id, source=source, kind=READ, address=0,
                    priority=priority, aged=aged, t_created=created)
    t.channel = channel
    return t


class TestArbiterNode:
    def test_highest_priority_head_wins(self):
        node = ArbiterNode("n", 3)
        for port, prio in enumerate((2, 5, 3)):
            node.offer(port, make_txn(port, priority=prio), 0)
        assert node.arbitrate(1) == 1

    def test_tie_round_robin_alternates(self):
        node = ArbiterNode("n", 2)
        node.offer(0, make_txn(1, priority=4), 0)
        node.offer(1, make_txn(2, priority=4), 0)
        first = node.arbitrate(1)
        assert first == 1  # pointer starts at 0, next in turn is port 1
        node.grant(first)
        node.offer(1, make_txn(3, priority=4), 1)
        assert node.arbitrate(2) == 0

    def test_empty_node_no_grant(self):
        node = ArbiterNode("n", 2)
        assert node.arbitrate(5) is None

    def test_aged_flag_outranks_priority(self):
        node = ArbiterNode("n", 2)
        node.offer(0, make_txn(1, priority=0, aged=True), 0)
        node.offer(1, make_txn(2, priority=7), 0)
        assert node.arbitrate(1) == 0

    def test_aged_heads_alike_whatever_their_priority(self):
        node = ArbiterNode("n", 2)
        node.offer(0, make_txn(1, priority=7, aged=True), 0)
        node.offer(1, make_txn(2, priority=0, aged=True), 0)
        node.offer(1, make_txn(3, priority=0, aged=True), 0)
        grants = []
        for now in (1, 2, 3):
            port = node.arbitrate(now)
            grants.append(port)
            node.grant(port)
        assert grants == [1, 0, 1]  # round-robin turn from rr_pointer 0

    def test_fcfs_mode_grants_oldest(self):
        node = ArbiterNode("n", 2, mode=FCFS)
        node.offer(0, make_txn(1, priority=7, created=50), 0)
        node.offer(1, make_txn(2, priority=0, created=10), 0)
        assert node.arbitrate(1) == 1

    def test_rr_mode_ignores_priority(self):
        node = ArbiterNode("n", 2, mode=ROUND_ROBIN)
        node.offer(0, make_txn(1, priority=7), 0)
        node.offer(1, make_txn(2, priority=0), 0)
        grants = []
        for now in (1, 2):
            port = node.arbitrate(now)
            grants.append(port)
            node.grant(port)
        assert sorted(grants) == [0, 1]

    def test_same_cycle_offer_not_eligible(self):
        node = ArbiterNode("n", 1)
        node.offer(0, make_txn(1), 5)
        assert node.arbitrate(5) is None  # one-cycle hop latency
        assert node.arbitrate(6) == 0

    def test_bounded_depth_backpressures(self):
        node = ArbiterNode("n", 1, depth=2)
        assert node.offer(0, make_txn(1), 0)
        assert node.offer(0, make_txn(2), 0)
        assert not node.offer(0, make_txn(3), 0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ArbiterNode("n", 1, mode="lottery")


def modular_loop_rule(ports, eligible, rr_pointer, mode):
    """The arbitration rule as a loop over the ports in turn after
    `rr_pointer`, among the highest-ranked `eligible` ones (aged heads
    alike, above every priority level): (winner, new rr_pointer)."""
    if mode == FCFS:
        return min(eligible, key=lambda i: (ports[i][0].t_created, i)), \
            rr_pointer

    def rank(i):
        head = ports[i][0]
        return (1, 0) if head.aged else (0, head.priority)
    if mode == PRIORITY:
        best = max(rank(i) for i in eligible)
        eligible = [i for i in eligible if rank(i) == best]
    n = len(ports)
    for step in range(1, n + 1):
        i = (rr_pointer + step) % n
        if i in eligible:
            return i, i
    raise AssertionError("eligible cannot be empty")


def pick(ports, eligible, rr_pointer, mode):
    """The winner that ArbiterNode.arbitrate and each root take: of the
    ports keep keeps, the first in turn after rr_pointer."""
    return next_in_turn(keep(ports, eligible, mode), rr_pointer)


class TestPick:
    """keep then next_in_turn, and ArbiterNode.arbitrate with the ports its
    one-pass rebuild keeps, against the modular-loop rule, for a cluster
    node (channel None) and a root bound for channel 1."""

    @pytest.mark.parametrize("mode", MODES)
    def test_matches_modular_loop_rule(self, mode):
        for channel in (None, 1):
            rng = np.random.default_rng(MODES.index(mode))
            for _ in range(5_000):
                self.check_one(rng, mode, channel)

    @staticmethod
    def check_one(rng, mode, channel):
        n = int(rng.integers(1, 9))
        node = ArbiterNode("n", n, mode=mode, channel=channel)
        node.rr_pointer = int(rng.integers(n))
        for port in range(n):
            if rng.random() < 0.7:
                node.offer(port, make_txn(
                    port, priority=int(rng.integers(3)) * 3,
                    created=int(rng.integers(4)),
                    channel=int(rng.integers(2)),
                    aged=rng.random() < 0.15), int(rng.integers(2)))
        eligible = [i for i, q in enumerate(node.ports)
                    if q and q[0].t_hop < 2
                    and channel in (None, q[0].channel)]
        if not eligible:
            assert node.arbitrate(2) is None and node.kept == []
            return
        expect = modular_loop_rule(node.ports, eligible, node.rr_pointer,
                                   mode)
        assert pick(node.ports, eligible, node.rr_pointer, mode) == expect[0]
        assert (node.arbitrate(2), node.rr_pointer) == expect
        assert node.kept == keep(node.ports, eligible, mode)


# -- fabric ------------------------------------------------------------------

def make_fabric(mode=PRIORITY, depth=8):
    route = {"a": "media", "b": "media", "c": "direct"}
    return NocFabric(route, dict.fromkeys(route, depth), depth, channels=1,
                     mode=mode)


def resident(ctrl):
    """Every transaction the controller holds, group by group."""
    return [t for groups in ctrl._groups.values()
            for group in groups.values() for t in group.txns]


def make_sink():
    dram = DramModel(DramTimingConfig(channels=1))
    queue_of = {"a": 3, "b": 3, "c": 4}
    return ControllerState(queue_of_dma=queue_of)


class TestFabric:
    def test_two_hop_minimum_latency(self):
        fab, ctrl = make_fabric(), make_sink()
        t = make_txn(1, created=0)
        fab.offer("a", t, 0)
        for now in range(0, 5):
            fab.step(now, ctrl)
            if ctrl.occupancy:
                break
        # leaf -> cluster output -> controller: two queue hops minimum
        assert t.t_enqueued >= t.t_created + 2

    def test_direct_port_single_hop(self):
        fab, ctrl = make_fabric(), make_sink()
        t = make_txn(1, created=0)
        fab.offer("c", t, 0)
        fab.step(1, ctrl)
        assert t.t_enqueued == 1

    def test_leaf_backpressure_reports_space(self):
        fab = make_fabric(depth=2)
        assert fab.leaf_space("a") == 2
        fab.offer("a", make_txn(1), 0)
        fab.offer("a", make_txn(2), 0)
        assert fab.leaf_space("a") == 0
        assert not fab.offer("a", make_txn(3), 0)

    def test_full_controller_stalls_head_without_loss(self):
        fab, ctrl = make_fabric(), make_sink()
        ctrl.capacity = 0  # everything backpressured
        t = make_txn(1)
        fab.offer("c", t, 0)
        for now in range(1, 5):
            fab.step(now, ctrl)
        assert ctrl.occupancy == 0
        assert fab.resident_count() == 1  # still waiting at its head

    def test_cluster_wakes_for_a_head_that_entered_at_a_failed_arbitration(
            self):
        fab, ctrl = make_fabric(), make_sink()
        first, second = make_txn(1), make_txn(2)
        fab.offer("a", first, 0)
        fab.step(0, ctrl)  # before the cluster's wake cycle
        fab.step(1, ctrl)  # grants `first`, which empties the leaf
        fab.offer("a", second, 2)  # into the emptied leaf
        fab.step(2, ctrl)  # `second` entered this cycle: nothing eligible
        assert list(fab.leaf["a"]) == [second]
        fab.step(3, ctrl)
        assert list(fab.cluster_out[0]) == [second]

    def test_work_conservation(self):
        fab, ctrl = make_fabric(), make_sink()
        fab.offer("c", make_txn(1), 0)
        fab.step(1, ctrl)
        assert ctrl.occupancy == 1

    def test_per_source_fifo_order(self):
        fab, ctrl = make_fabric(), make_sink()
        order = []
        ids = list(range(6))
        for i in ids:
            fab.offer("a", make_txn(i, priority=i % 3, created=i), 0)
        seen = set()
        for now in range(1, 40):
            fab.step(now, ctrl)
            for txn in resident(ctrl):
                if txn.id not in seen:
                    seen.add(txn.id)
                    order.append(txn.id)
        assert order == ids  # priority never reorders one DMA's stream

    def test_priority_dominance_between_sources(self):
        fab, ctrl = make_fabric(), make_sink()
        rng = np.random.default_rng(3)
        granted = {"a": 0, "b": 0}
        for now in range(1, 300):
            for dma, prio in (("a", 6), ("b", 1)):
                if fab.leaf_space(dma):
                    fab.offer(dma, make_txn(int(rng.integers(1 << 40)),
                                            priority=prio, created=now,
                                            source=dma), now)
            before = {t.id: t.source for t in resident(ctrl)}
            fab.step(now, ctrl)
            for t in resident(ctrl):
                if t.id not in before:
                    granted[t.source] += 1
            ctrl = make_sink()  # drain
        assert granted["a"] > granted["b"]

    def test_drained_names_each_leaf_that_lost_a_head(self):
        fab, ctrl = make_fabric(), make_sink()
        fab.offer("a", make_txn(1, source="a"), 0)
        fab.offer("c", make_txn(2, source="c"), 0)
        fab.step(1, ctrl)  # cluster grant of a, root grant of direct c
        assert sorted(fab.drained) == ["a", "c"]
        fab.drained.clear()
        fab.step(2, ctrl)  # a's txn leaves the cluster output: no leaf
        assert fab.drained == []
        ctrl.capacity = 0
        fab.offer("c", make_txn(3, source="c"), 2)
        fab.step(3, ctrl)  # refused by the full controller
        assert fab.drained == []

    def test_aging_marks_resident_transactions(self):
        fab = make_fabric()
        t = make_txn(1, created=0)
        fab.offer("a", t, 0)
        fab.age_resident(10000, 10000)
        assert t.aged

    def test_per_dma_leaf_depth_override(self):
        # World resolves the defaults: a queue_depth of 0 and an unset
        # cluster_depth mean the [noc] depth
        cfg = load_packaged_scenario("B")
        cfg.noc_depth, cfg.noc_cluster_depth = 4, None
        dma = {e.dma_id: e for e in cfg.dmas}
        dma["improc"].queue_depth, dma["codec"].queue_depth = 16, 0
        fab = World(cfg).noc
        assert fab.leaf_space("improc") == 16
        assert fab.leaf_space("codec") == 4
        assert fab.cluster_depth == 4
