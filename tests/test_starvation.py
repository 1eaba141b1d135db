"""Worst-case wait bound under adversarial load.

With aging period T, a request that arrives right after an aging pass is
guaranteed aged status within 2T cycles; from then on at most the whole
42-entry controller (victim included) stands between it and service, and no
single access costs more than a 112-cycle row-miss.  Hence the hard bound

    max wait <= 2*T + 42 * 112 = 24704   for T = 10000.
"""

import numpy as np
import pytest

from sarasim.controller import QUEUE_NAMES, ControllerState
from sarasim.core import READ, Transaction, age_queues
from sarasim.dram import DramModel, DramTimingConfig
from sarasim.noc import ArbiterNode

T_AGING = 10_000
WORST_ACCESS = 34 + 34 + 36 + 8  # row-miss: tRP + tRCD + CL + tBURST = 112
BOUND = 2 * T_AGING + 42 * WORST_ACCESS  # 24704


def run_flood(cycles=300_000, victim_gap=25_000, seed=42):
    """Priority-7 flood from four aggressor queues versus one priority-0
    victim stream; returns the worst victim wait seen."""
    rng = np.random.default_rng(seed)
    timing = DramTimingConfig()
    dram = DramModel(timing)
    queue_of = {name: i for i, name in enumerate(QUEUE_NAMES)}
    ctrl = ControllerState(policy="QOS", queue_of_dma=queue_of)
    next_id = 0
    victims = {}  # id -> t_created
    worst = 0

    def make(source, priority, now):
        nonlocal next_id
        addr = dram.address_map.encode(
            channel=int(rng.integers(timing.channels)),
            rank=int(rng.integers(timing.ranks)),
            bank=int(rng.integers(timing.banks)),
            row=int(rng.integers(8)),
            column=int(rng.integers(1 << timing.column_bits)))
        txn = Transaction(id=next_id, source=source, kind=READ, address=addr,
                          priority=priority, t_created=now)
        dram.decode_into(txn)
        next_id += 1
        return txn

    aggressors = [q for q in QUEUE_NAMES if q != "dsp"]
    for now in range(cycles):
        # victim: one priority-0 request, long after the last aging pass
        if now % victim_gap == 1:
            v = make("dsp", 0, now)
            if ctrl.enqueue(v, now):
                victims[v.id] = now
        # aggressors keep the shared pool saturated at priority 7
        while ctrl.occupancy < ctrl.capacity - 1:
            q = aggressors[int(rng.integers(len(aggressors)))]
            if not ctrl.enqueue(make(q, 7, now), now):
                break
        if now and now % T_AGING == 0:
            ctrl.apply_aging(now, T_AGING)
        for ch in range(timing.channels):
            txn = ctrl.select(dram, ch, now)
            if txn is None:
                continue
            dram.issue(txn, now)
            if txn.id in victims:
                worst = max(worst, now + WORST_ACCESS - victims.pop(txn.id))
    assert not victims, f"victims never served: {sorted(victims.values())}"
    return worst


@pytest.fixture(scope="module")
def worst():
    """The worst victim wait of one default flood, shared by both tests."""
    return run_flood()


def test_flood_cannot_starve_a_low_priority_dma(worst):
    assert worst <= BOUND, f"worst victim wait {worst} exceeds {BOUND}"


def test_bound_is_exercised_not_vacuous(worst):
    # the flood really does delay the victim far beyond a few accesses;
    # it is only the scheduler (timing stalls plus aging) that frees it
    assert worst > 4 * WORST_ACCESS


class TestNocArbiter:
    """The same argument at one NoC arbiter with N ports that grants once
    every G cycles, aged every T cycles.  A head that arrives right after
    an aging pass is aged within 2T cycles.  Aged heads rank alike, above
    every priority level, so from then on round-robin puts at most the
    other N - 1 ports' heads before it, one per grant, and it is granted
    within N grants:

        wait <= 2*T + N*G = 900   for T = 250, N = 4, G = 100.
    """

    T_AGING, PORTS, GRANT_GAP = 250, 4, 100
    BOUND = 2 * T_AGING + PORTS * GRANT_GAP  # 900

    def victim_wait(self, cycles=20_000):
        """Ports 1-3 refilled with priority-7 heads on every cycle versus
        one priority-0 victim on port 0, created at cycle 1; the victim's
        wait, or None if it is never granted."""
        node = ArbiterNode("flooded", self.PORTS, depth=8)
        victim = Transaction(id=0, source="victim", kind=READ, address=0,
                             priority=0, t_created=1)
        next_id = 1
        for now in range(cycles):
            if now == 1:
                node.offer(0, victim, now)
            for port in range(1, self.PORTS):
                while node.offer(port, Transaction(
                        id=next_id, source=f"flood{port}", kind=READ,
                        address=0, priority=7, t_created=now), now):
                    next_id += 1
            if now and now % self.T_AGING == 0:  # as NocFabric.age_resident
                age_queues(node.ports, now, self.T_AGING)
                node.stale_from = max(node.stale_from, now)
            if now % self.GRANT_GAP == 0:
                port = node.arbitrate(now)
                if port is not None and node.grant(port) is victim:
                    return now - victim.t_created
        return None

    def test_flood_cannot_starve_a_low_priority_head(self):
        wait = self.victim_wait()
        assert wait is not None, "victim never granted"
        # the flood holds the victim until it is aged, and no longer
        assert self.T_AGING < wait <= self.BOUND
