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
from sarasim.core import READ, Transaction
from sarasim.dram import DramModel, DramTimingConfig

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
    ctrl = ControllerState(policy="QOS", queue_of_dma=queue_of,
                           aging_period=T_AGING)
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
            ctrl.apply_aging(now)
        for ch in range(timing.channels):
            txn = ctrl.select(dram, ch, now, frozenset())
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
