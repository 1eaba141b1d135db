"""The benchmark's workloads: each turns a seed into one ScenarioConfig.

Every workload starts from a packaged camcorder scenario and changes only
the policy, the DRAM frequency, the DMA set or the frame count, so a run
exercises the simulator exactly as a user's policy comparison or frequency
sweep would. The seed replaces the scenario's own seed (7) and with it every
per-DMA random stream.
"""

from __future__ import annotations

import dataclasses

from sarasim.config import (ScenarioConfig, load_packaged_scenario,
                            with_frequency, with_policy)
from sarasim.traffic import BANDWIDTH_STREAM


def a_full_qosrb() -> ScenarioConfig:
    # 14 DMAs at 1866 MHz keep the 42-entry controller pool full, so
    # controller.select and DramModel.earliest_issue dominate host time;
    # QOS_RB also takes the row-hit-preference path.
    return with_policy(load_packaged_scenario("A"), "QOS_RB")


def b_realtime_qos() -> ScenarioConfig:
    # Only real-time media, display and latency-probe traffic: the two
    # elastic streams are removed, the pool stays nearly empty and most
    # cycles change nothing, so per-cycle engine overhead dominates. Two
    # frames keep one simulation near the length of the other workloads'.
    base = with_policy(load_packaged_scenario("B"), "QOS")
    return dataclasses.replace(
        base, duration_frames=2,
        dmas=[e for e in base.dmas if e.kind != BANDWIDTH_STREAM])


def sweep_1500_qos() -> ScenarioConfig:
    # The paper's priority-escalation experiment: at 1500 MHz the 6000 MB/s
    # improc stream falls behind, so LUT escalation, priority arbitration in
    # the NoC and aging all fire, without row-hit preference.
    return with_frequency(
        with_policy(load_packaged_scenario("sweep"), "QOS"), 1500.0)


WORKLOADS = {
    "a_full_qosrb": a_full_qosrb,
    "b_realtime_qos": b_realtime_qos,
    "sweep_1500_qos": sweep_1500_qos,
}


def build(name: str, seed: int) -> ScenarioConfig:
    """The validated scenario of workload `name` under `seed`."""
    cfg = WORKLOADS[name]()
    cfg.seed = seed
    cfg.validate()
    return cfg
