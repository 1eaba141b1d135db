"""Acceptance gate: the ten behavioral guarantees the package ships with.

Each test states one externally checkable claim about the camcorder
scenarios or the scheduling machinery.  Expensive full-frame simulations are
shared through session-scoped fixtures.
"""

import time
import zlib

import numpy as np
import pytest

from sarasim import engine
from sarasim.cli import write_npi_csv, write_summary_csv
from sarasim.config import (load_packaged_scenario, with_frequency,
                            with_policy)
from sarasim.controller import POLICIES
from sarasim.dram import InvalidWindow
from sarasim.meters import (NPI_MAX, BandwidthMeter, FrameProgressMeter,
                            LatencyMeter, PriorityLut, translate)
from sarasim.metrics import policy_comparison

from test_controller import (random_state, reference_policy1,
                             reference_policy2, select_from)
from test_fuzz import fuzz_policy
from test_meters import occupancy_meter, read_txn
from test_starvation import BOUND, run_flood

ALL_POLICIES = ("FCFS", "RR", "FRAME_QOS", "QOS", "QOS_RB", "FR_FCFS")
MEDIA = ("camera", "codec", "display", "improc", "jpeg", "rot_rd", "rot_wr")
LATENCY_CLASS = ("audio", "dsp", "gps", "modem")
FIVE_MINUTES = 300.0


def timed_run(cfg):
    t0 = time.perf_counter()
    report = engine.run(cfg)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="session")
def case_a_reports():
    cfg = load_packaged_scenario("A")
    out = {}
    for policy in ALL_POLICIES:
        out[policy] = timed_run(with_policy(cfg, policy))
    return out


@pytest.fixture(scope="session")
def case_b_qos():
    return timed_run(load_packaged_scenario("B"))


@pytest.fixture(scope="session")
def sweep_reports():
    cfg = load_packaged_scenario("sweep")
    return {mhz: engine.run(with_frequency(cfg, mhz))
            for mhz in (1700, 1600, 1500, 1400, 1300)}


def min_npis(report):
    return {dma: report.min_npi(dma) for dma in report.dma_order}


# -- criterion 1: adaptive policy keeps every core healthy --------------------

class TestAllCoresHealthyUnderQos:
    def test_case_a(self, case_a_reports):
        report, elapsed = case_a_reports["QOS"]
        npis = min_npis(report)
        assert all(v >= 1.0 for v in npis.values()), npis
        assert elapsed < FIVE_MINUTES

    def test_case_b(self, case_b_qos):
        report, elapsed = case_b_qos
        npis = min_npis(report)
        assert all(v >= 1.0 for v in npis.values()), npis
        assert elapsed < FIVE_MINUTES


# -- criterion 2: the non-adaptive baselines each fail somewhere --------------

class TestBaselinesFail:
    def test_fcfs_starves_latency_and_display(self, case_a_reports):
        report, _ = case_a_reports["FCFS"]
        npis = min_npis(report)
        assert any(npis[d] < 1.0 for d in LATENCY_CLASS), npis
        assert npis["display"] <= 0.5, npis

    def test_rr_starves_a_realtime_buffer(self, case_a_reports):
        report, _ = case_a_reports["RR"]
        npis = min_npis(report)
        assert npis["display"] <= 0.5 or npis["camera"] <= 0.5, npis

    def test_frame_qos_saves_media_by_sacrificing_others(self, case_a_reports):
        report, _ = case_a_reports["FRAME_QOS"]
        npis = min_npis(report)
        assert all(npis[d] >= 1.0 for d in MEDIA), npis
        others = [d for d in report.dma_order if d not in MEDIA]
        assert any(npis[d] < 1.0 for d in others), npis


# -- criterion 3: bandwidth ordering across the policy ladder ------------------

class TestBandwidthOrdering:
    def test_fr_fcfs_ge_rb_ge_qos(self, case_a_reports):
        fr = case_a_reports["FR_FCFS"][0].total_bandwidth()
        rb = case_a_reports["QOS_RB"][0].total_bandwidth()
        qos = case_a_reports["QOS"][0].total_bandwidth()
        assert fr >= rb >= qos, (fr, rb, qos)
        assert rb >= 0.95 * fr, (rb, fr)
        assert rb >= 1.05 * qos, (rb, qos)


# -- criterion 4: row-buffer awareness without losing the guarantees ----------

class TestRowBufferAwareFairness:
    def test_rb_healthy_where_fr_fcfs_starves(self, case_a_reports):
        rb = min_npis(case_a_reports["QOS_RB"][0])
        fr = min_npis(case_a_reports["FR_FCFS"][0])
        assert all(v >= 1.0 for v in rb.values()), rb
        assert any(v < 1.0 for v in fr.values()), fr


# -- criterion 5: priority escalation compensates a slower DRAM ----------------

class TestFrequencySweep:
    def test_mean_priority_monotone_and_target_met(self, sweep_reports):
        freqs = sorted(sweep_reports, reverse=True)  # 1700 ... 1300
        means = [sweep_reports[f].mean_priority("improc") for f in freqs]
        for slower, faster in zip(means[1:], means):
            assert slower >= faster, means
        for f in freqs:
            report = sweep_reports[f]
            assert (report.mean_bandwidth("improc")
                    >= report.target_bytes_per_s["improc"]), f


# -- criterion 6: scheduling policies match brute-force references -------------

class TestPolicyOracles:
    def test_priority_round_robin_10k_states(self):
        rng = np.random.default_rng(20240817)
        for _ in range(10_000):
            dram, ctrl, ready = random_state(rng, "QOS")
            expect = reference_policy1(ctrl, ready)
            assert select_from(ctrl, ready, dram) is expect

    def test_row_buffer_aware_10k_states(self):
        rng = np.random.default_rng(20240818)
        for _ in range(10_000):
            dram, ctrl, ready = random_state(rng, "QOS_RB")
            expect = reference_policy2(ctrl, dram, ready)
            assert select_from(ctrl, ready, dram) is expect


# -- criterion 7: a million fuzzed cycles, zero timing violations --------------

class TestTimingLegality:
    def test_all_policies_million_cycles(self):
        per_policy = 1_000_000 // len(POLICIES) + 1
        for policy in POLICIES:
            seed = zlib.crc32(policy.encode()) ^ 0xACCE
            violations = fuzz_policy(policy, per_policy, seed=seed)
            assert violations == [], (policy, violations[:5])


# -- criterion 8: aging bounds worst-case wait under adversarial load ----------

class TestStarvationBound:
    def test_flood_victim_wait_bounded(self):
        assert BOUND == 24704
        assert run_flood(seed=7) <= BOUND


# -- criterion 9: the meter equations, on exact examples -----------------------

class TestMeterEquations:
    def test_latency(self):
        m = LatencyMeter("d", max_latency_limit=200)
        m.on_completion(read_txn(source="d", created=0, completed=200), 200)
        assert m.npi() == 1.0
        m2 = LatencyMeter("d", max_latency_limit=200)
        m2.on_completion(read_txn(source="d", created=0, completed=400), 400)
        assert m2.npi() == 0.5
        assert LatencyMeter("d", max_latency_limit=200).npi() == NPI_MAX

    def test_frame_progress(self):
        m = FrameProgressMeter("d", frame_bytes=1000,
                               frame_period_cycles=1000, reference_slope=1.0)
        m.bytes_done = 500
        assert m.npi(cycle=500) == 1.0
        m.bytes_done = 300
        assert m.npi(cycle=600) == 0.5
        assert m.npi(cycle=0) == NPI_MAX

    def test_occupancy(self):
        m = occupancy_meter(rate=8.0)
        assert m.npi(cycle=0) == 1.0
        m.occupancy = m.initial_occupancy - 0.5 * 8.0 * 100
        assert m.npi(cycle=0) == 0.5
        m.occupancy = m.initial_occupancy + 8.0 * 100
        assert m.npi(cycle=0) == 2.0
        with pytest.raises(InvalidWindow):
            occupancy_meter(window=0)

    def test_bandwidth(self):
        m = BandwidthMeter("d", target_bytes_per_s=64.0, clock_freq_hz=1.0,
                           window_cycles=100)
        m.on_completion(read_txn(source="d", size=6400), 100)
        assert m.npi(cycle=100) == 1.0
        m2 = BandwidthMeter("d", target_bytes_per_s=64.0, clock_freq_hz=1.0,
                            window_cycles=100)
        m2.on_completion(read_txn(source="d", size=1600), 100)
        assert m2.npi(cycle=100) == 0.25
        m3 = BandwidthMeter("d", target_bytes_per_s=0.0, clock_freq_hz=1.0,
                            window_cycles=100)
        assert m3.npi(cycle=100) == NPI_MAX

    def test_translate_defaults(self):
        lut = PriorityLut()
        assert lut.entries == (1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.0)
        assert translate(lut, 1.2) == 0
        assert translate(lut, 0.55) == 5
        assert translate(lut, NPI_MAX) == 0

    def test_npi_is_one_at_target_for_every_meter_kind(self):
        self.test_latency()  # limit == average -> 1.0
        m = FrameProgressMeter("d", frame_bytes=100, frame_period_cycles=100,
                               reference_slope=1.0)
        m.bytes_done = 50
        assert m.npi(cycle=50) == 1.0
        assert occupancy_meter().npi(cycle=0) == 1.0
        b = BandwidthMeter("d", target_bytes_per_s=1.0, clock_freq_hz=1.0,
                           window_cycles=10)
        b.on_completion(read_txn(source="d", size=10), 10)
        assert b.npi(cycle=10) == 1.0


# -- criterion 10: bit-exact reproducibility -----------------------------------

class TestDeterminism:
    def test_same_scenario_same_seed_byte_identical_csvs(self, tmp_path,
                                                         case_b_qos):
        first, _ = case_b_qos
        second = engine.run(load_packaged_scenario("B"))
        paths = {}
        for tag, report in (("one", first), ("two", second)):
            npi = tmp_path / f"npi_{tag}.csv"
            summary = tmp_path / f"summary_{tag}.csv"
            write_npi_csv(str(npi), report)
            write_summary_csv(str(summary),
                              policy_comparison({report.policy: report}))
            paths[tag] = (npi, summary)
        assert paths["one"][0].read_bytes() == paths["two"][0].read_bytes()
        assert paths["one"][1].read_bytes() == paths["two"][1].read_bytes()
