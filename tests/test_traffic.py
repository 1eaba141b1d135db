"""Traffic generators: pacing oracles, burst shape, address streams, and
the shipped camcorder dataflow composition."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sarasim.config import load_packaged_scenario
from sarasim.core import READ, TXN_SIZE_BYTES, WRITE
from sarasim.meters import DRAIN, OccupancyMeter
from sarasim.traffic import (BANDWIDTH_STREAM, BURSTY_FRAME, CONSTANT_RATE,
                             CREDIT_CAP_TXNS, LATENCY_PROBE, DmaSpec,
                             Generator)

CLOCK = 1.0e9  # 1 GHz so cycles and nanoseconds coincide


def make_dataflow_scenario(case: str):
    """DmaSpec list for the shipped camcorder test cases ("A" or "B")."""
    cfg = load_packaged_scenario(case)
    return [e.spec_for(cfg.desk_scale, cfg.frame_period_cycles)
            for e in cfg.dmas]


def make_gen(kind=CONSTANT_RATE, rate=89.0e6, seed=0, **kw):
    spec = DmaSpec(dma_id="d", source_kind=kind,
                   rate_bytes_per_s=rate, **kw)
    return Generator(spec, np.random.default_rng(seed), CLOCK)


def drain(gen, cycles, space=8):
    """Collect (cycle, txn) pairs over a cycle range."""
    out = []
    for now in range(cycles):
        for t in gen.next_requests(now, space):
            out.append((now, t))
    return out


class TestConstantRate:
    def test_interarrival_is_719_cycles_at_89mbs(self):
        # 64 B per request at 89 MB/s and 1 GHz: one request every
        # 64 / 0.089 = 719.1 cycles
        gen = make_gen(CONSTANT_RATE, rate=89.0e6)
        times = [now for now, _ in drain(gen, 100_000)]
        gaps = np.diff(times)
        assert abs(float(np.mean(gaps)) - 719.1) < 1.0

    def test_rate_fidelity_within_one_percent(self):
        gen = make_gen(CONSTANT_RATE, rate=500.0e6)
        emitted = drain(gen, 200_000)
        measured = sum(t.size_bytes for _, t in emitted) / 200_000 * CLOCK
        assert abs(measured - 500.0e6) / 500.0e6 < 0.01

    def test_zero_rate_emits_nothing(self):
        gen = make_gen(CONSTANT_RATE, rate=0.0)
        assert drain(gen, 10_000) == []

    def test_at_most_one_per_cycle(self):
        gen = make_gen(CONSTANT_RATE, rate=1.0e12)  # absurdly fast
        for now, group in enumerate(range(100)):
            assert len(gen.next_requests(now, 8)) <= 1

    def test_credit_capped_after_idle(self):
        gen = make_gen(CONSTANT_RATE, rate=500.0e6)
        gen.next_requests(0, 8)
        # a long stall must not bank unbounded credit
        txns = []
        for now in range(1_000_000, 1_000_200):
            txns += gen.next_requests(now, 8)
        assert len(txns) <= CREDIT_CAP_TXNS + 200 * 500.0e6 / CLOCK / 64 + 1


class TestSkippedPolls:
    """Generator.skip_polls must leave the state bit-identical to polling
    once per cycle, as the engine does without fast-forward."""

    @staticmethod
    def blocked_drain_stream():
        # display-style refill at an inexact credit per cycle; the buffer
        # has no headroom, so the earned credit cannot be spent
        rate = 1.1703e9
        meter = OccupancyMeter("d", 256.0, rate, CLOCK, direction=DRAIN)
        meter.occupancy = 240.0
        spec = DmaSpec(dma_id="d", source_kind=CONSTANT_RATE,
                       rate_bytes_per_s=rate)
        gen = Generator(spec, np.random.default_rng(0), CLOCK,
                        occupancy_meter=meter)
        poll = 0
        while gen.state.byte_credit < TXN_SIZE_BYTES:
            assert gen.next_requests(poll, 8) == []
            poll = gen.next_poll_after(poll)
        return gen, poll

    @pytest.mark.parametrize("until_offset", [1, 37, 5_000])
    def test_blocked_drain_replay_matches_polling(self, until_offset):
        ref, poll = self.blocked_drain_stream()
        fast, _ = self.blocked_drain_stream()
        until = poll + until_offset
        assert fast.idle_poll()
        next_poll = fast.skip_polls(poll, until)
        while poll < until:
            assert ref.next_requests(poll, 8) == []
            poll = ref.next_poll_after(poll)
        assert next_poll == poll
        # repr round-trips a float exactly
        assert repr(fast.state.byte_credit) == repr(ref.state.byte_credit)
        assert fast.state.last_cycle == ref.state.last_cycle
        capped = ref.state.byte_credit == CREDIT_CAP_TXNS * 64
        assert capped == (until_offset == 5_000)

    @given(rate=st.floats(1.0e6, 5.0e9), credit=st.floats(64.0, 2048.0),
           gap=st.integers(1, 500), span=st.integers(0, 3_000))
    def test_replay_matches_polling_bit_for_bit(self, rate, credit, gap,
                                                span):
        # the last poll was `gap` cycles before the first missed one, and
        # the credit may reach the cap within `span`
        def blocked():
            meter = OccupancyMeter("d", 256.0, rate, CLOCK, direction=DRAIN)
            meter.occupancy = 240.0
            spec = DmaSpec(dma_id="d", source_kind=CONSTANT_RATE,
                           rate_bytes_per_s=rate)
            gen = Generator(spec, np.random.default_rng(0), CLOCK,
                            occupancy_meter=meter)
            gen.state.byte_credit, gen.state.last_cycle = credit, 1_000
            return gen
        ref, fast = blocked(), blocked()
        poll = 1_000 + gap
        until = poll + span
        assert fast.idle_poll()
        next_poll = fast.skip_polls(poll, until)
        while poll < until:
            assert ref.next_requests(poll, 8) == []
            poll = ref.next_poll_after(poll)
        assert next_poll == poll
        assert repr(fast.state.byte_credit) == repr(ref.state.byte_credit)
        assert fast.state.last_cycle == ref.state.last_cycle


def polled_from(gen, poll, cycle):
    """Reference for Generator.poll_from: follow next_poll_after."""
    while poll < cycle:
        poll = gen.next_poll_after(poll)
    return poll


# (kind, rate, state) of a generator whose polls find its leaf full; the
# hypothesis draws fill in the numbers
BLOCKED_STATES = {
    "rate_zero": (CONSTANT_RATE, 0.0, "deficit"),
    "constant_deficit": (CONSTANT_RATE, 89.0e6, "deficit"),
    "constant_earned": (CONSTANT_RATE, 89.0e6, "earned"),
    "stream_deficit": (BANDWIDTH_STREAM, 1.1703e9, "deficit"),
    "stream_earned": (BANDWIDTH_STREAM, 1.1703e9, "earned"),
    "bursty_waiting": (BURSTY_FRAME, 93.3e6, "idle"),
    "bursty_pending": (BURSTY_FRAME, 93.3e6, "pending"),
    "probe_waiting": (LATENCY_PROBE, 64.0e6, "idle"),
    "probe_pending": (LATENCY_PROBE, 64.0e6, "pending"),
}


class TestPollFrom:
    """Generator.poll_from(p, c) must equal following next_poll_after from
    p until the poll is at least c, for every state behind a full leaf."""

    @pytest.mark.parametrize("case", sorted(BLOCKED_STATES))
    @given(gated=st.booleans(), credit=st.floats(0.0, 1.0),
           wait=st.integers(0, 20_000), poll=st.integers(0, 20_000),
           span=st.integers(-3, 4_000))
    def test_matches_following_next_poll_after(self, case, gated, credit,
                                               wait, poll, span):
        kind, rate, state = BLOCKED_STATES[case]
        spec = DmaSpec(dma_id="d", source_kind=kind,
                       rate_bytes_per_s=rate, frame_period_cycles=10_000,
                       frame_bytes=64 * 10)
        meter = None
        if gated and kind in (CONSTANT_RATE, BANDWIDTH_STREAM):
            meter = OccupancyMeter("d", 256.0, max(rate, 1.0), CLOCK,
                                   direction=DRAIN)
        gen = Generator(spec, np.random.default_rng(0), CLOCK,
                        occupancy_meter=meter)
        size = TXN_SIZE_BYTES
        gs = gen.state
        if state == "deficit":
            gs.byte_credit = credit * size * 0.999
        elif state == "earned":
            gs.byte_credit = size * (1.0 + credit * CREDIT_CAP_TXNS)
        elif state == "pending":
            gs.bytes_left_in_frame = size * (1 + int(credit * 9))
            gs.pending_probes = 1 + int(credit * 3)
        else:
            gs.next_boundary = poll + wait
            gs.next_probe_cycle = poll + wait + credit
        cycle = poll + span
        before = replace(gs)
        assert gen.poll_from(poll, cycle) == polled_from(gen, poll, cycle)
        assert gen.state == before  # poll_from only reads the state


class TestBurstyFrame:
    def test_whole_frame_eligible_at_boundary(self):
        gen = make_gen(BURSTY_FRAME, rate=93.3e6, frame_bytes=64 * 10,
                       frame_period_cycles=10_000)
        txns = gen.next_requests(0, space=64)
        assert len(txns) == 10  # entire payload at once, modulo space

    def test_respects_backpressure_space(self):
        gen = make_gen(BURSTY_FRAME, rate=93.3e6, frame_bytes=64 * 10,
                       frame_period_cycles=10_000)
        assert len(gen.next_requests(0, space=3)) == 3
        assert len(gen.next_requests(1, space=64)) == 7

    def test_next_frame_replenishes(self):
        gen = make_gen(BURSTY_FRAME, rate=93.3e6, frame_bytes=64 * 2,
                       frame_period_cycles=100)
        assert len(gen.next_requests(0, space=64)) == 2
        assert gen.next_requests(50, space=64) == []
        assert len(gen.next_requests(100, space=64)) == 2


class TestLatencyProbe:
    def test_exponential_interarrival_mean(self):
        gen = make_gen(LATENCY_PROBE, rate=64.0e6)  # mean gap 1000 cycles
        times = [now for now, _ in drain(gen, 2_000_000)]
        gaps = np.diff(times)
        assert abs(float(np.mean(gaps)) - 1000.0) / 1000.0 < 0.05

    def test_single_outstanding_shape(self):
        gen = make_gen(LATENCY_PROBE, rate=64.0e4)  # sparse
        for now, txn in drain(gen, 500_000):
            assert txn.kind == READ
            assert txn.size_bytes == 64


class TestBandwidthStream:
    def test_elastic_fills_available_space(self):
        gen = make_gen(BANDWIDTH_STREAM, rate=64.0e9)  # 64 B/cycle offered
        txns = gen.next_requests(10, space=8)
        assert len(txns) > 1  # not limited to one per cycle


class TestAddressStream:
    def test_sequential_walk_when_fully_local(self):
        gen = make_gen(CONSTANT_RATE, rate=1.0e12, locality=1.0,
                       address_region=(4096, 64 * 100))
        addrs = [t.address for _, t in drain(gen, 50)]
        assert addrs == [4096 + 64 * i for i in range(len(addrs))]

    def test_region_wraps(self):
        gen = make_gen(CONSTANT_RATE, rate=1.0e12, locality=1.0,
                       address_region=(0, 64 * 4))
        addrs = [t.address for _, t in drain(gen, 12)]
        expect = [64 * (i % 4) for i in range(len(addrs))]
        assert len(addrs) >= 8 and addrs == expect

    def test_addresses_stay_in_region(self):
        base, length = 8192, 64 * 32
        gen = make_gen(CONSTANT_RATE, rate=1.0e12, locality=0.1,
                       address_region=(base, length))
        for _, t in drain(gen, 300):
            assert base <= t.address < base + length
            assert t.address % 64 == 0

    def test_low_locality_jumps(self):
        gen = make_gen(CONSTANT_RATE, rate=1.0e12, locality=0.0,
                       address_region=(0, 1 << 20))
        addrs = [t.address for _, t in drain(gen, 200)]
        strides = set(np.diff(addrs))
        assert strides != {64}  # not a pure sequential walk


class TestReadWriteMix:
    def test_pure_reads_and_pure_writes(self):
        rd = make_gen(CONSTANT_RATE, rate=1.0e12, read_fraction=1.0)
        wr = make_gen(CONSTANT_RATE, rate=1.0e12, read_fraction=0.0)
        assert {t.kind for _, t in drain(rd, 50)} == {READ}
        assert {t.kind for _, t in drain(wr, 50)} == {WRITE}

    def test_mixed_fraction_is_respected(self):
        gen = make_gen(CONSTANT_RATE, rate=1.0e12, read_fraction=0.7)
        kinds = [t.kind for _, t in drain(gen, 5000)]
        frac = sum(1 for k in kinds if k == READ) / len(kinds)
        assert abs(frac - 0.7) < 0.05


class TestDataflowComposition:
    def test_case_a_has_full_pipeline(self):
        specs = {s.dma_id: s for s in make_dataflow_scenario("A")}
        assert len(specs) == 14
        for dma in ("improc", "codec", "rot_wr", "rot_rd", "jpeg", "display",
                    "camera", "gpu", "dsp", "gps", "modem", "audio",
                    "wifi", "usb"):
            assert dma in specs
        assert specs["display"].source_kind == CONSTANT_RATE
        assert specs["codec"].source_kind == BURSTY_FRAME
        assert specs["dsp"].source_kind == LATENCY_PROBE
        assert specs["wifi"].source_kind == BANDWIDTH_STREAM

    def test_case_b_disables_idle_cores(self):
        specs = {s.dma_id: s for s in make_dataflow_scenario("B")}
        assert len(specs) == 9
        for absent in ("gps", "camera", "rot_wr", "rot_rd", "jpeg"):
            assert absent not in specs

    def test_1080p_frame_payload(self):
        # 1920 x 1080 at 12 bits/pixel: 3,110,400 bytes per frame, scaled
        # down by the desk divisor (128) in the shipped scenario
        specs = {s.dma_id: s for s in make_dataflow_scenario("A")}
        assert specs["improc"].frame_bytes * 128 == 1920 * 1080 * 3 // 2

    def test_rotator_pair_rates(self):
        # write and read passes are symmetric; one frame per period each
        specs = {s.dma_id: s for s in make_dataflow_scenario("A")}
        wr, rd = specs["rot_wr"], specs["rot_rd"]
        assert wr.rate_bytes_per_s == rd.rate_bytes_per_s
        assert wr.read_fraction == 0.0 and rd.read_fraction == 1.0
        assert wr.frame_bytes == rd.frame_bytes == specs["improc"].frame_bytes

    def test_regions_are_disjoint(self):
        specs = make_dataflow_scenario("A")
        spans = sorted((s.address_region[0],
                        s.address_region[0] + s.address_region[1])
                       for s in specs)
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert b0 >= a1
