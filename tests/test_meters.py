"""Unit suite for the four performance meters and the LUT translation.

Every numeric example here is an exact hand-evaluable oracle; the property
tests check the structural contracts (monotone step function, clamping).
"""

import math

import pytest
from hypothesis import given, strategies as st

from sarasim.core import READ, WRITE, Transaction
from sarasim.dram import InvalidWindow
from sarasim.meters import (DRAIN, FILL, NPI_MAX, BandwidthMeter,
                            FrameProgressMeter, LatencyMeter, MalformedLut,
                            OccupancyMeter, PriorityLut, clamp_npi,
                            translate)


def read_txn(source="dsp", created=0, completed=0, size=64):
    t = Transaction(id=1, source=source, kind=READ, address=0,
                    size_bytes=size, t_created=created)
    t.t_completed = completed
    return t


# -- latency meter -----------------------------------------------------------

class TestLatencyMeter:
    def test_limit_equals_average_is_one(self):
        m = LatencyMeter("dsp", max_latency_limit=200)
        m.on_completion(read_txn(created=0, completed=200), 200)
        assert m.npi() == 1.0

    def test_average_twice_limit_is_half(self):
        m = LatencyMeter("dsp", max_latency_limit=200)
        m.on_completion(read_txn(created=0, completed=400), 400)
        assert m.npi() == 0.5

    def test_empty_window_saturates(self):
        m = LatencyMeter("dsp", max_latency_limit=200)
        assert m.npi() == NPI_MAX

    def test_average_is_mean_of_window(self):
        m = LatencyMeter("dsp", max_latency_limit=300)
        m.on_completion(read_txn(created=0, completed=100), 100)
        m.on_completion(read_txn(created=0, completed=200), 200)
        assert m.average_latency == 150.0
        assert m.npi() == 2.0

    def test_window_is_bounded_ring(self):
        m = LatencyMeter("dsp", max_latency_limit=100, window=4)
        for lat in (1000, 1000, 1000, 1000, 100, 100, 100, 100):
            m.on_completion(read_txn(created=0, completed=lat), lat)
        assert m.average_latency == 100.0

    def test_writes_are_posted(self):
        m = LatencyMeter("dsp", max_latency_limit=200)
        w = Transaction(id=2, source="dsp", kind=WRITE, address=0, t_created=0)
        w.t_completed = 5000
        m.on_completion(w, 5000)
        assert m.npi() == NPI_MAX  # write left no latency sample


# -- frame-progress meter ----------------------------------------------------

class TestFrameProgressMeter:
    def test_on_reference_is_one(self):
        m = FrameProgressMeter("codec", frame_bytes=1000,
                               frame_period_cycles=1000, reference_slope=1.0)
        m.bytes_done = 500
        assert m.npi(cycle=500) == 1.0

    def test_half_of_reference_is_half(self):
        # progress 0.3 when the reference expects 0.6
        m = FrameProgressMeter("codec", frame_bytes=1000,
                               frame_period_cycles=1000, reference_slope=1.0)
        m.bytes_done = 300
        assert m.npi(cycle=600) == 0.5

    def test_zero_elapsed_saturates(self):
        m = FrameProgressMeter("codec", frame_bytes=1000,
                               frame_period_cycles=1000)
        assert m.npi(cycle=0) == NPI_MAX

    def test_no_feedback_yet_saturates(self):
        m = FrameProgressMeter("codec", frame_bytes=1000,
                               frame_period_cycles=1000)
        assert m.npi(cycle=400) == NPI_MAX

    def test_reference_slope_scales_reference(self):
        m = FrameProgressMeter("codec", frame_bytes=1000,
                               frame_period_cycles=1000, reference_slope=0.5)
        m.bytes_done = 250
        assert m.npi(cycle=500) == 1.0

    def test_completion_accumulates_and_caps(self):
        m = FrameProgressMeter("codec", frame_bytes=100,
                               frame_period_cycles=1000)
        m.on_completion(read_txn(source="codec", size=64), 10)
        assert m.bytes_done == 64
        m.on_completion(read_txn(source="codec", size=64), 20)
        assert m.bytes_done == 100  # capped at the frame payload

    def test_start_frame_resets(self):
        m = FrameProgressMeter("codec", frame_bytes=100,
                               frame_period_cycles=1000)
        m.on_completion(read_txn(source="codec", size=64), 10)
        m.start_frame(1000)
        assert m.bytes_done == 0
        assert m.npi(cycle=1000) == NPI_MAX


# -- occupancy meter ---------------------------------------------------------

def occupancy_meter(direction=DRAIN, rate=8.0, window=100):
    # clock 1 Hz so rate_per_cycle == drain_rate_bytes_per_s
    return OccupancyMeter("display", buffer_bytes=4096,
                          drain_rate_bytes_per_s=rate, clock_freq_hz=1.0,
                          direction=direction, window_cycles=window)


class TestOccupancyMeter:
    def test_zero_delta_is_one(self):
        m = occupancy_meter()
        assert m.npi(cycle=0) == 1.0

    def test_deficit_half_drain_is_half(self):
        m = occupancy_meter(rate=8.0)
        m.occupancy = m.initial_occupancy - 0.5 * 8.0 * 100
        assert m.npi(cycle=0) == 0.5

    def test_surplus_full_drain_is_two(self):
        m = occupancy_meter(rate=8.0)
        m.occupancy = m.initial_occupancy + 8.0 * 100
        assert m.npi(cycle=0) == 2.0

    def test_zero_window_rejected(self):
        with pytest.raises(InvalidWindow):
            occupancy_meter(window=0)
        with pytest.raises(InvalidWindow):
            occupancy_meter(window=-5)

    def test_initial_occupancy_is_half_capacity(self):
        m = occupancy_meter()
        assert m.initial_occupancy == 2048.0

    def test_fill_direction_flips_sign(self):
        # camera-style: occupancy above the set point is the unhealthy side
        m = occupancy_meter(direction=FILL, rate=8.0)
        m.occupancy = m.initial_occupancy + 0.5 * 8.0 * 100
        assert m.npi(cycle=0) == 0.5

    def test_refill_completion_raises_occupancy(self):
        m = occupancy_meter()
        before = m.occupancy
        m.on_completion(read_txn(source="display", size=64), 10)
        assert m.occupancy == before + 64

    def test_drain_flow_starts_at_first_completion(self):
        m = occupancy_meter(rate=8.0)
        m.on_completion(read_txn(source="display", size=64), 100)
        level = m.occupancy
        m._apply_flow(150)  # 50 cycles of consumer drain at 8 B/cycle
        assert m.occupancy == level - 400


# -- bandwidth meter ---------------------------------------------------------

class TestBandwidthMeter:
    def make(self, target=64.0, window=100):
        # clock 1 Hz, window 100 cycles
        return BandwidthMeter("wifi", target_bytes_per_s=target,
                              clock_freq_hz=1.0, window_cycles=window)

    def test_measured_equals_target_is_one(self):
        m = self.make(target=64.0)
        m.on_completion(read_txn(source="wifi", size=6400), 100)
        assert m.npi(cycle=100) == 1.0

    def test_quarter_of_target(self):
        m = self.make(target=64.0)
        m.on_completion(read_txn(source="wifi", size=1600), 100)
        assert m.npi(cycle=100) == 0.25

    def test_zero_target_saturates(self):
        m = self.make(target=0.0)
        assert m.npi(cycle=100) == NPI_MAX

    def test_zero_window_rejected(self):
        with pytest.raises(InvalidWindow):
            self.make(window=0)
        with pytest.raises(InvalidWindow):
            self.make(window=-5)

    def test_startup_without_feedback_saturates(self):
        m = self.make()
        assert m.npi(cycle=100) == NPI_MAX

    def test_window_slides(self):
        m = self.make(target=64.0)
        m.on_completion(read_txn(source="wifi", size=6400), 50)
        assert m.npi(cycle=100) == 1.0
        assert m.npi(cycle=200) == 0.0  # completion left the window


# -- LUT translation ---------------------------------------------------------

DEFAULT_ENTRIES = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.0)


class TestTranslate:
    def test_healthy_maps_to_zero(self):
        assert translate(PriorityLut(), 1.2) == 0

    def test_band_lookup(self):
        assert translate(PriorityLut(), 0.55) == 5  # 0.55 in [0.5, 0.6)

    def test_saturated_npi_maps_to_zero(self):
        assert translate(PriorityLut(), NPI_MAX) == 0

    def test_floor_catches_zero(self):
        assert translate(PriorityLut(), 0.0) == 7

    def test_exact_bound_admits_level(self):
        assert translate(PriorityLut(), 0.9) == 1

    def test_malformed_lut_rejected(self):
        with pytest.raises(MalformedLut):
            translate(PriorityLut(entries=(0.5, 0.9, 0.8, 0.7,
                                           0.6, 0.5, 0.4, 0.0)), 1.0)
        with pytest.raises(MalformedLut):
            PriorityLut(entries=(1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.1)).validate()
        with pytest.raises(MalformedLut):
            PriorityLut(entries=(1.0, 0.0)).validate()

    @given(st.lists(st.floats(min_value=0.0, max_value=4.0,
                              allow_nan=False), min_size=7, max_size=7),
           st.floats(min_value=0.0, max_value=16.0, allow_nan=False))
    def test_matches_brute_force_scan(self, bounds, npi):
        entries = tuple(sorted(bounds, reverse=True)) + (0.0,)
        lut = PriorityLut(entries=entries)
        # brute force: smallest level whose lower bound admits the NPI
        expect = min(p for p in range(8) if npi >= entries[p])
        assert translate(lut, npi) == expect

    @given(st.floats(min_value=0.0, max_value=16.0, allow_nan=False),
           st.floats(min_value=0.0, max_value=16.0, allow_nan=False))
    def test_monotone_nonincreasing_in_npi(self, a, b):
        lut = PriorityLut()
        lo, hi = min(a, b), max(a, b)
        assert translate(lut, lo) >= translate(lut, hi)

    @given(st.floats(min_value=1.0, max_value=16.0, allow_nan=False))
    def test_no_priority_without_deficit(self, npi):
        # with NPI at or above entries[0] the level is structurally 0
        assert translate(PriorityLut(), npi) == 0


class TestClamp:
    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_total_and_bounded(self, x):
        v = clamp_npi(x)
        assert 0.0 <= v <= NPI_MAX
        assert math.isfinite(v)

    def test_boundary_identity(self):
        assert clamp_npi(1.0) == 1.0
        assert clamp_npi(-3.0) == 0.0
        assert clamp_npi(100.0) == NPI_MAX
