"""Configuration parsing: strict grammar, validation, and the canonical
emit/parse round trip."""

import dataclasses
import hashlib
import math
import re
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sarasim.config import (ParseError, ValidationError, emit_config,
                            load_packaged_scenario, parse_config, with_policy,
                            with_frequency)
from sarasim.controller import POLICIES
from sarasim.core import PRIORITY_LEVELS

MINIMAL = """
name = tiny
seed = 3

[dram]
io_freq_mhz = 1866

[dma one]
core = dsp
queue = dsp
cluster = direct
kind = latency_probe
meter = latency
rate_mbps = 10.0
latency_limit_cycles = 500
"""


class TestParse:
    def test_minimal_round_trips_values(self):
        cfg = parse_config(MINIMAL)
        assert cfg.name == "tiny"
        assert cfg.seed == 3
        assert cfg.io_freq_mhz == 1866
        assert len(cfg.dmas) == 1
        assert cfg.dmas[0].core == "dsp"

    def test_case_a_inventory(self):
        cfg = load_packaged_scenario("A")
        assert cfg.io_freq_mhz == 1866
        assert len(cfg.dmas) == 14
        cores = {e.core for e in cfg.dmas}
        assert len(cores) == 13  # the rotator owns two DMA ports
        assert cfg.policy == "QOS"
        assert cfg.capacity == 42

    def test_case_b_inventory(self):
        cfg = load_packaged_scenario("B")
        assert cfg.io_freq_mhz == 1700
        assert len(cfg.dmas) == 9

    def test_command_clock_is_half_io_rate(self):
        cfg = parse_config(MINIMAL)
        assert cfg.command_clock_hz == 1866e6 / 2 / cfg.desk_scale

    def test_unknown_key_cites_line(self):
        bad = MINIMAL.replace("io_freq_mhz = 1866",
                              "io_freq_mhz = 1866\ntRCDD = 34")
        with pytest.raises(ParseError, match=r"line 7.*tRCDD"):
            parse_config(bad)

    def test_unknown_section_rejected(self):
        with pytest.raises(ParseError, match="unknown section"):
            parse_config(MINIMAL + "\n[nic]\nspeed = 1\n")

    def test_bad_value_type_cites_line(self):
        with pytest.raises(ParseError, match="bad value"):
            parse_config(MINIMAL.replace("seed = 3", "seed = three"))

    def test_missing_equals_rejected(self):
        with pytest.raises(ParseError, match="key = value"):
            parse_config(MINIMAL + "\norphan token\n")

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# leading comment\n\n" + MINIMAL +
                           "\n# trailing\n")
        assert cfg.name == "tiny"

    def test_zero_duration_rejected(self):
        with pytest.raises(ValidationError, match="duration_cycles"):
            parse_config("duration_cycles = 0\n" + MINIMAL)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            parse_config(MINIMAL.replace("seed = 3", "seed = -1"))

    def test_negative_duration_rejected_but_zero_means_frames(self):
        cfg = parse_config(MINIMAL)
        cfg.duration_cycles = 0
        cfg.validate()
        cfg.duration_cycles = -5
        with pytest.raises(ValidationError, match="duration_cycles"):
            cfg.validate()

    @pytest.mark.parametrize("section,where", [
        ("", ""), ("[dram]", " in [dram]"),
        ("[controller]", " in [controller]"), ("[noc]", " in [noc]"),
        ("[dma two]", " in [dma ...]")])
    def test_unknown_key_text_names_the_section(self, section, where):
        # line 4 opens the section (or stays blank), line 5 is the bad key
        text = MINIMAL.replace("seed = 3", f"seed = 3\n{section}\nbogus = 1")
        with pytest.raises(ParseError) as info:
            parse_config(text)
        assert str(info.value) == f"line 5: unknown key 'bogus'{where}"

    def test_missing_required_dma_key(self):
        broken = MINIMAL.replace("meter = latency\n", "")
        with pytest.raises(ValidationError, match="meter"):
            parse_config(broken)

    def test_duplicate_dma_id_rejected(self):
        dup = MINIMAL + MINIMAL[MINIMAL.index("[dma one]"):].replace(
            "region", "region")  # same id, same region: id trips first
        with pytest.raises(ValidationError, match="duplicate dma id"):
            parse_config(dup)

    @pytest.mark.parametrize("text,line,key", [
        (MINIMAL.replace("seed = 3", "seed = 3\nseed = 9"), 4, "seed"),
        # the same section under a second header
        (MINIMAL + "[dram]\nio_freq_mhz = 1700\n", 17, "io_freq_mhz"),
        (MINIMAL + "rate_mbps = 20.0\n", 16, "rate_mbps")],
        ids=["global", "second-header", "dma"])
    def test_key_given_twice_cites_line(self, text, line, key):
        # the later value used to override the earlier one silently
        with pytest.raises(ParseError) as info:
            parse_config(text)
        assert str(info.value) == f"line {line}: duplicate key {key!r}"

    def test_same_key_in_two_dma_sections_is_not_a_duplicate(self):
        second = MINIMAL[MINIMAL.index("[dma one]"):].replace("one", "two")
        cfg = parse_config(MINIMAL + second + "region_base_kb = 4096\n")
        assert [e.dma_id for e in cfg.dmas] == ["one", "two"]

    def test_second_header_reopens_its_section(self):
        text = CASE_TEXT["B"].replace("cluster_depth = 2\n", "")
        cfg = parse_config(text + "\n[noc]\ncluster_depth = 3\n"
                           "\n[dram]\nchannels = 1\n")
        assert (cfg.noc_depth, cfg.noc_cluster_depth) == (8, 3)
        assert (cfg.io_freq_mhz, cfg.dram.channels) == (1700, 1)

    @pytest.mark.parametrize("dma_id", ["dis,play", 'dis"play'])
    def test_dma_id_the_csvs_cannot_hold_is_rejected(self, dma_id):
        # the CSV writers write ids unquoted: a ',' added a field to a row
        cfg = load_packaged_scenario("B")
        next(e for e in cfg.dmas if e.dma_id == "display").dma_id = dma_id
        with pytest.raises(ValidationError, match=re.escape(repr(dma_id))):
            cfg.validate()

    def test_region_overlap_rejected(self):
        second = """
[dma two]
core = gps
queue = system
cluster = system
kind = latency_probe
meter = latency
rate_mbps = 1.0
latency_limit_cycles = 500
"""
        # both DMAs default to the same region
        with pytest.raises(ValidationError, match="overlap"):
            parse_config(MINIMAL + second)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValidationError, match="policy"):
            parse_config(MINIMAL + "\n[controller]\npolicy = LIFO\n")

    @pytest.mark.parametrize("delta,ok", [
        (-1, False), (0, True), (8, True), (9, False), (10 ** 20, False)])
    def test_delta_is_a_level_from_0_to_priority_levels(self, delta, ok):
        # QOS_RB compares the highest level with delta: 0 makes every
        # level urgent, PRIORITY_LEVELS none; beyond them it means nothing
        text = MINIMAL + f"\n[controller]\ndelta = {delta}\n"
        if ok:
            assert parse_config(text).delta == delta
        else:
            with pytest.raises(ValidationError, match=f"^delta {delta} "):
                parse_config(text)

    def test_malformed_lut_rejected(self):
        from sarasim.meters import MalformedLut
        bad = MINIMAL + "lut = 0.5,0.9,0.8,0.7,0.6,0.5,0.4,0\n"
        with pytest.raises(MalformedLut):
            parse_config(bad)

    @pytest.mark.parametrize("key,value", [
        ("read_fraction", 1.5), ("locality", -0.1), ("kind", "bogus"),
        ("pace_boost", 0.0), ("buffer_kb", 0.0),
        # non-finite values, which the text parser cannot produce
        ("frame_kb", math.inf), ("rate_mbps", math.inf),
        ("pace_boost", math.inf), ("buffer_kb", math.inf),
        ("target_mbps", math.nan), ("latency_limit_cycles", math.inf),
        ("reference_slope", math.inf),
        # finite values that overflow when scaled: int(inf) in spec_for,
        # and a pace of inf earned NaN credit
        ("frame_kb", 1e308), ("rate_mbps", 1e308), ("pace_boost", 1.79e308),
        pytest.param("lut", (math.inf, 1.8, 1.6, 1.45, 1.3, 1.2, 1.1, 0.0),
                     id="lut-inf-first")])
    def test_out_of_range_dma_value_names_the_dma(self, key, value):
        cfg = load_packaged_scenario("B")
        display = next(e for e in cfg.dmas if e.dma_id == "display")
        setattr(display, key, value)
        with pytest.raises(ValidationError, match=f"^display: .*{key}"):
            cfg.validate()

    @pytest.mark.parametrize("locality,region_len_kb,ok", [
        (0.5, 2 ** 59, True), (0.5, 2 ** 59 + 1, False),
        (1.0, 10 ** 20, True)])
    def test_random_jump_region_holds_at_most_2_63_transactions(
            self, locality, region_len_kb, ok):
        # 2**59 KiB is 2**63 transactions of 64 B, the largest bound that
        # rng.DmaStream.integers takes; a sequential walk draws no slot
        cfg = load_packaged_scenario("B")
        gpu = next(e for e in cfg.dmas if e.dma_id == "gpu")
        gpu.locality, gpu.region_len_kb = locality, region_len_kb
        if ok:
            cfg.validate()
        else:
            with pytest.raises(ValidationError, match="^gpu: region_len_kb"):
                cfg.validate()

    @pytest.mark.parametrize("changes,named", [
        ({"CL": 2 ** 31}, "CL"), ({"tRCD": 2 ** 31}, "tRCD"),
        ({"tRP": 2 ** 31}, "tRP"), ({"tBURST": 2 ** 31}, "tBURST"),
        ({"tFAW": 2 ** 20 + 1}, "tFAW"), ({"channels": 2 ** 31}, "channels"),
        ({"channels": 512, "ranks": 1, "banks": 1}, "channels"),
        ({"ranks": 2 ** 20}, "ranks"), ({"banks": 2 ** 31}, "banks"),
        ({"channels": 64, "ranks": 64, "banks": 64}, "banks"),
        ({"column_bits": 2 ** 63}, "column_bits"),
        ({"column_bits": 33}, "column_bits"), ({"CL": 0}, "CL"),
        ({"channels": 3}, "channels")])
    def test_dram_key_beyond_its_bound_is_rejected(self, changes, named):
        # each exited 2 or ran out of memory: the bank state grows with
        # channels * ranks * banks, each bus bit mask with the timings
        cfg = load_packaged_scenario("B")
        for key, value in changes.items():
            setattr(cfg.dram, key, value)
        with pytest.raises(ValidationError, match=rf"^\[dram\] .*{named}"):
            cfg.validate()

    @pytest.mark.parametrize("changes", [
        {"CL": 2 ** 20, "tRP": 2 ** 20, "tBURST": 2 ** 20},
        {"channels": 256, "ranks": 1, "banks": 1},
        {"channels": 1, "ranks": 2 ** 16, "banks": 1},
        {"channels": 4, "ranks": 4, "banks": 2 ** 12}, {"column_bits": 32}])
    def test_dram_key_at_its_bound_is_accepted(self, changes):
        cfg = load_packaged_scenario("B")
        for key, value in changes.items():
            setattr(cfg.dram, key, value)
        cfg.validate()

    @pytest.mark.parametrize("text", ["a#b", "a\nb", " a", "a "])
    @pytest.mark.parametrize("field,label", [
        ("name", "name"), ("dma_id", "dma id"), ("core", "display: core")])
    def test_unwritable_text_names_the_field(self, field, label, text):
        cfg = load_packaged_scenario("B")
        display = next(e for e in cfg.dmas if e.dma_id == "display")
        setattr(cfg if field == "name" else display, field, text)
        expect = f"^{label} {re.escape(repr(text))} cannot be written back"
        with pytest.raises(ValidationError, match=expect):
            cfg.validate()


class TestEmit:
    def test_emit_parse_is_identity(self):
        for case in ("A", "B", "sweep"):
            cfg = load_packaged_scenario(case)
            again = parse_config(emit_config(cfg))
            assert again == cfg

    def test_emit_is_stable(self):
        cfg = load_packaged_scenario("A")
        assert emit_config(cfg) == emit_config(parse_config(emit_config(cfg)))

    # sha256 of the canonical text of each packaged scenario, recorded
    # before parse_config and emit_config shared one section table
    EMITTED = {
        "A": "37137977d9b8b8eaa19571cf62cc500c5d637ec6757a900322e37b356ffb2c79",
        "B": "279604f0394259d339b5936a7203ddfbc7c4952aad15591bec57e49eadf95fc9",
        "sweep":
            "dcd6363e91ce08eeffa10afbcfb793ce39ea43e99e8547f4ba570ca138519de3",
    }

    @pytest.mark.parametrize("case", list(EMITTED))
    def test_emitted_text_matches_recorded_digest(self, case):
        text = emit_config(load_packaged_scenario(case))
        assert (hashlib.sha256(text.encode()).hexdigest()
                == self.EMITTED[case])


class TestDerivedClones:
    def test_with_policy_changes_only_policy(self):
        cfg = load_packaged_scenario("A")
        clone = with_policy(cfg, "FR_FCFS")
        assert clone.policy == "FR_FCFS"
        assert clone.fingerprint() == cfg.fingerprint()
        assert cfg.policy == "QOS"  # original untouched

    def test_with_frequency_rescales_clock(self):
        cfg = load_packaged_scenario("B")
        clone = with_frequency(cfg, 1300.0)
        assert clone.io_freq_mhz == 1300.0
        assert clone.command_clock_hz == 1300e6 / 2 / cfg.desk_scale
        assert cfg.io_freq_mhz == 1700.0

    def test_with_frequency_rejects_nonpositive(self):
        cfg = load_packaged_scenario("B")
        with pytest.raises(ValidationError):
            with_frequency(cfg, 0.0)

    @pytest.mark.parametrize("freq", [math.nan, math.inf])
    def test_with_frequency_rejects_nonfinite(self, freq):
        cfg = load_packaged_scenario("B")
        with pytest.raises(ValidationError, match="finite"):
            with_frequency(cfg, freq)


class TestScenarioDerivations:
    def test_frame_period_is_one_thirtieth_second(self):
        cfg = load_packaged_scenario("A")
        assert cfg.frame_period_cycles == round(cfg.command_clock_hz / 30.0)

    def test_resolved_duration_covers_warmup_plus_frames(self):
        cfg = load_packaged_scenario("A")
        assert (cfg.resolved_duration()
                == cfg.warmup_cycles + cfg.frame_period_cycles)

    def test_desk_scale_preserves_cycle_domain(self):
        # scaling traffic and clock together keeps the frame length in
        # cycles invariant
        cfg = load_packaged_scenario("A")
        full = dataclasses.replace(cfg, desk_scale=1)
        # exact up to per-frame rounding (half a desk step at most)
        assert abs(full.frame_period_cycles
                   - cfg.frame_period_cycles * 128) <= 64
        scaled_period_s = cfg.frame_period_cycles / cfg.command_clock_hz
        full_period_s = full.frame_period_cycles / full.command_clock_hz
        assert scaled_period_s == pytest.approx(full_period_s, rel=1e-5)


# -- round-trip properties ---------------------------------------------------

CASES = ("A", "B", "sweep")
CASE_TEXT = {case: resources.files("sarasim.scenarios").joinpath(
    f"case_{case.lower()}.cfg").read_text() for case in CASES}
KEY_LINE = re.compile(r"^(\w+ = ).*$", re.M)
# texts that emit_config can write back as one `key = value` line: no `#`,
# no line break (str.splitlines's) and no surrounding whitespace
ONE_LINE = st.text(st.characters(
    exclude_characters="#\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
).map(str.strip)


class TestRoundTripProperties:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=st.sampled_from(CASES), data=st.data(), value=st.text())
    def test_any_value_parses_or_is_a_config_error(self, case, data, value):
        text = CASE_TEXT[case]
        lines = list(KEY_LINE.finditer(text))
        line = lines[data.draw(st.integers(0, len(lines) - 1))]
        bad = text[:line.start()] + line.group(1) + value + text[line.end():]
        try:
            parse_config(bad)
        except (ParseError, ValidationError):
            pass

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=st.sampled_from(CASES), data=st.data())
    def test_emit_then_parse_is_identity(self, case, data):
        cfg = load_packaged_scenario(case)
        draw = data.draw
        finite = st.floats(allow_nan=False, allow_infinity=False)
        cfg.name = draw(ONE_LINE)
        cfg.seed = draw(st.integers(0, 2 ** 64))
        cfg.warmup_cycles = draw(st.integers(0, 10 ** 6))
        cfg.fps = draw(st.floats(1.0, 240.0))
        cfg.io_freq_mhz = draw(st.floats(100.0, 4000.0))
        cfg.epoch_cycles = draw(st.integers(1, 1000))
        cfg.policy = draw(st.sampled_from(POLICIES))
        cfg.capacity = draw(st.integers(1, 100))
        cfg.delta = draw(st.integers(0, PRIORITY_LEVELS))
        cfg.static_split = draw(st.booleans())
        cfg.noc_depth = draw(st.integers(0, 64))
        cfg.noc_cluster_depth = draw(st.none() | st.integers(0, 64))
        cfg.dram.tRCD = draw(st.integers(1, 100))
        cfg.dram.channels = draw(st.sampled_from((1, 2, 4)))
        n = len(cfg.dmas)
        ids = draw(st.lists(st.sampled_from([e.dma_id for e in cfg.dmas])
                            | ONE_LINE.filter(bool),
                            min_size=n, max_size=n, unique=True))
        for e, dma_id in zip(cfg.dmas, ids):
            e.dma_id = dma_id
            e.core = draw(st.just(e.core) | ONE_LINE)
            e.target_mbps = draw(finite)
            # ranges that validate() accepts: every pace earns a
            # transaction, and no reference underflows to zero
            e.pace_boost = draw(st.floats(1e-3, 1e3))
            e.reference_slope = draw(st.floats(0.0, exclude_min=True,
                                               allow_subnormal=False,
                                               allow_infinity=False))
            e.locality = draw(st.floats(0.0, 1.0))
            e.read_fraction = draw(st.floats(0.0, 1.0))
            e.queue_depth = draw(st.integers(0, 128))
        try:
            cfg.validate()
        except ValidationError:
            return
        assert parse_config(emit_config(cfg)) == cfg
