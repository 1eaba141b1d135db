"""Scenario configuration: a strict nested key-value text format.

Layout: global keys first, then `[dram]`, `[controller]`, `[noc]` and one
`[dma <id>]` section per DMA.  `#` starts a comment.  Unknown sections or
keys are hard errors that cite the offending line, so a typo can never turn
into a silent default.

All rates and byte quantities are given at nominal (full-chip) scale; the
`desk_scale` divisor shrinks traffic volume and the command clock together,
which leaves every cycle-domain quantity (timings, latencies, queue dynamics)
unchanged while making a 33 ms frame simulable on a desktop.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass, field
from importlib import resources

from .controller import POLICIES, QUEUE_NAMES
from .core import (PRIORITY_LEVELS, TXN_SIZE_BYTES, Interval, ValidationError,
                   within)
from .dram import MAX_BANKS, NEVER, DramTimingConfig
from .meters import MalformedLut, PriorityLut
from .traffic import (BURSTY_FRAME, CREDIT_KINDS, LATENCY_PROBE,
                      SOURCE_KINDS, DmaSpec)


class ParseError(Exception):
    pass


METER_KINDS = ("latency", "frame_progress", "occupancy", "bandwidth")

MB = 1.0e6
KB = 1024

# numeric domains; a float key with no bound of its own takes FINITE
FINITE = Interval(-math.inf)
NONNEGATIVE = Interval(0)
POSITIVE = Interval(0, open_lo=True)
FRACTION = Interval(0.0, 1.0)


@dataclass
class DmaEntry:
    dma_id: str
    core: str
    queue: str = within(QUEUE_NAMES)
    cluster: str = within(("media", "system", "direct"))
    kind: str = within(SOURCE_KINDS)
    meter: str = within(METER_KINDS)
    rate_mbps: float = within(NONNEGATIVE, 0.0)
    target_mbps: float = within(FINITE, -1.0)  # defaults to rate_mbps
    frame_kb: float = within(FINITE, 0.0)
    buffer_kb: float = within(FINITE, 0.0)
    latency_limit_cycles: float = within(FINITE, 0.0)
    direction: str = within(("drain", "fill"), "drain")
    queue_depth: int = within(NONNEGATIVE, 0)  # 0: use the [noc] depth
    window_cycles: int = within(NONNEGATIVE, 0)  # 0: meter_window_cycles
    reference_slope: float = within(FINITE, 1.0)
    lut: tuple = ()
    region_base_kb: int = within(NONNEGATIVE, 0)
    region_len_kb: int = within(POSITIVE, 1024)
    locality: float = within(FRACTION, 1.0)
    read_fraction: float = within(FRACTION, 1.0)
    pace_boost: float = within(POSITIVE, 2.0)

    @property
    def target_bytes_per_s(self) -> float:
        mbps = self.target_mbps if self.target_mbps >= 0 else self.rate_mbps
        return mbps * MB

    def spec_for(self, desk_scale: int, frame_period_cycles: int) -> DmaSpec:
        return DmaSpec(
            dma_id=self.dma_id,
            source_kind=self.kind,
            rate_bytes_per_s=self.rate_mbps * MB / desk_scale,
            frame_period_cycles=frame_period_cycles,
            frame_bytes=int(self.frame_kb * KB / desk_scale),
            address_region=(self.region_base_kb * KB,
                            self.region_len_kb * KB),
            locality=self.locality,
            read_fraction=self.read_fraction,
            pace_boost=self.pace_boost,
        )


@dataclass
class ScenarioConfig:
    name: str = "scenario"
    seed: int = within(NONNEGATIVE, 0)
    desk_scale: int = within(Interval(1), 64)
    warmup_cycles: int = within(NONNEGATIVE, 4000)
    duration_cycles: int = within(NONNEGATIVE, 0)  # 0: warmup + frames
    duration_frames: int = within(NONNEGATIVE, 1)
    fps: float = within(POSITIVE, 30.0)
    epoch_cycles: int = within(POSITIVE, 100)
    meter_window_cycles: int = within(POSITIVE, 100)
    io_freq_mhz: float = within(POSITIVE, 1866.0)
    dram: DramTimingConfig = field(default_factory=DramTimingConfig)
    policy: str = within(POLICIES, "QOS")
    capacity: int = within(POSITIVE, 42)
    aging_period: int = within(POSITIVE, 10000)
    delta: int = within(Interval(0, PRIORITY_LEVELS), 6)
    static_split: bool = False
    # a depth of 0 is legal: every offer into that queue is refused
    noc_depth: int = within(NONNEGATIVE, 8)
    noc_cluster_depth: int | None = within(NONNEGATIVE, None)  # None: depth
    dmas: list = field(default_factory=list)

    @property
    def command_clock_hz(self) -> float:
        return self.io_freq_mhz * MB / 2.0 / self.desk_scale

    @property
    def frame_period_cycles(self) -> int:
        return int(round(self.command_clock_hz / self.fps))

    def resolved_duration(self) -> int:
        if self.duration_cycles > 0:
            return self.duration_cycles
        return self.warmup_cycles + self.duration_frames * self.frame_period_cycles

    def fingerprint(self) -> tuple:
        return (self.name, self.seed, self.desk_scale, self.io_freq_mhz,
                self.resolved_duration(), self.warmup_cycles)

    def validate(self) -> None:
        _check_text("name", self.name)
        # each key against the domain its field declares (`within`), named
        # as in the text, where a [noc] key is noc_<key>; None is unset
        for obj, prefix in [(self, ""), (self.dram, "[dram] "),
                            *((e, f"{e.dma_id}: ") for e in self.dmas)]:
            for f in dataclasses.fields(obj):
                value, domain = getattr(obj, f.name), f.metadata.get("domain")
                if value is not None and domain and value not in domain:
                    key = prefix + f.name.replace("noc_", "[noc] ", 1)
                    raise ValidationError(
                        f"{key} {value!r} is not in {domain}")
        if self.dram.channels * self.dram.ranks * self.dram.banks > MAX_BANKS:
            raise ValidationError(
                f"[dram] channels * ranks * banks exceeds {MAX_BANKS}")
        # resolved_duration() needs a frame period of at least one cycle
        period = self.command_clock_hz / self.fps
        if not (math.isfinite(period) and round(period) >= 1):
            raise ValidationError(
                f"fps {self.fps} at io_freq_mhz {self.io_freq_mhz} gives "
                f"no finite frame period of at least one cycle")
        if self.resolved_duration() <= self.epoch_cycles:
            # the first NPI sample is taken at cycle epoch_cycles
            raise ValidationError(
                f"duration {self.resolved_duration()} cycles must exceed "
                f"epoch_cycles {self.epoch_cycles}")
        for i, e in enumerate(self.dmas):
            if any(d.dma_id == e.dma_id for d in self.dmas[:i]):
                raise ValidationError(f"duplicate dma id {e.dma_id}")
            _check_text("dma id", e.dma_id)
            if not e.dma_id:
                raise ValidationError("empty dma id")
            if "," in e.dma_id or '"' in e.dma_id:
                raise ValidationError(f"dma id {e.dma_id!r} has a ',' or a "
                                      f"'\"', which the CSVs cannot hold")
            _check_text(f"{e.dma_id}: core", e.core)
            for ok, text in _DMA_CHECKS:
                if not ok(e, self):
                    raise ValidationError(f"{e.dma_id}: " + text.format(
                        probe_limit=_probe_limit(self), **vars(e)))
            if e.lut:
                PriorityLut(entries=tuple(e.lut))  # validates itself
        regions = sorted(self.dmas, key=lambda e: e.region_base_kb)
        for a, b in zip(regions, regions[1:]):
            if b.region_base_kb < a.region_base_kb + a.region_len_kb:
                raise ValidationError(
                    f"address regions of {a.dma_id} and {b.dma_id} overlap")


def _probe_limit(cfg: ScenarioConfig) -> float:
    """The largest latency_probe rate_mbps: one transaction per cycle."""
    return TXN_SIZE_BYTES / 2 * cfg.io_freq_mhz


def _pace(e: DmaEntry, cfg: ScenarioConfig) -> float:
    """The bytes per command cycle that `e`'s `Generator` earns: its
    `rate_per_cycle`, or, for a credit stream under an occupancy meter,
    its `pace`, which pace_boost multiplies."""
    spec = e.spec_for(cfg.desk_scale, cfg.frame_period_cycles)
    rate = spec.rate_bytes_per_s / cfg.command_clock_hz
    if e.kind in CREDIT_KINDS and e.meter == "occupancy":
        rate *= e.pace_boost
    return rate


# the per-DMA checks that relate several keys or compute with them: a test
# that holds for a valid entry `e` of scenario `s`, and the error text,
# formatted with the entry's fields and the largest latency_probe rate_mbps
_DMA_CHECKS = (
    (lambda e, s: all(map(math.isfinite, e.lut)),
     "lut {lut} has a non-finite entry"),
    # a random jump draws a slot of the region with rng.DmaStream.integers
    (lambda e, s: e.locality >= 1
     or e.region_len_kb * KB // TXN_SIZE_BYTES <= 2 ** 63,
     "region_len_kb {region_len_kb} holds more than 2**63 transactions, "
     "too many for a random jump (locality < 1)"),
    # spec_for converts the scaled frame to whole bytes
    (lambda e, s: math.isfinite(e.frame_kb * KB),
     "frame_kb {frame_kb:g} overflows when scaled to bytes"),
    (lambda e, s: e.kind != LATENCY_PROBE or e.rate_mbps <= _probe_limit(s),
     "latency_probe rate_mbps {rate_mbps:g} exceeds one transaction per "
     "command cycle ({probe_limit:g})"),
    # an infinite pace earns NaN credit at a poll zero cycles after the last
    (lambda e, s: e.kind == BURSTY_FRAME or _pace(e, s) < math.inf,
     "rate_mbps {rate_mbps:g} overflows when scaled to bytes per command "
     "cycle (on an occupancy stream, at pace_boost {pace_boost:g})"),
    (lambda e, s: e.kind == BURSTY_FRAME or e.rate_mbps == 0
     or 0 < _pace(e, s) and TXN_SIZE_BYTES / _pace(e, s) < NEVER,
     "rate_mbps {rate_mbps:g} earns no transaction in 2**62 command cycles "
     "(on an occupancy stream, at pace_boost {pace_boost:g})"),
    (lambda e, s: e.meter != "latency" or e.latency_limit_cycles > 0,
     "latency meter needs latency_limit_cycles > 0"),
    (lambda e, s: e.meter != "occupancy" or e.rate_mbps > 0,
     "occupancy meter needs rate_mbps > 0"),
    (lambda e, s: e.meter != "occupancy" or e.buffer_kb > 0,
     "occupancy meter needs buffer_kb > 0"),
    (lambda e, s: e.meter != "frame_progress" or e.spec_for(
        s.desk_scale, s.frame_period_cycles).frame_bytes >= TXN_SIZE_BYTES,
     "frame_progress meter: frame_kb {frame_kb:g} over desk_scale holds "
     "no whole transaction"),
    # the reference, reference_slope * elapsed / frame period, stays > 0
    (lambda e, s: e.meter != "frame_progress"
     or e.reference_slope / s.frame_period_cycles > 0,
     "frame_progress meter needs reference_slope / frame period > 0, not "
     "reference_slope {reference_slope:g}"),
)


def _check_text(label: str, value: str) -> None:
    """Reject a text value that `emit_config` could not write back as one
    `key = value` line: a line break, a `#` or surrounding whitespace."""
    if "#" in value or value != value.strip() or len(value.splitlines()) > 1:
        raise ValidationError(f"{label} {value!r} cannot be written back: "
                              f"it has a '#', a line break or surrounding "
                              f"whitespace")


# ---------------------------------------------------------------------------
# parsing

# the keys of each section in emit order, and their types; the global
# section (None) has no header, and each [dma <id>] section fills the
# fields of a DmaEntry after dma_id (the entry's name is how errors cite it)
_DMA = "dma ..."
_SECTIONS = {
    None: {
        "name": str, "seed": int, "desk_scale": int, "warmup_cycles": int,
        "duration_cycles": int, "duration_frames": int, "fps": float,
        "epoch_cycles": int, "meter_window_cycles": int,
    },
    "dram": {
        "io_freq_mhz": float, "channels": int, "ranks": int, "banks": int,
        "column_bits": int, "CL": int, "tRCD": int, "tRP": int, "tWTR": int,
        "tRTP": int, "tWR": int, "tRRD": int, "tFAW": int, "tBURST": int,
    },
    "controller": {
        "policy": str, "capacity": int, "aging_period": int, "delta": int,
        "static_split": bool,
    },
    "noc": {"depth": int, "cluster_depth": int},
    _DMA: dict(list(typing.get_type_hints(DmaEntry).items())[1:]),
}
# the [dma <id>] keys that DmaEntry has no default for
_REQUIRED = tuple(f.name for f in dataclasses.fields(DmaEntry)[1:]
                  if f.default is dataclasses.MISSING)


def _home(cfg: ScenarioConfig, section, key: str) -> tuple:
    """The object and attribute that hold `key` of `section`."""
    if section == "dram" and key != "io_freq_mhz":
        return cfg.dram, key
    if section == "noc":
        return cfg, "noc_" + key
    return cfg, key


def _convert(raw: str, typ, key: str, lineno: int):
    if typ is tuple:  # a priority LUT
        entries = tuple(_convert(v.strip(), float, key, lineno)
                        for v in raw.split(","))
        try:
            PriorityLut(entries=entries)  # validates itself
        except MalformedLut as exc:
            raise MalformedLut(f"line {lineno}: {key} {exc}") from None
        return entries
    try:
        if typ is bool:
            if raw.lower() in ("true", "yes", "1"):
                return True
            if raw.lower() in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        value = typ(raw)
        if typ is float and not math.isfinite(value):
            raise ValueError(raw)
        return value
    except ValueError:
        raise ParseError(
            f"line {lineno}: bad value {raw!r} for key {key!r}") from None


def _check_required(section, values: dict) -> None:
    """Reject a [dma <id>] section that leaves out a required key."""
    if section != _DMA:
        return
    for key in _REQUIRED:
        if key not in values:
            raise ValidationError(
                f"dma {values['dma_id']}: missing key {key!r}")


def parse_config(text: str) -> ScenarioConfig:
    # the values given in each section: a [dma <id>] header starts a new
    # dict, and any other header reopens its section's
    given = {section: {} for section in _SECTIONS if section != _DMA}
    dmas = []
    section, values = None, given[None]
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(f"line {lineno}: malformed section header")
            _check_required(section, values)
            header = line[1:-1].strip()
            if header.startswith("dma "):
                section, values = _DMA, {"dma_id": header[4:].strip()}
                dmas.append(values)
            elif header in given:
                section, values = header, given[header]
            else:
                raise ParseError(f"line {lineno}: unknown section [{header}]")
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value'")
        key, _, raw = line.partition("=")
        key = key.strip()
        keys = _SECTIONS[section]
        if key not in keys:
            where = f" in [{section}]" if section else ""
            raise ParseError(f"line {lineno}: unknown key {key!r}{where}")
        if key in values:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _convert(raw.strip(), keys[key], key, lineno)
        if key == "duration_cycles" and values[key] <= 0:
            raise ValidationError(
                f"line {lineno}: duration_cycles must be positive")
    _check_required(section, values)
    cfg = ScenarioConfig(dmas=[DmaEntry(**entry) for entry in dmas])
    for section, values in given.items():
        for key, value in values.items():
            setattr(*_home(cfg, section, key), value)
    cfg.validate()
    return cfg


def emit_config(cfg: ScenarioConfig) -> str:
    """Canonical text form; parse(emit(cfg)) reproduces cfg."""
    blocks = [(section and f"[{section}]", section,
               {key: getattr(*_home(cfg, section, key)) for key in keys})
              for section, keys in _SECTIONS.items() if section != _DMA]
    blocks += [(f"[dma {e.dma_id}]", _DMA, vars(e)) for e in cfg.dmas]
    out = []
    for header, section, values in blocks:
        if header:
            out += ["", header]
        for key in _SECTIONS[section]:
            value = values[key]
            # a frame-derived duration (0), an unset cluster depth (None)
            # and an absent LUT (()) have no input value
            if value in (None, ()) or key == "duration_cycles" and value == 0:
                continue
            if isinstance(value, tuple):
                value = ",".join(map(str, value))
            out.append(f"{key} = {value}")
    return "\n".join(out) + "\n"


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return parse_config(text)


def load_packaged_scenario(case: str) -> ScenarioConfig:
    name = f"case_{case.lower()}.cfg"
    text = resources.files("sarasim.scenarios").joinpath(name).read_text()
    return parse_config(text)


def _clone(cfg: ScenarioConfig, **changes) -> ScenarioConfig:
    """A copy of `cfg` with `changes` whose DRAM timing and DMA list a
    caller may change without touching `cfg`."""
    return dataclasses.replace(cfg, dram=dataclasses.replace(cfg.dram),
                               dmas=list(cfg.dmas), **changes)


def with_policy(cfg: ScenarioConfig, policy: str) -> ScenarioConfig:
    return _clone(cfg, policy=policy)


def with_frequency(cfg: ScenarioConfig, io_freq_mhz: float) -> ScenarioConfig:
    domain = cfg.__dataclass_fields__["io_freq_mhz"].metadata["domain"]
    if io_freq_mhz not in domain:
        raise ValidationError(f"frequency {io_freq_mhz} is not a finite "
                              f"number in {domain}")
    return _clone(cfg, io_freq_mhz=io_freq_mhz)
