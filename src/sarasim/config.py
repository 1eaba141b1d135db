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
from .core import PRIORITY_LEVELS, TXN_SIZE_BYTES, ValidationError
from .dram import NEVER, DramTimingConfig
from .meters import MalformedLut, PriorityLut
from .traffic import (BURSTY_FRAME, CREDIT_KINDS, LATENCY_PROBE,
                      SOURCE_KINDS, DmaSpec)


class ParseError(Exception):
    pass


METER_KINDS = ("latency", "frame_progress", "occupancy", "bandwidth")

MB = 1.0e6
KB = 1024


@dataclass
class DmaEntry:
    dma_id: str
    core: str
    queue: str
    cluster: str  # "media", "system" or "direct"
    kind: str
    meter: str
    rate_mbps: float = 0.0
    target_mbps: float = -1.0  # defaults to rate_mbps
    frame_kb: float = 0.0
    buffer_kb: float = 0.0
    latency_limit_cycles: float = 0.0
    direction: str = "drain"
    queue_depth: int = 0  # 0: use the fabric-wide [noc] depth
    window_cycles: int = 0  # 0: use the global meter_window_cycles
    reference_slope: float = 1.0
    lut: tuple = ()
    region_base_kb: int = 0
    region_len_kb: int = 1024
    locality: float = 1.0
    read_fraction: float = 1.0
    pace_boost: float = 2.0

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
    seed: int = 0
    desk_scale: int = 64
    warmup_cycles: int = 4000
    duration_cycles: int = 0   # 0 means warmup + duration_frames frames
    duration_frames: int = 1
    fps: float = 30.0
    epoch_cycles: int = 100
    meter_window_cycles: int = 100
    io_freq_mhz: float = 1866.0
    dram: DramTimingConfig = field(default_factory=DramTimingConfig)
    policy: str = "QOS"
    capacity: int = 42
    aging_period: int = 10000
    delta: int = 6
    static_split: bool = False
    noc_depth: int = 8
    noc_cluster_depth: int | None = None  # None: same as noc_depth
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
        # a duration_cycles of 0 means one from duration_frames
        for key in ("seed", "warmup_cycles", "duration_cycles",
                    "duration_frames"):
            if getattr(self, key) < 0:
                raise ValidationError(f"{key} {getattr(self, key)} is negative")
        # these feed frame_period_cycles, which resolved_duration() needs
        if self.desk_scale < 1:
            raise ValidationError("desk_scale must be >= 1")
        for key in ("io_freq_mhz", "fps"):
            value = getattr(self, key)
            if not (0 < value < math.inf):
                raise ValidationError(
                    f"{key} must be positive and finite, not {value}")
        period = self.command_clock_hz / self.fps
        if not (math.isfinite(period) and round(period) >= 1):
            raise ValidationError(
                f"fps {self.fps} at io_freq_mhz {self.io_freq_mhz} gives "
                f"no finite frame period of at least one cycle")
        if self.resolved_duration() <= 0:
            raise ValidationError("duration must be positive")
        if self.policy not in POLICIES:
            raise ValidationError(f"unknown policy {self.policy}")
        for key in ("epoch_cycles", "meter_window_cycles", "aging_period",
                    "capacity"):
            if getattr(self, key) <= 0:
                raise ValidationError(f"{key} must be positive")
        if not 0 <= self.delta <= PRIORITY_LEVELS:
            raise ValidationError(
                f"delta {self.delta} is outside 0..{PRIORITY_LEVELS}")
        # a depth of 0 is legal: every offer into that queue is refused
        if self.noc_depth < 0:
            raise ValidationError("[noc] depth is negative")
        if self.noc_cluster_depth is not None and self.noc_cluster_depth < 0:
            raise ValidationError("[noc] cluster_depth is negative")
        try:
            self.dram.validate()
        except ValueError as exc:
            raise ValidationError(f"[dram] {exc}") from None
        if self.resolved_duration() <= self.epoch_cycles:
            # the first NPI sample is taken at cycle epoch_cycles
            raise ValidationError(
                f"duration {self.resolved_duration()} cycles must exceed "
                f"epoch_cycles {self.epoch_cycles}")
        seen = set()
        regions = []
        for e in self.dmas:
            if e.dma_id in seen:
                raise ValidationError(f"duplicate dma id {e.dma_id}")
            seen.add(e.dma_id)
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
            regions.append((e.dma_id, e.region_base_kb,
                            e.region_base_kb + e.region_len_kb))
        regions.sort(key=lambda r: r[1])
        for (a, a0, a1), (b, b0, b1) in zip(regions, regions[1:]):
            if b0 < a1:
                raise ValidationError(
                    f"address regions of {a} and {b} overlap")


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


# the per-DMA checks: a test that holds for a valid entry `e` of scenario
# `s`, and the error text, formatted with the entry's fields and the
# largest latency_probe rate_mbps; finite values first, since later rows
# compute with them
_DMA_CHECKS = tuple(
    (lambda e, s, key=f.name: math.isfinite(getattr(e, key)),
     f"{f.name} {{{f.name}}} is not finite")
    for f in dataclasses.fields(DmaEntry) if f.type == "float") + (
    (lambda e, s: all(map(math.isfinite, e.lut)),
     "lut {lut} has a non-finite entry"),
    (lambda e, s: e.kind in SOURCE_KINDS, "unknown kind {kind}"),
    (lambda e, s: e.meter in METER_KINDS, "unknown meter {meter}"),
    (lambda e, s: e.queue in QUEUE_NAMES, "unknown queue {queue}"),
    (lambda e, s: e.cluster in ("media", "system", "direct"),
     "unknown cluster {cluster}"),
    (lambda e, s: 0.0 <= e.locality <= 1.0, "locality out of range"),
    (lambda e, s: 0.0 <= e.read_fraction <= 1.0,
     "read_fraction out of range"),
    (lambda e, s: e.rate_mbps >= 0, "rate_mbps is negative"),
    (lambda e, s: e.window_cycles >= 0, "window_cycles is negative"),
    (lambda e, s: e.queue_depth >= 0, "queue_depth is negative"),
    (lambda e, s: e.direction in ("drain", "fill"),
     "unknown direction {direction}"),
    (lambda e, s: e.region_base_kb >= 0, "region_base_kb is negative"),
    (lambda e, s: e.region_len_kb > 0, "region_len_kb must be positive"),
    # a random jump draws a slot of the region with rng.DmaStream.integers
    (lambda e, s: e.locality >= 1
     or e.region_len_kb * KB // TXN_SIZE_BYTES <= 2 ** 63,
     "region_len_kb {region_len_kb} holds more than 2**63 transactions, "
     "too many for a random jump (locality < 1)"),
    # spec_for converts the scaled frame to whole bytes
    (lambda e, s: math.isfinite(e.frame_kb * KB),
     "frame_kb {frame_kb:g} overflows when scaled to bytes"),
    (lambda e, s: e.pace_boost > 0, "pace_boost must be positive"),
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
    if not 0 < io_freq_mhz < math.inf:
        raise ValidationError(
            f"frequency must be finite and positive, not {io_freq_mhz}")
    return _clone(cfg, io_freq_mhz=io_freq_mhz)
