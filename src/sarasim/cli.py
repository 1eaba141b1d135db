"""Command-line harness: single runs, policy comparisons, frequency sweeps.

Verbs:

  run          one scenario, one policy -> NPI series CSV + summary CSV
  compare      same scenario across several policies
  sweep        same scenario across DRAM frequencies for one DMA
  echo-config  parse and re-emit a scenario in canonical form
  list-cores   show the DMAs, meters and targets of a scenario

Exit codes: 0 success, 1 configuration error (a malformed command line
included), 2 runtime error.
Output files are byte-stable for identical (scenario, seed) inputs.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import engine, metrics
from .config import (ParseError, ScenarioConfig, ValidationError, emit_config,
                     load_config, load_packaged_scenario, with_frequency,
                     with_policy)
from .controller import POLICIES
from .core import PRIORITY_LEVELS

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _fmt(x: float) -> str:
    return format(x, ".10g")


def write_npi_csv(path: str, report) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("cycle,dma,npi,priority\n")
        for dma in report.dma_order:
            for cycle, npi, level in zip(*report.sink.series[dma]):
                fh.write(f"{cycle},{dma},{_fmt(npi)},{level}\n")


def write_summary_csv(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("policy,dma,min_npi,mean_bw_bytes_s,total_bw_bytes_s,"
                 "row_hit_rate\n")
        for r in rows:
            fh.write(f"{r.policy},{r.dma_id},{_fmt(r.min_npi)},"
                     f"{_fmt(r.mean_bw_bytes_s)},{_fmt(r.total_bw_bytes_s)},"
                     f"{_fmt(r.row_hit_rate)}\n")


def write_sweep_csv(path: str, rows) -> None:
    levels = ",".join(f"level{i}_frac" for i in range(PRIORITY_LEVELS))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"io_freq_mhz,dma,{levels},mean_priority,"
                 "mean_bw_bytes_s,target_bw_bytes_s\n")
        for freq, dma, hist, meanp, bw, target in rows:
            fracs = ",".join(_fmt(f) for f in hist.fraction_of_time)
            fh.write(f"{_fmt(freq)},{dma},{fracs},{_fmt(meanp)},"
                     f"{_fmt(bw)},{_fmt(target)}\n")


def _load(args) -> ScenarioConfig:
    path = args.config  # a file, else a shipped scenario's name
    cfg = (load_packaged_scenario(path) if path in ("A", "B", "sweep")
           and not os.path.exists(path) else load_config(path))
    if args.seed is not None:
        cfg.seed = args.seed
    if args.duration is not None:
        if args.duration <= 0:
            raise ValidationError(
                f"--duration must be positive, not {args.duration}")
        cfg.duration_cycles = args.duration
    cfg.validate()
    return cfg


def cmd_run(args) -> int:
    cfg = _load(args)
    if args.policy:
        cfg = with_policy(cfg, args.policy)
    report = engine.run(cfg)
    os.makedirs(args.output, exist_ok=True)
    write_npi_csv(os.path.join(args.output, f"npi_{cfg.policy}.csv"), report)
    rows = metrics.policy_comparison({cfg.policy: report})
    write_summary_csv(os.path.join(args.output, "summary.csv"), rows)
    print(f"{cfg.name}: policy {cfg.policy}, "
          f"{report.completed} transactions completed, "
          f"row-hit rate {report.row_hit_rate:.3f}")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = _load(args)
    policies = [p for p in args.policies.split(",") if p]
    if not policies:
        raise ValidationError(f"--policies {args.policies!r} names no policy")
    for p in policies:
        if p not in POLICIES:
            raise ValidationError(f"unknown policy {p}")
        if policies.count(p) > 1:
            raise ValidationError(f"--policies names {p} more than once")
    reports = {}
    for policy in policies:  # deterministic order: as given
        reports[policy] = engine.run(with_policy(cfg, policy))
    os.makedirs(args.output, exist_ok=True)
    for policy in policies:
        pdir = os.path.join(args.output, policy)
        os.makedirs(pdir, exist_ok=True)
        write_npi_csv(os.path.join(pdir, "npi.csv"), reports[policy])
    rows = metrics.policy_comparison(reports)
    write_summary_csv(os.path.join(args.output, "summary.csv"), rows)
    for policy in policies:
        r = reports[policy]
        print(f"{policy}: total {r.total_bandwidth()/1e9:.3f} GB/s, "
              f"row-hit rate {r.row_hit_rate:.3f}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load(args)
    try:
        freqs = [float(f) for f in args.frequencies.split(",") if f]
    except ValueError:
        raise ValidationError(
            f"bad --frequencies {args.frequencies!r}") from None
    if not freqs:
        raise ValidationError(
            f"--frequencies {args.frequencies!r} names no frequency")
    for freq in freqs:
        if freqs.count(freq) > 1:
            raise ValidationError(
                f"--frequencies names {freq:g} more than once")
    # with_frequency rejects a bad frequency before any run starts
    runs = [with_frequency(cfg, freq) for freq in freqs]
    dma = args.dma
    if dma not in {e.dma_id for e in cfg.dmas}:
        raise ValidationError(f"unknown dma {dma}")
    rows = []
    for freq, run_cfg in zip(freqs, runs):
        report = engine.run(run_cfg)
        hist = report.priority_histogram(dma)
        rows.append((freq, dma, hist, report.mean_priority(dma),
                     report.mean_bandwidth(dma),
                     report.target_bytes_per_s[dma]))
    os.makedirs(args.output, exist_ok=True)
    write_sweep_csv(os.path.join(args.output, "sweep.csv"), rows)
    for freq, dma_id, hist, meanp, bw, target in rows:
        print(f"{freq:.0f} MHz: mean priority {meanp:.2f}, "
              f"bandwidth {bw/1e6:.1f} MB/s (target {target/1e6:.1f})")
    return EXIT_OK


def cmd_echo_config(args) -> int:
    cfg = _load(args)
    sys.stdout.write(emit_config(cfg))
    return EXIT_OK


def cmd_list_cores(args) -> int:
    cfg = _load(args)
    print(f"scenario {cfg.name}: {len(cfg.dmas)} DMAs, "
          f"DRAM @ {cfg.io_freq_mhz:.0f} MHz, policy {cfg.policy}")
    for e in sorted(cfg.dmas, key=lambda e: e.dma_id):
        target = e.target_bytes_per_s / 1e6
        print(f"  {e.dma_id:<18} core={e.core:<16} kind={e.kind:<17} "
              f"meter={e.meter:<14} queue={e.queue:<7} "
              f"target={target:.1f} MB/s")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are configuration errors (exit
    1), not argparse's exit 2; its subparsers inherit the class."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sarasim",
        description="Priority-adaptive MPSoC memory subsystem simulator")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, output=True):
        p.add_argument("-c", "--config", required=True,
                       help="scenario config file, or A, B or sweep")
        p.add_argument("--seed", type=int, help="override scenario seed")
        p.add_argument("--duration", type=int,
                       help="override duration in cycles")
        if output:
            p.add_argument("-o", "--output", default="out",
                           help="output directory")

    p = sub.add_parser("run", help="run one scenario")
    common(p)
    p.add_argument("--policy", choices=POLICIES,
                   help="override the scenario's scheduling policy")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="run one scenario under many policies")
    common(p)
    p.add_argument("--policies", required=True,
                   help="comma-separated policy list")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="sweep DRAM frequency for one DMA")
    common(p)
    p.add_argument("--frequencies", required=True,
                   help="comma-separated I/O frequencies in MHz")
    p.add_argument("--dma", required=True, help="DMA to report on")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("echo-config", help="canonicalize a scenario file")
    common(p, output=False)
    p.set_defaults(func=cmd_echo_config)

    p = sub.add_parser("list-cores", help="describe a scenario's DMAs")
    common(p, output=False)
    p.set_defaults(func=cmd_list_cores)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ParseError, ValidationError, FileNotFoundError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
