#!/usr/bin/env python3
"""Benchmark of the sarasim simulator on whole-frame scenarios.

Usage (from the repository root):

    python3 perfbench/run.py --workload a_full_qosrb --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 30 --trace 0

Load is a closed loop with one client: this single-threaded process runs
one simulation at a time through the public entry point (`engine.run` on
the workload's `ScenarioConfig`, then the CLI's `write_npi_csv` and
`write_summary_csv`), and starts the next when the previous one ended,
until `--seconds` is spent; at least two simulations run. The seed becomes
the scenario seed.

Every simulation's NPI and summary CSVs are hashed. A run is failed when
it raised, broke transaction conservation, differed from the first
simulation of the same invocation, or differed from the committed golden
digests (`golden.json`) for that workload and seed. Any failure makes the
command exit 1.

With `--trace 0` the end-to-end metrics of BENCHMARK.json are reported.
Their times are host times rescaled to a nominal host speed by reference
samples taken during each measurement (`reference.py`), because the
host's own speed drifts by more than any bound; the raw host times are
printed too. `setup_s` is the median of several fresh processes that
import sarasim, parse the scenario and construct the `World`. With
`--trace 1` untraced
and traced simulations alternate, and the per-layer metrics of the traced
ones are reported (see `tracing.py` and `layer_map.json`).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Each invocation also
appends a record with the machine and build context to
`.perfbench_out/results.jsonl`.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path[:0] = [SRC, HERE]

try:
    import numpy
    import sarasim
    from sarasim import cli, engine, metrics
    from sarasim.config import emit_config
except ImportError as exc:
    sys.exit(f"perfbench: cannot import sarasim from {SRC}: {exc}")
if os.path.dirname(os.path.abspath(sarasim.__file__)) != os.path.join(
        SRC, "sarasim"):
    sys.exit(f"perfbench: sarasim was imported from {sarasim.__file__}, "
             f"not from {SRC}")

import reference  # noqa: E402  (needs the path set above)
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_PROBES = 11
SETUP_REF_SAMPLES = 3  # reference samples before and after each probe
MIN_SIMULATIONS = 2  # a repeat checks determinism on seeds without goldens


class RunFailed(Exception):
    pass


# -- one simulation ----------------------------------------------------------

def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def simulate(cfg, outdir: str, tracer: Tracer | None = None) -> dict:
    """Run `cfg` once, write its CSVs and return wall time, digests and the
    modelled end-to-end metrics.

    An untraced simulation runs under a reference `Sampler`: its wall time
    excludes the samples' time, and `wall_norm_s` rescales it to the
    nominal host speed (see `reference.py`). A traced one takes no samples,
    which would count as self time of whatever span they interrupted."""
    cfg = copy.deepcopy(cfg)  # the engine writes into cfg.dram
    os.makedirs(outdir, exist_ok=True)
    npi_path = os.path.join(outdir, f"npi_{cfg.policy}.csv")
    summary_path = os.path.join(outdir, "summary.csv")
    sampler = None if tracer else reference.Sampler()
    gc.collect()  # the previous simulation's garbage is not this one's cost
    t0 = time.perf_counter()
    with sampler or contextlib.nullcontext():
        report = engine.run(cfg)
        with tracer.span("metrics.report") if tracer \
                else contextlib.nullcontext():
            cli.write_npi_csv(npi_path, report)
            rows = metrics.policy_comparison({cfg.policy: report})
            cli.write_summary_csv(summary_path, rows)
    elapsed = time.perf_counter() - t0
    wall = elapsed - (sampler.spent if sampler else 0.0)

    if report.generated != report.completed + report.resident_at_end:
        raise RunFailed(
            f"conservation: generated {report.generated} != completed "
            f"{report.completed} + resident {report.resident_at_end}")
    if report.completed <= 0 or len(rows) != len(report.dma_order):
        raise RunFailed("no completions or a missing summary row")
    return {
        "report": report,
        "cycles": report.duration_cycles,
        "elapsed_s": elapsed,
        "wall_s": wall,
        "wall_norm_s": wall * sampler.scale() if sampler else None,
        "ref_samples": len(sampler.samples) if sampler else 0,
        "digests": {"npi": _sha256(npi_path),
                    "summary": _sha256(summary_path)},
        "sim": {
            "sim.total_bw_gbps": report.total_bandwidth() / 1e9,
            "sim.min_npi": min(r.min_npi for r in rows),
            "sim.row_hit_rate": report.row_hit_rate,
            "sim.max_wait_cycles": float(report.max_wait),
        },
    }


def check_digests(digests: dict, expected: dict | None, what: str) -> None:
    if expected is not None and digests != expected:
        raise RunFailed(f"digests differ from {what}: {digests} != {expected}")


def load_golden() -> dict:
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- set-up time -------------------------------------------------------------

def setup_seconds(cfg_path: str) -> tuple:
    """Import, parse and World construction, timed inside a fresh process;
    returns host seconds and the same rescaled to the nominal host speed by
    reference samples taken just before and after the probe."""
    samples = [reference.sample() for _ in range(SETUP_REF_SAMPLES)]
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, cfg_path],
        capture_output=True, text=True, timeout=30, check=False)
    samples += [reference.sample() for _ in range(SETUP_REF_SAMPLES)]
    if proc.returncode != 0:
        raise RunFailed(f"setup probe failed: {proc.stderr.strip()}")
    seconds = float(proc.stdout.strip().splitlines()[-1])
    return seconds, seconds * reference.NOMINAL_S / statistics.fmean(samples)


# -- machine and build context -----------------------------------------------

def _git(*args) -> str | None:
    # the ceiling keeps git from searching directories above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=30, check=False, env=env)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def context() -> dict:
    """Machine and build context; git fields are None outside a checkout."""
    in_repo = (os.path.exists(os.path.join(ROOT, ".git"))
               and _git("rev-parse", "--show-toplevel") == ROOT)
    status = _git("status", "--porcelain") if in_repo else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": _git("rev-parse", "HEAD") if in_repo else None,
        "tree_clean": None if status is None else status == "",
    }


# -- measurement -------------------------------------------------------------

class Session:
    """The simulations of one invocation for one workload and seed."""

    def __init__(self, workload: str, seed: int, golden: dict | None,
                 duration_cycles: int | None = None):
        self.workload = workload
        self.seed = seed
        self.cfg = workloads.build(workload, seed)
        if duration_cycles is not None:
            self.cfg.duration_cycles = duration_cycles
        self.golden = golden  # expected digests, or None when not committed
        self.outdir = os.path.join(OUT, f"{workload}-{seed}")
        self.first_digests = None
        self.attempted = 0
        self.failures = []

    def run_one(self, tracer: Tracer | None = None) -> dict | None:
        self.attempted += 1
        try:
            res = simulate(self.cfg, self.outdir, tracer)
            check_digests(res["digests"], self.golden, "golden.json")
            check_digests(res["digests"], self.first_digests,
                          "the first simulation of this run")
        except Exception as exc:  # noqa: BLE001 - counted as a failed run
            self.failures.append(f"{type(exc).__name__}: {exc}")
            print(f"simulation {self.attempted} FAILED\n"
                  f"{traceback.format_exc()}", file=sys.stderr)
            return None
        self.first_digests = self.first_digests or res["digests"]
        return res


def _budget_left(start: float, seconds: float, next_cost: float) -> bool:
    return time.perf_counter() - start + next_cost <= seconds


def measure_end_to_end(session: Session, seconds: float) -> dict:
    """Set-up probes, then untraced simulations until `seconds` is spent."""
    os.makedirs(session.outdir, exist_ok=True)
    cfg_path = os.path.join(session.outdir, "scenario.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(emit_config(session.cfg))
    setups = [setup_seconds(cfg_path) for _ in range(SETUP_PROBES)]

    results = []
    start = time.perf_counter()
    while True:
        res = session.run_one()
        if res is not None:
            del res["report"]  # keep one report alive at a time, for RSS
            results.append(res)
        costs = ([r["elapsed_s"] for r in results]
                 or [time.perf_counter() - start])
        if (session.attempted >= MIN_SIMULATIONS
                and not _budget_left(start, seconds, statistics.median(costs))):
            break
    if not results:
        raise RunFailed("every simulation failed")
    wall = statistics.median(r["wall_s"] for r in results)
    wall_norm = statistics.median(r["wall_norm_s"] for r in results)
    cycles = results[0]["cycles"]
    out = {
        "wall_norm_s": wall_norm,
        "sim_kcycles_per_norm_s": cycles / wall_norm / 1e3,
        "setup_s": statistics.median(norm for _, norm in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "wall_s": wall,
        "sim_kcycles_per_s": cycles / wall / 1e3,
        "setup_raw_s": statistics.median(raw for raw, _ in setups),
        "host_slowdown": statistics.median(r["wall_s"] / r["wall_norm_s"]
                                           for r in results),
        "failed_run_frac": len(session.failures) / session.attempted,
    }
    out.update(results[0]["sim"])
    return {"metrics": out,
            "walls": [r["wall_s"] for r in results],
            "norm_walls": [r["wall_norm_s"] for r in results],
            "ref_samples": [r["ref_samples"] for r in results],
            "setups": setups}


def measure_per_layer(session: Session, seconds: float) -> dict:
    """Alternate untraced and traced simulations; per-layer metrics are the
    medians over the traced ones."""
    plain, traced, layer = [], [], []
    start = time.perf_counter()
    while True:
        res = session.run_one()
        if res is not None:
            plain.append(res["wall_s"])
        with Tracer() as tracer:
            res = session.run_one(tracer)
        if res is not None:
            traced.append(res["wall_s"])
            layer.append(tracer.metrics(session.cfg, res["report"],
                                        res["wall_s"]))
        pair = (statistics.median(plain or [0.0])
                + statistics.median(traced or [0.0]))
        if not _budget_left(start, seconds, pair):
            break
    if not plain or not layer:
        raise RunFailed("every untraced or every traced simulation failed")
    out = {k: statistics.median(m[k] for m in layer) for k in layer[0]}
    out["trace.overhead_frac"] = (statistics.median(traced)
                                  / statistics.median(plain) - 1.0)
    return {"metrics": out, "walls": plain, "traced_walls": traced}


# -- reporting ---------------------------------------------------------------

def declared_metrics(trace: bool) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def load_layer_map() -> dict:
    with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as fh:
        return json.load(fh)


# End-to-end metrics printed but not declared in BENCHMARK.json. The host
# times follow the host's speed, which drifts beyond any bound; the declared
# metrics rescale them (see reference.py), and `host_slowdown` is the factor.
# failed_run_frac is 0 on correct code; the last two spread too far between
# seeds to bound.
UNDECLARED_UNITS = {
    "wall_s": "s", "sim_kcycles_per_s": "kcycle/s", "setup_raw_s": "s",
    "host_slowdown": "x", "failed_run_frac": "frac", "sim.min_npi": "npi",
    "sim.max_wait_cycles": "cycle",
}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 golden: dict, duration_cycles: int | None = None) -> dict:
    """Measure one workload and print its metrics; returns the result.

    `golden` maps workload -> seed -> expected digests. `duration_cycles`
    shortens every simulation (for the self-check); the committed goldens
    cover whole-frame runs only.
    """
    session = Session(workload, seed,
                      golden.get(workload, {}).get(str(seed)), duration_cycles)
    declared = declared_metrics(trace)
    if trace:
        measured = measure_per_layer(session, seconds)
        units, notes = declared, load_layer_map()
    else:
        measured = measure_end_to_end(session, seconds)
        units, notes = {**declared, **UNDECLARED_UNITS}, {}
    values = measured["metrics"]
    if set(values) != set(units):
        raise RunFailed(f"measured metrics {sorted(values)} differ from "
                        f"those declared {sorted(units)}")

    print(f"workload {workload}, seed {seed}, trace {int(trace)}: "
          f"{session.attempted} simulations, {len(session.failures)} failed"
          f"{', golden digests checked' if session.golden else ''}")
    for name, value in values.items():
        moves = notes.get(name)
        hint = f"  -> {moves['moves']} on {', '.join(moves['on'])}" \
            if moves else ""
        print(f"  {name:<38} {value:>14.6g} {units[name]}{hint}")
    ctx = context()
    print("context: " + " ".join(f"{k}={v}" for k, v in ctx.items()))
    record = {"workload": workload, "seed": seed, "trace": trace,
              "seconds": seconds, "context": ctx,
              "attempted": session.attempted, "failures": session.failures,
              "digests": session.first_digests, **measured}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    result = {
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    for name, m in result["metrics"].items():
        if not math.isfinite(m["value"]):
            raise RunFailed(f"metric {name} is not finite")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    golden = load_golden()
    ok = True
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), golden)
        except RunFailed as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
